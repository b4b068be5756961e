"""Space-bound suite: device footprint must track live bytes under GC.

The reclamation pipeline this pins: leveled compaction and frontier repacks
turn superseded snapshot runs and cold graph partitions into catalog garbage,
WAL truncation keeps the ingest journal from growing with the stream, and
copy-forward device GC (:meth:`StorageSystem.reclaim`, reached through
``StreamingReachabilityService.reclaim`` and the ``gc_trigger_ratio`` policy)
recycles the garbage blocks.  The bound: after a GC pass each device holds
at most ``1.5×`` the blocks its live structures reference — on every
backend, with and without interval labels — while every answer stays
bit-identical to the batch reference evaluator, including after close/reopen.
The ingestor's device holds only the WAL and a checkpoint of what is
unfrozen, so neither its blocks nor its manifest grow with the stream.
"""

from __future__ import annotations

import glob
import os
import random
import sys

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    CallCounter,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import ContactConfig, Point, ReachGridConfig, StreamingConfig
from repro.generators import RandomWaypointGenerator
from repro.reachgraph import ContactDag, ReachGraphIndex
from repro.storage import BlockFile
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamIngestor,
    StreamingReachabilityService,
)
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)

#: The sim backend reclaims too (its block store shrinks), so it rides the
#: same matrix as the persistent devices.
SPACE_BACKENDS = ("sim",) + EQUIVALENCE_BACKENDS

#: The acceptance bound: post-GC device blocks over live blocks.
SPACE_BOUND = 1.5


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=7
    ).generate()


def make_service(dataset, storage_config, **overrides):
    config = dict(
        max_delta_contacts=24,
        compaction_max_runs=2,
        gc_trigger_ratio=0.35,
        graph_repack_min_partitions=2,
    )
    config.update(overrides)
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**config),
        storage_config=storage_config,
    )


def device_blocks(service):
    return (
        service.overlay.storage.disk.num_blocks
        + service.ingestor.storage.disk.num_blocks
    )


def live_blocks(service):
    return (
        service.overlay.storage.live_blocks + service.ingestor.storage.live_blocks
    )


def garbage_blocks(service):
    return (
        service.overlay.storage.garbage_blocks
        + service.ingestor.storage.garbage_blocks
    )


def assert_each_device_bounded(service, context):
    for system in (service.overlay.storage, service.ingestor.storage):
        device, live = system.disk.num_blocks, system.live_blocks
        assert device <= SPACE_BOUND * live, (
            f"{context}: {system.name} holds {device} blocks, over "
            f"{SPACE_BOUND}x its {live} live ones"
        )


def checkpoint_state(ingestor):
    return ingestor.storage.get_metadata("ingest-checkpoint")["state"]


def pending_samples(state):
    return sum(len(samples) for samples in state["pending"].values())


def closed_past(contacts, snapshot_watermark):
    """How many of ``contacts`` closed after a merge at the watermark.

    A contact closed at tick ``t`` ends at ``t - 1``, so those closed after
    the merge are exactly those ending at or past its watermark.
    """
    if snapshot_watermark is None:
        return len(contacts)
    return sum(1 for contact in contacts if contact.validity.end >= snapshot_watermark)


def assert_no_stray_gc_files(storage_dir):
    strays = glob.glob(f"{storage_dir}/*.gc")
    assert not strays, f"leftover GC scratch files: {strays}"


# ----------------------------------------------------------------------
# the randomized space bound (acceptance: every backend)
# ----------------------------------------------------------------------
class TestSpaceBound:
    """Drain a randomized multi-merge stream with the whole reclamation
    pipeline armed, reclaim, and check the device-over-live bound plus
    answer fidelity (live and reopened)."""

    # ``graph_labels`` is parametrized by the shared conftest hook: the
    # bound and the answers must hold whether or not the repacked, relocated
    # graph carries interval labels.
    @pytest.mark.parametrize("backend", SPACE_BACKENDS)
    def test_device_blocks_bounded_after_gc(
        self, backend, graph_labels, tmp_path, dataset
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, graph_labels=graph_labels)
        stats = service.drain(DatasetReplaySource(dataset, batch_ticks=6))
        assert stats.events > 0
        assert service.num_merges >= 3, "the stream must force multiple merges"
        service.reclaim()

        assert live_blocks(service) > 0
        assert_each_device_bounded(
            service, f"backend={backend}, graph_labels={graph_labels}"
        )
        # A dense copy-forward leaves no garbage at all right after the pass.
        assert garbage_blocks(service) == 0

        # Reclaim moves blocks, never answers: the post-GC service still
        # agrees with the batch reference evaluator over the full stream.
        workload = random_queries(dataset, count=12, seed=29)
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"post-gc": service.query},
            workload,
            check_earliest=True,
            context=f"post-GC, backend={backend}, graph_labels={graph_labels}",
        )

        if storage_config is None:
            service.close()
            return
        service.close()
        assert_no_stray_gc_files(tmp_path)
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        assert (index.labels is not None) == graph_labels
        assert_reopened_matches_prefix(
            reopened,
            dataset,
            THRESHOLD,
            workload,
            context=f"reopen after GC, backend={backend}, graph_labels={graph_labels}",
        )
        reopened.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_randomized_reclaim_points_keep_equivalence(
        self, backend, seed, tmp_path, dataset
    ):
        """Reclaim at random watermarks mid-stream; answers never drift.

        The randomized axis of the space suite: a seeded RNG picks batches
        after which an explicit :meth:`reclaim` runs, and after every such
        pass the service must agree with the batch reference evaluator over
        exactly its current watermark prefix (equivalence at every reclaimed
        watermark), with the device bound holding each time.
        """
        rng = random.Random(100 + seed)
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        # Policy GC off: this test drives reclaim() explicitly.
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.0)
        workload = random_queries(dataset, count=8, seed=31 + seed)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        reclaim_points = sorted(
            rng.sample(range(1, len(batches)), k=min(3, len(batches) - 1))
        )
        reclaimed = 0
        for index, batch in enumerate(batches):
            service.ingest(batch)
            if index in reclaim_points:
                service.reclaim()
                reclaimed += 1
                assert garbage_blocks(service) == 0
                assert_each_device_bounded(service, f"reclaim at {service.watermark}")
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(dataset, THRESHOLD, through=service.watermark)
                    ),
                    {"mid-stream-gc": service.query},
                    workload,
                    context=f"reclaim at watermark {service.watermark}, "
                    f"backend={backend}, seed={seed}",
                )
        assert reclaimed == len(reclaim_points)
        service.close()
        assert_no_stray_gc_files(tmp_path)


# ----------------------------------------------------------------------
# ledger monotonicity across reclaim passes
# ----------------------------------------------------------------------
class TestReclaimLedgers:
    @pytest.mark.parametrize("backend", SPACE_BACKENDS)
    def test_ledgers_decrease_monotonically_across_reclaims(
        self, backend, tmp_path, dataset
    ):
        """Each reclaim() drives the garbage ledger to zero and the reclaim
        counters forward; the device never grows across a pass."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.0)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        passes = 0
        for index, batch in enumerate(batches):
            service.ingest(batch)
            if index % 3 != 2:
                continue
            service.flush()  # make garbage_blocks reflect a settled catalog
            garbage_before = garbage_blocks(service)
            device_before = device_blocks(service)
            freed = service.reclaim()
            passes += 1
            assert garbage_blocks(service) <= garbage_before
            assert garbage_blocks(service) == 0
            assert device_blocks(service) <= device_before
            if garbage_before:
                assert freed > 0, (
                    f"pass {passes}: {garbage_before} garbage blocks but "
                    "reclaim freed nothing"
                )
        assert passes >= 3
        stats = service.stats
        assert stats.reclaims > 0
        assert stats.reclaimed_blocks > 0
        assert (
            service.overlay.storage.reclaimed_blocks
            + service.ingestor.storage.reclaimed_blocks
            == stats.reclaimed_blocks
        )
        service.close()

    def test_policy_gc_fires_and_keeps_ratio_bounded(self, tmp_path, dataset):
        """The gc_trigger_ratio knob: merges keep the garbage ratio at or
        under the trigger without any explicit reclaim() calls."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.35)
        service.drain(DatasetReplaySource(dataset, batch_ticks=6))
        assert service.num_reclaims > 0, "policy GC never fired"
        assert service.reclaimed_blocks > 0
        # The post-merge trigger bounds the steady-state ratio: right after
        # the last merge's check the device can hold at most the trigger's
        # worth of garbage plus whatever the tail batches added since.
        service.flush()
        for system in (service.overlay.storage, service.ingestor.storage):
            assert system.garbage_ratio < 0.5, (
                f"{system.name}: garbage ratio {system.garbage_ratio:.2f} "
                "despite policy GC"
            )
        service.close()


    def test_a_policy_pass_on_the_grid_alone_copies_no_journal(self, tmp_path, dataset):
        """A policy pass due on the ingestor device alone checkpoints it
        first, so the copy holds the checkpoint and no journal extent that
        the next flush's WAL truncation would drop again."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.35)
        grid_only = []
        real_reclaim = service.reclaim

        def reclaim(trigger=0.0):
            overlay_due = service.overlay.storage.garbage_ratio >= trigger
            freed = real_reclaim(trigger)
            if not overlay_due:
                grid_only.append(
                    (service.ingestor.journal_blocks, service.ingestor.storage.garbage_blocks)
                )
            return freed

        service.reclaim = reclaim
        service.drain(DatasetReplaySource(dataset, batch_ticks=6))
        assert grid_only, "no policy pass copied the grid alone"
        assert grid_only == [(0, 0)] * len(grid_only)
        service.close()

    def test_policy_gc_copies_only_the_device_past_its_trigger(
        self, tmp_path, dataset
    ):
        """A policy pass copies each device whose garbage ratio reached the
        trigger and leaves the other one alone; an explicit reclaim() still
        copies both."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.35)
        devices = {
            "overlay": service.overlay.storage,
            "ingestor": service.ingestor.storage,
        }
        passes = []
        real_reclaim = service.reclaim

        def reclaim(trigger=0.0):
            due = {name for name, system in devices.items() if system.garbage_ratio >= trigger}
            passes.append((due, set()))
            return real_reclaim(trigger)

        service.reclaim = reclaim
        for name, system in devices.items():

            def copy(real=system.reclaim, name=name):
                passes[-1][1].add(name)
                return real()

            system.reclaim = copy
        for index, batch in enumerate(DatasetReplaySource(dataset, batch_ticks=3).batches()):
            service.ingest(batch)
            if index % 4 == 3:
                service.flush()  # truncated WAL extents: ingestor garbage
        assert passes, "policy GC never fired"
        for due, copied in passes:
            assert copied == due
        assert any(copied == {"ingestor"} for _, copied in passes)
        assert any("overlay" in copied for _, copied in passes)
        service.reclaim()
        assert passes[-1][1] == set(devices)
        service.close()


# ----------------------------------------------------------------------
# WAL truncation: the journal must not grow with the stream
# ----------------------------------------------------------------------
class TestJournalBound:
    def test_journal_bounded_across_fifty_flushes(self, tmp_path):
        """Fifty ingest+flush cycles: the WAL footprint after every flush is
        zero (truncation dropped the journaled prefix), and peak journal
        size between flushes is bounded by one batch — not by the stream."""
        dataset = RandomWaypointGenerator(
            num_objects=8, horizon=50, environment_size=(300.0, 300.0), seed=9
        ).generate()
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config, max_delta_contacts=10_000
        )
        service.auto_merge = False
        batches = list(DatasetReplaySource(dataset, batch_ticks=1).batches())
        assert len(batches) >= 50
        peak_between_flushes = 0
        for batch in batches[:50]:
            service.ingest(batch)
            peak_between_flushes = max(
                peak_between_flushes, service.ingestor.journal_blocks
            )
            service.flush()
            assert service.ingestor.journal_blocks == 0, (
                "flush must truncate the WAL"
            )
        # One batch journals one extent: the unflushed peak is a handful of
        # blocks, never the 50-batch stream.
        assert peak_between_flushes <= 4
        service.close()

    def test_checkpoint_carries_only_what_is_unfrozen(self, tmp_path):
        """Counts, not clocks: the checkpoint holds no sample of a joined tick
        and no contact a committed snapshot holds.

        At every flush of a fifty-flush stream the checkpoint carries no
        position history and at most a batch of pending samples per object,
        and its closed contacts are at most those closed after the merge
        whose manifest the previous flush committed (a plain ingestor fed
        the same batches counts them).  A restore builds a ``Point`` only per pending
        sample, and a resumed service with a graph never captures the
        prefix's domain to merge.
        """
        dataset = RandomWaypointGenerator(
            num_objects=8, horizon=60, environment_size=(300.0, 300.0), seed=9
        ).generate()
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=4)
        reference = StreamIngestor(
            dataset.environment_size, contact_config=CONTACTS, grid_config=GRID
        )
        batch_ticks = 1
        bound = dataset.num_objects * batch_ticks
        batches = list(DatasetReplaySource(dataset, batch_ticks=batch_ticks).batches())
        committed = None
        released = False
        for batch in batches[:50]:
            service.ingest(batch)
            reference.ingest(batch)
            service.flush()
            state = checkpoint_state(service.ingestor)
            assert "positions" not in state and "memtable" not in state
            assert pending_samples(state) <= bound
            assert len(state["closed"]) <= closed_past(
                reference.closed_contacts, committed
            )
            assert state["closed_floor"] + len(state["closed"]) == (
                reference.num_closed_contacts
            )
            released = released or state["closed_floor"] > 0
            committed = service.overlay.snapshot_watermark
        assert released, "no flush released a frozen contact"
        service.close()

        with pytest.MonkeyPatch.context() as patch:
            counter = CallCounter(patch, (Point, "__init__"))
            restored = StreamIngestor.restore(storage_config, service.name)
        pending = pending_samples(checkpoint_state(restored))
        restored.storage.release()
        assert counter.calls["Point.__init__"] <= pending

        with pytest.MonkeyPatch.context() as patch:
            counter = CallCounter(patch, (StreamIngestor, "prefix_domain"))
            resumed = StreamingReachabilityService.open(
                storage_config,
                name=service.name,
                streaming_config=StreamingConfig(max_delta_contacts=24),
            )
            merges = resumed.num_merges
            for batch in batches[50:]:
                resumed.ingest(batch)
                reference.ingest(batch)
            resumed.merge()
            assert resumed.num_merges > merges
            assert counter.calls["StreamIngestor.prefix_domain"] == 0
        assert resumed.ingestor.num_closed_contacts == reference.num_closed_contacts
        resumed.close()

    def test_truncated_journal_blocks_are_reclaimable(self, tmp_path, dataset):
        """The dropped WAL extents land in the garbage ledger and a device
        reclaim recycles them: the ingest device shrinks back."""
        storage_config = backend_storage_config("mmap", storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config, gc_trigger_ratio=0.0, max_delta_contacts=10_000
        )
        service.auto_merge = False
        for batch in DatasetReplaySource(dataset, batch_ticks=6).batches():
            service.ingest(batch)
        service.flush()
        ingest = service.ingestor.storage
        assert ingest.garbage_blocks > 0, (
            "truncation must leave the journaled prefix as reclaimable garbage"
        )
        before = ingest.disk.num_blocks
        service.reclaim()
        assert ingest.garbage_blocks == 0
        assert ingest.disk.num_blocks < before
        service.close()


# ----------------------------------------------------------------------
# the writer's footprint does not grow with the stream
# ----------------------------------------------------------------------
class TestWriterStaysFlat:
    """One world drained at 1x, 2x and 4x stream length, flushing every few
    batches: what each flush writes to the ingestor device — the manifest
    bytes and the checkpoint's closed contacts — stays flat, and the device
    holds journal blocks only.  The graph half: the vertex rows the writer
    holds and the records it writes per merge stay flat too, the ``DN_1``
    successor tuples being the one structure that grows with the stream, and
    no writer — draining or resumed — materialises the whole graph."""

    LENGTHS = (40, 80, 160)
    GRAPH_LENGTHS = (100, 200, 400)

    @pytest.fixture(scope="class")
    def world(self):
        return RandomWaypointGenerator(
            num_objects=16, horizon=max(self.LENGTHS), environment_size=(400.0, 400.0), seed=13
        ).generate()

    def _drain(self, world, ticks, storage_dir):
        storage_config = backend_storage_config("file", storage_dir=storage_dir)
        service = make_service(world.restricted(ticks), storage_config)
        ingestor = service.ingestor
        manifest = ingestor.storage.path + ".manifest"
        manifest_bytes, closed = [], []
        for index, batch in enumerate(
            DatasetReplaySource(world.restricted(ticks), batch_ticks=4).batches()
        ):
            service.ingest(batch)
            files = ingestor.storage.blockfile_names()
            assert files == [f"{service.name}-journal"], files
            assert ingestor.storage.live_blocks == ingestor.journal_blocks
            if index % 3 == 2:
                service.flush()
                manifest_bytes.append(os.path.getsize(manifest))
                closed.append(len(checkpoint_state(ingestor)["closed"]))
        total = ingestor.num_closed_contacts
        service.close()
        return max(manifest_bytes), max(closed), total

    def test_flush_footprint_is_flat_in_stream_length(self, world, tmp_path):
        runs = {
            ticks: self._drain(world, ticks, str(tmp_path / f"x{ticks}"))
            for ticks in self.LENGTHS
        }
        short, longest = runs[self.LENGTHS[0]], runs[self.LENGTHS[-1]]
        # The stream itself grows: four times the ticks close far more contacts.
        assert longest[2] >= 3 * short[2]
        # What a flush writes does not: its peak over the 4x stream stays
        # within the short stream's plus half.
        assert longest[0] <= 1.5 * short[0], runs
        assert longest[1] <= 1.5 * short[1], runs

    @pytest.fixture(scope="class")
    def graph_world(self):
        return RandomWaypointGenerator(
            num_objects=24,
            horizon=max(self.GRAPH_LENGTHS),
            environment_size=(400.0, 400.0),
            seed=13,
        ).generate()

    @staticmethod
    def _held_rows(service):
        working = service.overlay.snapshot_processor.index._working
        return sum(len(rows) for rows in working.rows.values())

    def _drain_graph(self, world, ticks, repack):
        stream = world.restricted(ticks)
        service = make_service(
            stream, None, max_delta_contacts=8, graph_repack_min_partitions=repack
        )
        held, merges = [], 0
        for batch in DatasetReplaySource(stream, batch_ticks=4).batches():
            service.ingest(batch)
            if service.num_merges != merges:
                merges = service.num_merges
                held.append(self._held_rows(service))
        index = service.overlay.snapshot_processor.index
        successors = index._working.successors
        assert len(successors) == index.num_vertices
        size = sys.getsizeof(successors) + sum(map(sys.getsizeof, successors))
        return max(held), index.num_vertices, size, index.records_written / merges

    @pytest.mark.parametrize("repack", (0, 2))
    def test_graph_rows_held_are_flat_in_stream_length(
        self, graph_world, repack, monkeypatch
    ):
        materialised = CallCounter(
            monkeypatch,
            (ReachGraphIndex, "_materialize_graph"),
            (ContactDag, "add_node"),
        )
        runs = {
            ticks: self._drain_graph(graph_world, ticks, repack)
            for ticks in self.GRAPH_LENGTHS
        }
        short, longest = runs[self.GRAPH_LENGTHS[0]], runs[self.GRAPH_LENGTHS[-1]]
        # The graph grows with the stream, and so do its successor tuples...
        assert longest[1] >= 3 * short[1], runs
        assert longest[2] >= 3 * short[2], runs
        # ...but the rows a merge holds stay within the short stream's plus half,
        assert longest[0] <= 1.5 * short[0], runs
        assert longest[0] < longest[1] / 4, runs
        # and so do the records a merge writes, repacks included (mean per
        # merge at 100 / 200 / 400 ticks: 92 / 108 / 113 with repack off,
        # 107 / 127 / 139 with it).
        for ticks in self.GRAPH_LENGTHS[1:]:
            assert runs[ticks][3] <= 1.5 * short[3], runs
        assert materialised.calls == dict.fromkeys(materialised.calls, 0)

    def test_a_resumed_writer_materialises_nothing(self, graph_world, tmp_path, monkeypatch):
        stream = graph_world.restricted(self.GRAPH_LENGTHS[0])
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(stream, storage_config, max_delta_contacts=8)
        batches = list(DatasetReplaySource(stream, batch_ticks=4).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            service.ingest(batch)
        service.close()
        materialised = CallCounter(
            monkeypatch,
            (ReachGraphIndex, "_materialize_graph"),
            (ReachGraphIndex, "_read_graph_records"),
            (ContactDag, "add_node"),
        )
        extent_reads = []
        read_extent = BlockFile.read_extent

        def counted(blockfile, key):
            if blockfile.name.endswith("-partitions"):
                extent_reads.append(key)
            return read_extent(blockfile, key)

        monkeypatch.setattr(BlockFile, "read_extent", counted)
        resumed = StreamingReachabilityService.open(
            storage_config,
            name=service.name,
            streaming_config=service.streaming_config,
        )
        # The restore reads the directory and the extents of the partitions
        # the working set holds, nothing else; the merges read none again.
        index = resumed.overlay.snapshot_processor.index
        assert sorted(extent_reads) == sorted(index._working.rows)
        assert len(extent_reads) < index.num_partitions
        assert materialised.calls["ReachGraphIndex._read_graph_records"] == 0
        merges = resumed.num_merges
        for batch in batches[half:]:
            resumed.ingest(batch)
        assert resumed.num_merges > merges
        assert self._held_rows(resumed) < resumed.overlay.snapshot_processor.index.num_vertices
        assert materialised.calls == {
            "ReachGraphIndex._materialize_graph": 0,
            "ReachGraphIndex._read_graph_records": 0,
            "ContactDag.add_node": 0,
        }
        resumed.close()
