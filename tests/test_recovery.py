"""Crash-consistency suite: ``kill -9`` anywhere must be recoverable.

Every test follows the same shape: drive a service over a persistent backend,
raise a :class:`~repro.testing.faults.SimulatedCrash` at a named fault point
compiled into the production code, drop the storage devices the way the
kernel would on SIGKILL (:func:`~repro.testing.faults.simulate_kill` — no
final flush), and then reopen from whatever earlier explicit flushes made
durable.  The recovered service must answer bit-identically to the batch
reference evaluator over the prefix its manifest committed — and the
full-resume path must keep ingesting from there.
"""

from __future__ import annotations

import os
import random
import re

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
from repro.core import (
    ContactConfig,
    IndexConstructionError,
    ReachGraphConfig,
    ReachGridConfig,
    StreamingConfig,
    StreamingError,
)
from repro.generators import RandomWaypointGenerator
from repro.reachgraph import ReachGraphIndex
from repro.storage import StorageSystem
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamIngestor,
    StreamingReachabilityService,
)
from repro.streaming.ingest import DEVICE_FORMAT, check_device_format
from repro.testing import faults
from repro.testing.faults import SimulatedCrash, simulate_kill
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=5
    ).generate()


def make_service(dataset, storage_config, auto_merge=True, **config_overrides):
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**config_overrides),
        storage_config=storage_config,
    )


def kill_service(service):
    simulate_kill(service.overlay.storage, service.ingestor.storage)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


# ----------------------------------------------------------------------
# the fault-point registry itself
# ----------------------------------------------------------------------
class TestFaultRegistry:
    def test_unknown_point_is_rejected(self):
        with pytest.raises(ValueError):
            faults.arm("no-such-point")
        with pytest.raises(ValueError):
            faults.arm("flush-post-manifest", after=-1)

    def test_disarmed_probe_is_a_noop(self):
        faults.crash_point("flush-post-manifest")  # nothing armed: no raise

    def test_armed_probe_fires_once_then_disarms(self):
        faults.arm("merge-pre-adopt")
        assert "merge-pre-adopt" in faults.armed()
        with pytest.raises(SimulatedCrash) as exc:
            faults.crash_point("merge-pre-adopt")
        assert exc.value.point == "merge-pre-adopt"
        assert faults.armed() == ()
        faults.crash_point("merge-pre-adopt")  # fired probes disarm themselves

    def test_after_counts_down_hits(self):
        faults.arm("compaction-mid", after=2)
        faults.crash_point("compaction-mid")
        faults.crash_point("compaction-mid")
        with pytest.raises(SimulatedCrash):
            faults.crash_point("compaction-mid")

    def test_simulated_crash_escapes_ordinary_cleanup(self):
        # Production code cleans up with ``except Exception``; a simulated
        # kill must not be swallowed by handlers a real SIGKILL never runs.
        assert not issubclass(SimulatedCrash, Exception)

    def test_every_known_point_is_compiled_into_production_code(self):
        # Every module of the package is scanned, so deleting a module can
        # never silently drop a point's only probe site.
        from pathlib import Path

        import repro

        package = Path(repro.__file__).parent
        source = "".join(
            path.read_text(encoding="utf-8") for path in sorted(package.rglob("*.py"))
        )
        for point in faults.KNOWN_FAULT_POINTS:
            assert f'crash_point("{point}")' in source, point


# ----------------------------------------------------------------------
# the flush commit point (satellite: manifest-last ordering)
# ----------------------------------------------------------------------
class TestFlushCommitPoint:
    @pytest.mark.parametrize("point", ("flush-post-ingestor", "flush-post-manifest"))
    def test_crash_between_flush_halves_leaves_wal_ahead_never_behind(
        self, point, tmp_path, dataset
    ):
        """The manifest write is the commit point: its dependent (the ingestor
        WAL and checkpoint) flushes first, so a crash anywhere inside flush()
        leaves the WAL at or past the manifest — the read-only reopen serves
        the last committed manifest, the full resume recovers the WAL tail."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=10_000)
        batches = list(DatasetReplaySource(dataset, batch_ticks=12).batches())
        for batch in batches[:3]:
            service.ingest(batch)
        service.flush()
        committed = service.watermark
        for batch in batches[3:]:
            service.ingest(batch)
        wal_watermark = service.watermark
        faults.arm(point)
        with pytest.raises(SimulatedCrash):
            service.flush()
        kill_service(service)

        readonly = SnapshotQueryService.open(storage_config, name=service.name)
        assert readonly.watermark == committed, (
            f"{point}: manifest must still be the pre-crash commit point"
        )
        assert_reopened_matches_prefix(
            readonly,
            dataset,
            THRESHOLD,
            random_queries(dataset, count=15, seed=7),
            context=f"{point}, read-only reopen",
        )
        readonly.close()

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        # Both points sit after ingestor.flush(), so the WAL is durable to the
        # full ingested watermark even though the manifest is not.
        assert resumed.watermark == wal_watermark
        assert_methods_agree(
            reference_evaluator(
                prefix_network(dataset, THRESHOLD, through=resumed.watermark)
            ),
            {"resumed": resumed.query},
            random_queries(dataset, count=15, seed=7),
            check_earliest=True,
            require_earliest=True,
            context=f"{point}, full resume",
        )
        resumed.close()


    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_merge_between_flushes_then_kill_after_the_ingestor_half(
        self, backend, tmp_path, dataset
    ):
        """The checkpoint keeps the closed contacts the *committed* snapshot
        lacks.  A merge between two flushes freezes contacts that only the
        second flush's manifest would hold; killed after that flush's
        ingestor half, the device reopens the first manifest, and the
        checkpoint just written must still carry every contact past it."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=10_000)
        service.auto_merge = False
        unkilled = StreamIngestor(
            dataset.environment_size, contact_config=CONTACTS, grid_config=GRID
        )
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())

        def ingest(chunk):
            for batch in chunk:
                service.ingest(batch)
                unkilled.ingest(batch)

        ingest(batches[:3])
        service.merge()
        service.flush()
        committed = service.overlay.snapshot_watermark
        ingest(batches[3:6])
        service.merge()
        ingest(batches[6:7])
        faults.arm("flush-post-ingestor")
        with pytest.raises(SimulatedCrash):
            service.flush()
        kill_service(service)

        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, auto_merge=False
        )
        assert resumed.overlay.snapshot_watermark == committed
        assert resumed.watermark == batches[6].watermark
        assert 0 < resumed.ingestor.closed_floor, "the second flush released nothing"
        assert resumed.ingestor.num_closed_contacts == unkilled.num_closed_contacts
        workload = random_queries(dataset, count=15, seed=17)
        for chunk in (batches[7:8], batches[8:]):
            for batch in chunk:
                resumed.ingest(batch)
                unkilled.ingest(batch)
            resumed.merge()
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(dataset, THRESHOLD, through=resumed.watermark)
                ),
                {"resumed": resumed.query},
                workload,
                check_earliest=True,
                context=f"{backend}, resumed at watermark {resumed.watermark}",
            )
        assert resumed.watermark == dataset.horizon.end
        assert resumed.ingestor.num_closed_contacts == unkilled.num_closed_contacts
        resumed.close()


# ----------------------------------------------------------------------
# crashes inside a merge (pre-adopt) and inside a compaction
# ----------------------------------------------------------------------
class TestCrashDuringMerge:
    def test_crash_between_build_and_adopt_then_resume_ingesting(
        self, tmp_path, dataset
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config, max_delta_contacts=10_000
        )
        service.auto_merge = False
        batches = list(DatasetReplaySource(dataset, batch_ticks=12).batches())
        for batch in batches[:3]:
            service.ingest(batch)
            service.flush()
        faults.arm("merge-pre-adopt")
        with pytest.raises(SimulatedCrash):
            service.merge()
        kill_service(service)

        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, auto_merge=False
        )
        assert resumed.watermark == batches[2].watermark
        assert resumed.overlay.snapshot_watermark is None, (
            "the crashed merge must not have adopted anything"
        )
        workload = random_queries(dataset, count=12, seed=11)
        for batch in batches[3:]:
            resumed.ingest(batch)
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(dataset, THRESHOLD, through=resumed.watermark)
                ),
                {"resumed": resumed.query},
                workload,
                check_earliest=True,
                require_earliest=True,
                context=f"post-crash ingest, watermark={resumed.watermark}",
            )
        resumed.merge()  # the disarmed merge path works again after recovery
        assert resumed.overlay.snapshot_watermark == dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            workload,
            check_earliest=True,
            context="post-recovery merge",
        )
        resumed.close()

    def test_crash_between_build_and_adopt_leaves_the_live_service_consistent(
        self, dataset
    ):
        # The pre-adopt probe fires after the build and before anything was
        # adopted, so the service that survives the crash loses no answers
        # and its next merge goes through.
        service = make_service(dataset, None, max_delta_contacts=10_000)
        workload = random_queries(dataset, count=10, seed=9)
        service.drain(dataset)
        before = service.num_merges
        faults.arm("merge-pre-adopt")
        with pytest.raises(SimulatedCrash):
            service.merge()
        assert service.num_merges == before, "nothing adopted"
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"streaming": service.query},
            workload,
            context="after aborted merge",
        )
        service.merge()  # disarmed: the merge path works again
        assert service.num_merges == before + 1
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"streaming": service.query},
            workload,
            check_earliest=True,
            context="after recovered merge",
        )
        service.close()

    def test_crash_mid_compaction_recovers_committed_state(self, tmp_path, dataset):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(
            dataset,
            storage_config,
            max_delta_contacts=10_000,
            compaction_max_runs=1,
        )
        service.auto_merge = False
        batches = list(DatasetReplaySource(dataset, batch_ticks=12).batches())
        service.ingest(batches[0])
        service.merge()  # run 1 (no compaction: 1 run <= max_runs)
        service.ingest(batches[1])
        service.flush()
        committed = service.watermark
        faults.arm("compaction-mid")
        with pytest.raises(SimulatedCrash):
            service.merge()  # run 2 appended, compaction rewrites... crash
        kill_service(service)

        readonly = SnapshotQueryService.open(storage_config, name=service.name)
        assert readonly.watermark == committed
        assert_reopened_matches_prefix(
            readonly,
            dataset,
            THRESHOLD,
            random_queries(dataset, count=15, seed=13),
            context="mid-compaction crash, read-only reopen",
        )
        readonly.close()

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        for batch in batches[2:]:
            resumed.ingest(batch)
        resumed.merge()
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=15, seed=13),
            check_earliest=True,
            context="mid-compaction crash, resumed to horizon",
        )
        resumed.close()


# ----------------------------------------------------------------------
# corrupt / missing manifests must not leak handles or files (satellite)
# ----------------------------------------------------------------------
class TestCorruptManifestRestore:
    def test_missing_overlay_metadata_closes_the_probed_device(
        self, tmp_path, dataset
    ):
        """A device file whose manifest never recorded an overlay (e.g. a
        foreign storage system of the same name) must fail the reopen *and*
        release the probed device handle."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        ghost = StorageSystem(storage_config, name="ghost-overlay", attach=False)
        ghost.flush()
        ghost.close()
        files_before = sorted(p.name for p in tmp_path.iterdir())
        fds_before = open_fds()
        with pytest.raises(StreamingError):
            SnapshotQueryService.open(storage_config, name="ghost")
        assert open_fds() == fds_before, "reopen failure leaked a device handle"
        assert sorted(p.name for p in tmp_path.iterdir()) == files_before, (
            "reopen failure scattered junk files into the storage directory"
        )

    def test_garbage_manifest_contents_close_the_device_on_failure(
        self, tmp_path, dataset
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        broken = StorageSystem(storage_config, name="broken-overlay", attach=False)
        # Stamped, so past the format gate, but keys are missing.
        broken.put_metadata("overlay-manifest", {"format": 3, "watermark": 3})
        broken.flush()
        broken.close()
        files_before = sorted(p.name for p in tmp_path.iterdir())
        fds_before = open_fds()
        with pytest.raises(KeyError):
            SnapshotQueryService.open(storage_config, name="broken")
        assert open_fds() == fds_before, "reopen failure leaked a device handle"
        assert sorted(p.name for p in tmp_path.iterdir()) == files_before


# ----------------------------------------------------------------------
# a device in another format is refused before any read (one format: 3)
# ----------------------------------------------------------------------
def unstamp(record):
    del record["format"]


def stamp_two(record):
    record["format"] = 2


def stamp_four(record):
    record["format"] = 4


def drop_graph(record):
    record["graph"] = None


def drop_store(record):
    record["store"] = None


#: ``(case, device, metadata key, edit, refusal)``: what another version
#: could have left on a device, and the refusal naming found and expected.
EARLIER_DEVICES = [
    (
        "manifest-unstamped",
        "overlay",
        "overlay-manifest",
        unstamp,
        "^the overlay manifest of {name} is in on-device format None, expected format 3",
    ),
    (
        "manifest-format-2",
        "overlay",
        "overlay-manifest",
        stamp_two,
        "^the overlay manifest of {name} is in on-device format 2, expected format 3",
    ),
    (
        "checkpoint-unstamped",
        "grid",
        "ingest-checkpoint",
        unstamp,
        "^the ingest checkpoint of {name} is in on-device format None, expected format 3",
    ),
    (
        "store-without-graph",
        "overlay",
        "overlay-manifest",
        drop_graph,
        "^the overlay manifest of {name} names one of a snapshot store and a "
        "graph: format 3 names both or neither$",
    ),
    (
        "manifest-format-4",
        "overlay",
        "overlay-manifest",
        stamp_four,
        "^the overlay manifest of {name} is in on-device format 4, expected format 3",
    ),
    (
        "checkpoint-format-2",
        "grid",
        "ingest-checkpoint",
        stamp_two,
        "^the ingest checkpoint of {name} is in on-device format 2, expected format 3",
    ),
    (
        "graph-without-store",
        "overlay",
        "overlay-manifest",
        drop_store,
        "^the overlay manifest of {name} names one of a snapshot store and a "
        "graph: format 3 names both or neither$",
    ),
]


class TestFormatGate:
    """Format 3 is the one on-device shape: each device's top metadata
    record carries the stamp, and an open refuses a device without it (or
    with another, or with a manifest naming only one of a store and a graph)
    before reading a block of it, naming the format it found and the one it
    expects, and leaves no handle open and no file behind."""

    def test_both_devices_are_stamped(self, tmp_path, dataset):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config)
        service.drain(dataset)
        service.close()
        for device, key in (("overlay", "overlay-manifest"), ("grid", "ingest-checkpoint")):
            storage = StorageSystem(storage_config, name=f"{service.name}-{device}")
            assert storage.get_metadata(key)["format"] == 3
            storage.release()

    def test_the_check_passes_the_one_stamp(self):
        assert DEVICE_FORMAT == 3
        check_device_format({"format": DEVICE_FORMAT, "watermark": 3}, "the manifest")

    @pytest.mark.parametrize("found", [None, 1, 2, 4, "3"])
    def test_the_check_names_the_stamp_it_found_and_the_one_expected(self, found):
        """A missing stamp reads as ``None``; the check compares exactly, so
        neither another number nor the right one as text passes."""
        record = {"watermark": 3} if found is None else {"format": found, "watermark": 3}
        with pytest.raises(
            StreamingError,
            match=(
                f"^the manifest is in on-device format {re.escape(repr(found))}, "
                "expected format 3: it was written by another version; rebuild "
                "it from the source stream$"
            ),
        ):
            check_device_format(record, "the manifest")

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize(
        "reopen, device, key, edit, refusal",
        [
            pytest.param(reopen, *earlier, id=f"{mode}-{case}")
            for case, *earlier in EARLIER_DEVICES
            for mode, reopen in (
                ("read-only", SnapshotQueryService.open),
                ("resume", StreamingReachabilityService.open),
            )
            # A read-only open never opens the grid device.
            if mode == "resume" or earlier[0] == "overlay"
        ],
    )
    def test_an_earlier_device_is_refused_before_any_read(
        self, reopen, device, key, edit, refusal, backend, tmp_path, dataset, monkeypatch
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=24)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[:-1]:
            service.ingest(batch)
        assert service.overlay.has_reachgraph
        service.flush()
        # Commit one journal extent past the checkpoint: resuming this
        # device replays it, a grid read the refusal must come before.
        service.ingest(batches[-1])
        service.ingestor.storage.flush()
        kill_service(service)
        refused = StorageSystem(storage_config, name=f"{service.name}-{device}")
        record = refused.get_metadata(key)
        edit(record)
        refused.put_metadata(key, record)
        refused.close()

        reads = {}
        release = StorageSystem.release

        def counted_release(storage):
            reads.setdefault(storage.name, storage.stats.total_reads)
            release(storage)

        monkeypatch.setattr(StorageSystem, "release", counted_release)
        files_before = sorted(p.name for p in tmp_path.iterdir())
        fds_before = open_fds()
        refusal = refusal.format(name=re.escape(repr(service.name)))
        with pytest.raises(StreamingError, match=refusal):
            reopen(storage_config, name=service.name)
        assert reads[f"{service.name}-{device}"] == 0, "the refused device was read"
        assert open_fds() == fds_before, "reopen failure leaked a device handle"
        assert sorted(p.name for p in tmp_path.iterdir()) == files_before


# ----------------------------------------------------------------------
# the restored ReachGraph fast path (tentpole: graph answers, not union)
# ----------------------------------------------------------------------
class TestGraphPathRestore:
    def test_reopened_service_answers_through_a_restored_graph(
        self, tmp_path, dataset
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=10_000)
        service.auto_merge = False
        service.drain(dataset)
        service.merge()
        assert service.overlay.has_reachgraph
        service.close()

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.overlay.has_reachgraph, (
            "the reopened service must answer through the graph path, "
            "not just the union path"
        )
        assert_reopened_matches_prefix(
            reopened,
            dataset,
            THRESHOLD,
            random_queries(dataset, count=25, seed=17),
            context="graph-path reopen",
        )
        reopened.close()

    def test_restored_graph_is_structurally_identical_to_a_fresh_build(
        self, tmp_path, dataset
    ):
        """Partition by partition, vertex record by vertex record — interval,
        members, DAG edges, long-edge layers, partition assignment — the
        restored index equals the index a from-scratch build produces over
        the same prefix."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=10_000)
        service.auto_merge = False
        service.drain(dataset)
        service.merge()
        service.close()

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        restored = reopened.overlay.snapshot_processor.index

        network = prefix_network(dataset, THRESHOLD)
        fresh = ReachGraphIndex(
            dataset,
            ReachGraphConfig(),
            contact_config=CONTACTS,
            contact_network=network,
        ).build()

        assert restored.num_partitions == fresh.num_partitions
        assert restored.num_vertices == fresh.num_vertices
        for partition_id in range(fresh.num_partitions):
            restored_records = sorted(
                restored.read_partition(partition_id), key=lambda r: r[0]
            )
            fresh_records = sorted(fresh.read_partition(partition_id), key=lambda r: r[0])
            assert restored_records == fresh_records, (
                f"partition {partition_id} diverged after restore"
            )
        assert restored.catalog()["window_cursors"] == (
            fresh.catalog()["window_cursors"]
        )
        reopened.close()


# ----------------------------------------------------------------------
# serving from the overlay device alone (ISSUE 24): counts, not clocks
# ----------------------------------------------------------------------
def maintenance_and_writer_calls(monkeypatch):
    """Everything a read-only reopen must never call."""
    from repro.contacts.network import ContactNetwork
    from repro.reachgraph import ContactDag, LongEdgeLayer
    from repro.streaming import StreamIngestor

    return CallCounter(
        monkeypatch,
        (ContactDag, "add_node"),
        (ContactDag, "add_edge"),
        (LongEdgeLayer, "add_edge"),
        (ContactNetwork, "__init__"),
        (StreamIngestor, "restore"),
    )


class TestOverlayOnlyReopen:
    def _closed_service(self, dataset, storage_config, **overrides):
        """A multi-merge incremental stream with a repack, drained and closed."""
        service = make_service(
            dataset,
            storage_config,
            max_delta_contacts=8,
            graph_repack_min_partitions=2,
            **overrides,
        )
        service.drain(dataset)
        index = service.overlay.snapshot_processor.index
        assert index.num_increments >= 3 and index.num_repacks >= 1
        service.close()
        return service

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_read_only_open_needs_no_grid_device(
        self, backend, tmp_path, dataset, monkeypatch
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = self._closed_service(dataset, storage_config)
        grid_files = [p for p in tmp_path.iterdir() if f"{service.name}-grid" in p.name]
        assert grid_files, "the closed service left a grid device to delete"
        for path in grid_files:
            path.unlink()

        from repro.storage.backends.file import FileBackend
        from repro.storage.backends.mmapfile import MmapBackend

        calls = maintenance_and_writer_calls(monkeypatch)
        loads = []
        for backend_class in (FileBackend, MmapBackend):
            real_load = backend_class._load

            def counting_load(device, block_id, real_load=real_load):
                loads.append(block_id)
                return real_load(device, block_id)

            monkeypatch.setattr(backend_class, "_load", counting_load)

        files_before = sorted(p.name for p in tmp_path.iterdir())
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.overlay.has_reachgraph, "the graph path needs no grid device"
        assert len(loads) == len(set(loads)), "a block was decoded twice by the open"
        assert len(loads) <= reopened.storage.live_blocks
        index = reopened.overlay.snapshot_processor.index
        assert index._hypergraph is None, "a read-only open built the maintenance graph"
        assert index._working is None, "a read-only open kept a writer's working set"
        assert index.dataset is None and index.network is None
        assert index.domain.object_ids == tuple(dataset.object_ids)
        assert index.domain.horizon.start == dataset.horizon.start
        assert index.domain.horizon.end == reopened.overlay.snapshot_watermark

        queries = list(random_queries(dataset, count=25, seed=19))
        for query in queries:
            reopened.query(query)
        assert index._hypergraph is None, "a query built the maintenance graph"
        assert calls.calls == dict.fromkeys(calls.calls, 0)
        # (The reference evaluator builds a contact network of its own.)
        assert_reopened_matches_prefix(
            reopened,
            dataset,
            THRESHOLD,
            queries,
            context=f"overlay-only reopen on {backend}",
        )
        reopened.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == files_before

    def test_resuming_restores_the_ingestor_exactly_once(
        self, tmp_path, dataset, monkeypatch
    ):
        from repro.streaming import StreamIngestor

        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = self._closed_service(dataset, storage_config)
        calls = CallCounter(monkeypatch, (StreamIngestor, "restore"))
        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        assert calls.calls == {"StreamIngestor.restore": 1}
        assert resumed.overlay.snapshot_processor.index._hypergraph is None
        resumed.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_a_resumed_writer_merges_from_the_working_set_its_restore_kept(
        self, backend, tmp_path, dataset, monkeypatch
    ):
        """The resumed writer keeps its working set from the records its
        restore reads: its frontier equals a writer's that never closed, no
        merge materialises the graph or reads the extents again, and the
        merges grow it exactly as they grow the writer that never closed."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        batches = list(DatasetReplaySource(dataset, batch_ticks=8).batches())
        half = len(batches) // 2
        config = dict(max_delta_contacts=8, graph_repack_min_partitions=2)
        service = make_service(dataset, storage_config, **config)
        twin = make_service(dataset, None, **config)
        for batch in batches[:half]:
            service.ingest(batch)
            twin.ingest(batch)
        assert service.overlay.snapshot_processor.index.num_increments >= 1
        service.close()

        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, streaming_config=StreamingConfig(**config)
        )
        index = resumed.overlay.snapshot_processor.index
        assert index._hypergraph is None
        calls = maintenance_and_writer_calls(monkeypatch)
        graph_reads = CallCounter(monkeypatch, (ReachGraphIndex, "_read_graph_records"))
        assert resumed.overlay.graph_frontier() == twin.overlay.graph_frontier()
        for batch in batches[half:]:
            resumed.ingest(batch)
            twin.ingest(batch)
        resumed.merge()
        twin.merge()
        assert calls.calls == dict.fromkeys(calls.calls, 0)
        assert graph_reads.calls == {"ReachGraphIndex._read_graph_records": 0}
        mine = resumed.overlay.snapshot_processor.index
        theirs = twin.overlay.snapshot_processor.index
        assert mine is index, "the resumed index is patched in place"
        assert mine.num_increments > 1
        assert mine.catalog() == {**theirs.catalog(), "name": mine.name}
        assert mine.partitioning.members == theirs.partitioning.members
        def normalised(records):
            # A resumed writer holds predecessor lists in source-id order; a
            # writer that never closed keeps them in discovery order.
            return [(*r[:5], tuple(sorted(r[5])), r[6]) for r in records]

        for partition_id, members in enumerate(mine.partitioning.members):
            if members:
                assert normalised(mine.read_partition(partition_id)) == normalised(
                    theirs.read_partition(partition_id)
                )
        resumed.close()
        twin.close()


# ----------------------------------------------------------------------
# the kill matrix (acceptance: any point, any backend)
# ----------------------------------------------------------------------
KILL_POINTS = (
    "flush-post-ingestor",
    "flush-post-manifest",
    "merge-pre-adopt",
)


class TestRandomizedKill:
    """Seeded random crashes: pick a fault point and an arming batch, drive
    the stream with a flush after every batch, kill on the simulated crash,
    and prove the reopened service answers bit-identically to the batch
    reference over whatever prefix its manifest committed."""

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_unsharded_random_kill_then_reopen_and_resume(
        self, backend, seed, tmp_path, dataset
    ):
        rng = random.Random(seed)
        point = rng.choice(KILL_POINTS)
        kill_reopen_resume(
            dataset, backend, tmp_path, point, rng, seed, must_crash=False
        )

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_kill_at_every_point_then_reopen_and_resume(
        self, backend, point, tmp_path, dataset
    ):
        rng = random.Random(KILL_POINTS.index(point))
        kill_reopen_resume(dataset, backend, tmp_path, point, rng, 7, must_crash=True)


def kill_reopen_resume(dataset, backend, tmp_path, point, rng, seed, must_crash):
    """Arm ``point`` at a random batch of a flushed-every-batch stream, kill
    on the crash, then prove both the read-only reopen and the full resume
    match the batch reference."""
    storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
    service = make_service(dataset, storage_config, max_delta_contacts=16)
    batches = list(DatasetReplaySource(dataset, batch_ticks=8).batches())
    arm_at = rng.randrange(1, len(batches) - 1)
    crashed = False
    for index, batch in enumerate(batches):
        if index == arm_at:
            faults.arm(point)
        try:
            service.ingest(batch)
            service.flush()
        except SimulatedCrash:
            crashed = True
            break
    if crashed:
        kill_service(service)
    else:
        faults.clear()  # a late-armed merge point may never fire
        service.close()
    assert crashed or not must_crash, f"{point} armed at batch {arm_at} never fired"

    reopened = SnapshotQueryService.open(storage_config, name=service.name)
    assert reopened.watermark is not None
    assert_reopened_matches_prefix(
        reopened,
        dataset,
        THRESHOLD,
        random_queries(dataset, count=12, seed=41 + seed),
        context=f"kill: backend={backend}, seed={seed}, point={point}, "
        f"crashed={crashed}",
    )
    reopened.close()

    # ...and the full-resume path continues the stream to its horizon.
    resumed = StreamingReachabilityService.open(storage_config, name=service.name)
    recovered = resumed.watermark
    assert recovered is not None
    for batch in batches:
        if batch.watermark > recovered:
            resumed.ingest(batch)
    assert resumed.watermark == dataset.horizon.end
    assert_methods_agree(
        reference_evaluator(prefix_network(dataset, THRESHOLD)),
        {"resumed": resumed.query},
        random_queries(dataset, count=12, seed=43 + seed),
        check_earliest=True,
        context=f"kill resume: backend={backend}, seed={seed}, point={point}",
    )
    resumed.close()


# ----------------------------------------------------------------------
# the space-reclamation pipeline's crash points (GC, WAL truncation, repack)
# ----------------------------------------------------------------------
SPACE_POINTS = (
    "gc-pre-commit",
    "gc-post-copy",
    "wal-truncate-pre-commit",
    "repack-pre-adopt",
)


class TestSpaceReclamationKill:
    """The four reclamation crash points, each killed at a seeded random
    batch of a stream running the whole space pipeline — policy GC, leveled
    compaction, frontier repacks, WAL truncation.  A crash anywhere in a
    reclaim must be invisible after reopen: no resurrected garbage answers,
    no lost live extents, and the resumed service drives the stream to its
    horizon in agreement with the batch reference evaluator."""

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("point", SPACE_POINTS)
    def test_space_point_random_kill_then_reopen_and_resume(
        self, point, backend, tmp_path, dataset
    ):
        rng = random.Random(f"{point}:{backend}")  # str seeds are stable
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(
            dataset,
            storage_config,
            max_delta_contacts=16,
            compaction_max_runs=2,
            gc_trigger_ratio=0.3,
            graph_repack_min_partitions=2,
        )
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        # Arm early so reclaim/repack/truncate probes (which fire on merges
        # and flushes further into the stream) have room to trigger.
        arm_at = rng.randrange(1, max(2, len(batches) // 2))
        crashed = False
        for index, batch in enumerate(batches):
            if index == arm_at:
                faults.arm(point)
            try:
                service.ingest(batch)
                service.flush()
            except SimulatedCrash as crash:
                assert crash.point == point
                crashed = True
                break
        if crashed:
            kill_service(service)
        else:
            faults.clear()  # the armed point may legitimately never fire
            service.close()

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.watermark is not None
        assert_reopened_matches_prefix(
            reopened,
            dataset,
            THRESHOLD,
            random_queries(dataset, count=12, seed=61),
            context=f"space kill: backend={backend}, point={point}, "
            f"crashed={crashed}",
        )
        reopened.close()

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        recovered = resumed.watermark
        assert recovered is not None
        for batch in batches:
            if batch.watermark > recovered:
                resumed.ingest(batch)
        assert resumed.watermark == dataset.horizon.end
        # A final reclaim on the recovered service: the interrupted pass left
        # nothing behind that a fresh pass trips over, and the space bound
        # holds afterwards.
        resumed.reclaim()
        overlay = resumed.overlay.storage
        ingest = resumed.ingestor.storage
        assert overlay.garbage_blocks == 0
        assert ingest.garbage_blocks == 0
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=12, seed=67),
            check_earliest=True,
            context=f"space kill resume: backend={backend}, point={point}",
        )
        resumed.close()
        # No GC scratch file may survive a completed recovery + reclaim.
        import glob as _glob

        strays = _glob.glob(f"{tmp_path}/*.gc")
        assert not strays, f"leftover GC scratch files: {strays}"


class TestIngestorOnlyReclaim:
    """A reclaim pass that copies only the ``<name>-grid`` device takes no
    checkpoint of its own: the storage reclaim commits the catalog with the
    journal tail beside the previous checkpoint, and a resume replays that
    tail.  Killed inside the copy, on either side of its commit, the device
    reopens as the old image or the reclaimed one, and the resumed service
    answers as the reference does."""

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("point", ("gc-post-copy", "gc-pre-commit", None))
    def test_grid_only_pass_killed_then_resumed(
        self, backend, point, tmp_path, dataset, monkeypatch
    ):
        from repro.streaming import StreamIngestor

        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, max_delta_contacts=16)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            service.ingest(batch)
            service.flush()
        # One batch past the last flush: its journal extent is the WAL tail.
        service.ingest(batches[half])
        overlay, ingest = service.overlay.storage, service.ingestor.storage
        trigger = ingest.garbage_ratio
        assert overlay.garbage_ratio < trigger, "the pass must copy the grid device alone"
        checkpoint = ingest.get_metadata("ingest-checkpoint")
        checkpoints = CallCounter(monkeypatch, (StreamIngestor, "flush"))
        if point is None:
            assert service.reclaim(trigger) > 0
            assert ingest.garbage_blocks == 0
        else:
            faults.arm(point)
            with pytest.raises(SimulatedCrash):
                service.reclaim(trigger)
        assert checkpoints.calls == {"StreamIngestor.flush": 0}
        assert ingest.get_metadata("ingest-checkpoint") == checkpoint
        kill_service(service)

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        recovered = resumed.watermark
        if point is None:
            assert recovered == batches[half].watermark, "the reclaim committed the WAL tail"
        else:
            assert recovered in (batches[half - 1].watermark, batches[half].watermark)
        for batch in batches:
            if batch.watermark > recovered:
                resumed.ingest(batch)
        assert resumed.watermark == dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=12, seed=73),
            check_earliest=True,
            context=f"grid-only reclaim kill: backend={backend}, point={point}",
        )
        resumed.close()


class TestWalTruncation:
    """Regression tests for the flush-time WAL truncation commit."""

    def test_crash_between_checkpoint_and_commit_replays_old_journal(
        self, tmp_path, dataset
    ):
        """``wal-truncate-pre-commit`` sits after the in-memory truncation
        and checkpoint write but before the device flush that commits them:
        a kill there must leave the *previous* durable manifest — old
        checkpoint, old journal extents — and resume must replay it."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config, max_delta_contacts=10_000
        )
        service.auto_merge = False
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[:3]:
            service.ingest(batch)
            service.flush()
        committed = service.watermark
        service.ingest(batches[3])
        faults.arm("wal-truncate-pre-commit")
        with pytest.raises(SimulatedCrash):
            service.flush()
        kill_service(service)

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        assert resumed.watermark == committed, (
            "the interrupted truncation must not have committed batch 4"
        )
        for batch in batches[3:]:
            resumed.ingest(batch)
        assert resumed.watermark == dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=12, seed=71),
            check_earliest=True,
            require_earliest=True,
            context="WAL truncation crash, resumed to horizon",
        )
        resumed.close()

    def test_reopened_journal_stays_truncated(self, tmp_path, dataset):
        """A clean close/reopen cycle restores from the state snapshot with
        an empty WAL, and further flushes keep it empty — truncation
        survives restarts instead of regressing to full-journal replay."""
        storage_config = backend_storage_config("mmap", storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config, max_delta_contacts=10_000
        )
        service.auto_merge = False
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[:4]:
            service.ingest(batch)
        service.close()

        resumed = StreamingReachabilityService.open(storage_config, name=service.name)
        assert resumed.ingestor.journal_blocks == 0, (
            "restore must come from the checkpoint snapshot, not a journal"
        )
        for batch in batches[4:]:
            resumed.ingest(batch)
            resumed.flush()
            assert resumed.ingestor.journal_blocks == 0
        assert resumed.watermark == dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=12, seed=73),
            check_earliest=True,
            require_earliest=True,
            context="journal stays truncated across reopen",
        )
        resumed.close()
