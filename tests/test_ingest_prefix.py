"""The grid cells are the one store of streamed samples.

``StreamIngestor`` keeps no position history in memory: ``prefix_dataset``
reads the flushed cell extents plus the memtable back, and the flush-time
checkpoint carries only the unflushed memtable, the join state and the
per-object horizon bounds.  This suite pins the prefix against the old
in-memory buffer (``tests/ingest_reference.py``) and the dataset slice at
every bound — across a device reclaim, a close/reopen and the first
ReachGraph build's merge — plus the new completeness check and the resume
paths for checkpoints written before the buffer was dropped.
"""

from __future__ import annotations

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from ingest_reference import ReferencePositionBuffer, trajectories_of
from repro.core import (
    ContactConfig,
    Point,
    ReachGridConfig,
    StreamingConfig,
    StreamingError,
)
from repro.generators import RandomWaypointGenerator
from repro.storage import StorageSystem
from repro.streaming import (
    DatasetReplaySource,
    SampleEvent,
    StreamBatch,
    StreamIngestor,
    StreamingReachabilityService,
)
from repro.testing.faults import simulate_kill
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)
BACKENDS = ("sim",) + EQUIVALENCE_BACKENDS
CHECKPOINT_KEY = "ingest-checkpoint"


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=7
    ).generate()


@pytest.fixture()
def merge_prefixes(monkeypatch):
    """Every prefix a merge materialised: (bound, watermark then, prefix)."""
    captured = []
    real = StreamingReachabilityService.prepare_merge

    def capturing(self):
        inputs = real(self)
        if inputs.prefix is not None:
            captured.append((inputs.bound, self.ingestor.watermark, inputs.prefix))
        return inputs

    monkeypatch.setattr(StreamingReachabilityService, "prepare_merge", capturing)
    return captured


def streaming_config(**overrides):
    return StreamingConfig(**{"max_delta_contacts": 24, **overrides})


def make_service(dataset, storage_config, **overrides):
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=streaming_config(**overrides),
        storage_config=storage_config,
    )


def assert_prefix_matches(prefix, oracle, dataset):
    """``prefix`` equals the oracle's and the dataset's slice at its end."""
    end = prefix.horizon.end
    got = trajectories_of(prefix)
    from_oracle = trajectories_of(oracle.prefix_dataset(through=end))
    sliced = trajectories_of(dataset.restricted(end - dataset.horizon.start + 1))
    assert got == {obj: from_oracle[obj] for obj in got}, f"oracle, through={end}"
    assert got == {obj: sliced[obj] for obj in got}, f"dataset slice, through={end}"
    return got


def assert_every_bound(ingestor, oracle, dataset):
    for bound in range(ingestor.origin, ingestor.watermark + 1):
        prefix = ingestor.prefix_dataset(through=bound)
        assert prefix.horizon.end == bound
        assert set(assert_prefix_matches(prefix, oracle, dataset)) == set(
            oracle.positions
        )


# ----------------------------------------------------------------------
# the prefix equals the oracle at every bound
# ----------------------------------------------------------------------
class TestPrefixFromCells:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_bound_across_reclaim_and_reopen(
        self, backend, tmp_path, dataset, merge_prefixes
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config, gc_trigger_ratio=0.0)
        oracle = ReferencePositionBuffer(dataset.environment_size)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for index, batch in enumerate(batches):
            oracle.ingest(batch)
            service.ingest(batch)
            for bound in (service.watermark - 3, service.watermark):
                assert_prefix_matches(
                    service.ingestor.prefix_dataset(through=bound), oracle, dataset
                )
            if index != half:
                continue
            # Truncated WAL extents are garbage interleaved with the cells:
            # the reclaim moves every flushed cell to a new block id.
            service.flush()
            service.reclaim()
            assert service.ingestor.storage.reclaimed_blocks > 0
            assert_every_bound(service.ingestor, oracle, dataset)
            if storage_config is not None:
                service.close()
                service = StreamingReachabilityService.open(
                    storage_config,
                    name=service.name,
                    streaming_config=streaming_config(),
                )
                assert_every_bound(service.ingestor, oracle, dataset)
        assert service.watermark == dataset.horizon.end
        assert_every_bound(service.ingestor, oracle, dataset)
        # The one prefix a merge materialised (the first build; later merges
        # patch) matched as well.
        assert len(merge_prefixes) == 1
        for _, _, prefix in merge_prefixes:
            assert_prefix_matches(prefix, oracle, dataset)
        service.close()


# ----------------------------------------------------------------------
# the checks prefix_dataset makes
# ----------------------------------------------------------------------
class TestPrefixChecks:
    def _drained(self, dataset):
        ingestor = StreamIngestor(
            dataset.environment_size, contact_config=CONTACTS, grid_config=GRID
        )
        ingestor.ingest_all(DatasetReplaySource(dataset, batch_ticks=6).batches())
        return ingestor

    def test_lost_cell_extent_is_named_not_materialised(self, dataset):
        ingestor = self._drained(dataset)
        key = next(key for key in ingestor.flushed_cell_keys() if key[0] == 1)
        lost = ingestor.read_cell(key)
        ingestor._cells_file.drop_extent(key)
        obj = min(record[0] for record in lost)
        tick = min(record[1] for record in lost if record[0] == obj)
        with pytest.raises(StreamingError) as excinfo:
            ingestor.prefix_dataset()
        message = str(excinfo.value)
        assert f"object {obj} " in message and f"t={tick} " in message
        # A bound that ends before the lost cell's interval reads none of it.
        before = dataset.horizon.start + GRID.temporal_resolution - 1
        assert ingestor.prefix_dataset(through=before).horizon.end == before

    def test_object_joining_late_does_not_cover_the_prefix(self):
        ingestor = StreamIngestor((100.0, 100.0), contact_config=CONTACTS)
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 0, Point(0.0, 0.0)), SampleEvent(2, 0, Point(5.0, 5.0))]
            )
        )
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 1, Point(1.0, 0.0)), SampleEvent(3, 1, Point(9.0, 9.0))]
            )
        )
        # Object 3 did not start at the origin; object 2 stops short of t=1.
        with pytest.raises(StreamingError, match="object 3 does not cover"):
            ingestor.prefix_dataset(through=0)
        with pytest.raises(StreamingError, match="object 2 does not cover"):
            ingestor.prefix_dataset()


# ----------------------------------------------------------------------
# devices flushed before the position buffer was dropped
# ----------------------------------------------------------------------
class TestOldCheckpoints:
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_checkpoint_with_positions_still_resumes(self, backend, tmp_path, dataset):
        """A checkpoint carrying ``positions`` and no ``next_time`` (what the
        buffer-keeping ingestor wrote) resumes, ingests to the horizon and
        answers like the reference evaluator."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config)
        oracle = ReferencePositionBuffer(dataset.environment_size)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            oracle.ingest(batch)
            service.ingest(batch)
        service.close()

        grid = StorageSystem(storage_config, name=f"{service.name}-grid")
        checkpoint = grid.get_metadata(CHECKPOINT_KEY)
        state = checkpoint["state"]
        del state["next_time"]
        state["positions"] = oracle.legacy_checkpoint_positions()
        grid.put_metadata(CHECKPOINT_KEY, checkpoint)
        grid.close()

        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, streaming_config=streaming_config()
        )
        assert_every_bound(resumed.ingestor, oracle, dataset)
        for batch in batches[half:]:
            oracle.ingest(batch)
            resumed.ingest(batch)
        assert resumed.watermark == dataset.horizon.end
        assert_every_bound(resumed.ingestor, oracle, dataset)
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"resumed": resumed.query},
            random_queries(dataset, count=12, seed=41),
            check_earliest=True,
            context=f"old checkpoint, backend={backend}",
        )
        resumed.flush()
        rewritten = resumed.ingestor.storage.get_metadata(CHECKPOINT_KEY)["state"]
        assert "positions" not in rewritten
        resumed.close()

    def test_checkpoint_without_state_replays_the_journal(self, tmp_path, dataset):
        """The oldest checkpoint shape — counters only, the journal holding
        the whole history — rebuilds the ingestor by full replay."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        killed = StreamIngestor(
            dataset.environment_size,
            contact_config=CONTACTS,
            grid_config=GRID,
            storage_config=storage_config,
            name="legacy",
        )
        live = StreamIngestor(
            dataset.environment_size, contact_config=CONTACTS, grid_config=GRID
        )
        oracle = ReferencePositionBuffer(dataset.environment_size)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            oracle.ingest(batch)
            killed.ingest(batch)
            live.ingest(batch)
        checkpoint = killed._checkpoint()
        del checkpoint["state"]
        killed.storage.put_metadata(CHECKPOINT_KEY, checkpoint)
        killed.storage.flush()
        simulate_kill(killed.storage)

        restored = StreamIngestor.restore(storage_config, name="legacy")
        assert restored.journal_blocks > 0, "the journal is the only history"
        assert restored.watermark == oracle.watermark
        assert_every_bound(restored, oracle, dataset)
        assert restored.contacts_through_watermark() == live.contacts_through_watermark()
        for batch in batches[half:]:
            oracle.ingest(batch)
            restored.ingest(batch)
            live.ingest(batch)
        assert_every_bound(restored, oracle, dataset)
        assert restored.contacts_through_watermark() == live.contacts_through_watermark()
        restored.storage.close()
