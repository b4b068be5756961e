"""The ingestor's device holds the WAL and a checkpoint of what is unfrozen.

No sample outlives its tick's join: a merge reads contacts plus the prefix's
domain (``StreamIngestor.prefix_domain`` — object ids and horizon), never a
position.  This suite pins the domain's coverage checks and the resume of
devices written while every elapsed interval's samples were still archived as
``<name>-grid-cells`` extents: the cells are dropped and freed by the next
reclaim, a ``memtable``, ``positions`` or ``ingest_seconds`` in the
checkpoint is read past, a full closed-contact list resumes, and a checkpoint
from before WAL truncation replays its journal — with answers equal to the
reference evaluator on every persistent backend.
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
CHECKPOINT_KEY = "ingest-checkpoint"


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=7
    ).generate()


def streaming_config():
    return StreamingConfig(max_delta_contacts=24)


def make_service(dataset, storage_config):
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=streaming_config(),
        storage_config=storage_config,
    )


def plain_ingestor(dataset):
    return StreamIngestor(dataset.environment_size, contact_config=CONTACTS, grid_config=GRID)


def contact_rows(contacts):
    return [(c.first, c.second, c.validity.start, c.validity.end) for c in contacts]


def sample_rows(dataset, through):
    """``(object, t, x, y)`` rows of every sample up to ``through``."""
    return [
        (trajectory.object_id, t, trajectory.position_at(t).x, trajectory.position_at(t).y)
        for trajectory in dataset
        for t in range(dataset.horizon.start, through + 1)
    ]


def rewrite_checkpoint(storage_config, name, edit):
    """Apply ``edit(grid_device, checkpoint)`` to a closed ingestor device."""
    grid = StorageSystem(storage_config, name=f"{name}-grid")
    checkpoint = grid.get_metadata(CHECKPOINT_KEY)
    edit(grid, checkpoint)
    grid.put_metadata(CHECKPOINT_KEY, checkpoint)
    grid.close()


def resume_and_finish(storage_config, name, dataset, batches, unkilled, context):
    """Resume, ingest the rest of the stream, and check counts and answers."""
    resumed = StreamingReachabilityService.open(
        storage_config, name=name, streaming_config=streaming_config()
    )
    assert resumed.ingestor.num_closed_contacts == unkilled.num_closed_contacts
    for batch in batches:
        if batch.watermark > resumed.watermark:
            resumed.ingest(batch)
            unkilled.ingest(batch)
    assert resumed.watermark == dataset.horizon.end
    assert resumed.ingestor.num_closed_contacts == unkilled.num_closed_contacts
    assert_methods_agree(
        reference_evaluator(prefix_network(dataset, THRESHOLD)),
        {"resumed": resumed.query},
        random_queries(dataset, count=12, seed=41),
        check_earliest=True,
        context=context,
    )
    return resumed


# ----------------------------------------------------------------------
# the checks prefix_domain makes
# ----------------------------------------------------------------------
class TestPrefixDomain:
    def test_object_joining_late_does_not_cover_the_prefix(self):
        ingestor = StreamIngestor((100.0, 100.0), contact_config=CONTACTS)
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 0, Point(0.0, 0.0)), SampleEvent(2, 0, Point(5.0, 5.0))]
            )
        )
        ingestor.ingest(
            StreamBatch.of(
                [
                    SampleEvent(1, 1, Point(1.0, 0.0)),
                    SampleEvent(2, 1, Point(5.0, 6.0)),
                    SampleEvent(3, 1, Point(9.0, 9.0)),
                ]
            )
        )
        with pytest.raises(StreamingError, match="object 3 does not cover"):
            ingestor.prefix_domain()

    def test_object_stopping_short_does_not_cover_the_prefix(self):
        ingestor = StreamIngestor((100.0, 100.0), contact_config=CONTACTS)
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 0, Point(0.0, 0.0)), SampleEvent(2, 0, Point(5.0, 5.0))]
            )
        )
        ingestor.ingest(StreamBatch.of([SampleEvent(1, 1, Point(1.0, 0.0))]))
        with pytest.raises(StreamingError, match="object 2 does not cover"):
            ingestor.prefix_domain()

    def test_empty_stream_has_no_domain(self):
        with pytest.raises(StreamingError, match="empty stream prefix"):
            StreamIngestor((100.0, 100.0)).prefix_domain()


# ----------------------------------------------------------------------
# devices written while samples were archived as grid cells
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
class TestArchivedDevices:
    def _half_drained(self, backend, tmp_path, dataset):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(dataset, storage_config)
        unkilled = plain_ingestor(dataset)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
            unkilled.ingest(batch)
        service.close()
        return storage_config, service.name, batches, unkilled

    def test_cells_memtable_and_full_closed_list_resume(
        self, backend, tmp_path, dataset
    ):
        """The cells extents are dropped on resume and the next reclaim frees
        them; the checkpoint's ``memtable`` and ``flushed_intervals`` are
        read past; a closed list from the origin resumes with its count."""
        storage_config, name, batches, unkilled = self._half_drained(
            backend, tmp_path, dataset
        )
        watermark = unkilled.watermark
        interval = GRID.temporal_resolution
        archived = sample_rows(dataset, watermark)

        def archive(grid, checkpoint):
            cells = grid.new_blockfile(f"{name}-grid-cells")
            flushed = (watermark - dataset.horizon.start + 1) // interval
            for index in range(flushed):
                rows = [row for row in archived if row[1] // interval == index]
                cells.append_extent((index, 0, 0), rows)
            checkpoint["flushed_intervals"] = flushed
            state = checkpoint["state"]
            state["memtable"] = {
                flushed: {(0, 0): [row for row in archived if row[1] // interval == flushed]}
            }
            del state["closed_floor"]
            state["closed"] = contact_rows(unkilled.closed_contacts)

        rewrite_checkpoint(storage_config, name, archive)
        archive_blocks = StorageSystem(storage_config, name=f"{name}-grid")
        cells_blocks = archive_blocks.blockfile(f"{name}-grid-cells").num_blocks
        archive_blocks.release()
        assert cells_blocks > 0

        resumed = resume_and_finish(
            storage_config, name, dataset, batches, unkilled, f"archived, {backend}"
        )
        storage = resumed.ingestor.storage
        assert storage.blockfile_names() == [f"{name}-journal"]
        resumed.reclaim()
        assert storage.reclaimed_blocks >= cells_blocks
        assert storage.disk.num_blocks == storage.live_blocks
        resumed.flush()
        state = resumed.ingestor.storage.get_metadata(CHECKPOINT_KEY)
        assert "memtable" not in state["state"] and "flushed_intervals" not in state
        resumed.close()

    def test_checkpoint_with_positions_still_resumes(self, backend, tmp_path, dataset):
        """A checkpoint carrying ``positions`` and no ``next_time`` (what the
        buffer-keeping ingestor wrote) resumes, ingests to the horizon and
        answers like the reference evaluator."""
        storage_config, name, batches, unkilled = self._half_drained(
            backend, tmp_path, dataset
        )
        end = unkilled.watermark - dataset.horizon.start + 1

        def buffered(grid, checkpoint):
            state = checkpoint["state"]
            del state["next_time"]
            state["positions"] = {
                trajectory.object_id: [(p.x, p.y) for p in trajectory.positions[:end]]
                for trajectory in dataset
            }

        rewrite_checkpoint(storage_config, name, buffered)
        resumed = resume_and_finish(
            storage_config, name, dataset, batches, unkilled, f"positions, {backend}"
        )
        resumed.flush()
        rewritten = resumed.ingestor.storage.get_metadata(CHECKPOINT_KEY)["state"]
        assert "positions" not in rewritten
        resumed.close()

    def test_checkpoint_ingest_seconds_is_ignored(self, backend, tmp_path, dataset):
        """A checkpoint carrying the wall-clock ``ingest_seconds`` (what
        earlier ingestors wrote) resumes; the resumed ingestor counts its own
        time from 0, and its next checkpoint carries no time."""
        storage_config, name, batches, unkilled = self._half_drained(
            backend, tmp_path, dataset
        )

        def timed(grid, checkpoint):
            checkpoint["state"]["ingest_seconds"] = 1e6

        rewrite_checkpoint(storage_config, name, timed)
        resumed = resume_and_finish(
            storage_config, name, dataset, batches, unkilled, f"timed, {backend}"
        )
        assert 0.0 < resumed.ingestor.ingest_seconds < 1e6
        resumed.flush()
        rewritten = resumed.ingestor.storage.get_metadata(CHECKPOINT_KEY)["state"]
        assert "ingest_seconds" not in rewritten
        resumed.close()

    def test_checkpoint_without_state_replays_the_journal(
        self, backend, tmp_path, dataset
    ):
        """The oldest checkpoint shape — counters only (``flushed_intervals``
        among them), the journal holding the whole history — rebuilds the
        ingestor by full replay."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        killed = StreamIngestor(
            dataset.environment_size,
            contact_config=CONTACTS,
            grid_config=GRID,
            storage_config=storage_config,
            name="legacy",
        )
        live = plain_ingestor(dataset)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            killed.ingest(batch)
            live.ingest(batch)
        checkpoint = killed._checkpoint()
        del checkpoint["state"]
        checkpoint["flushed_intervals"] = 3
        killed.storage.put_metadata(CHECKPOINT_KEY, checkpoint)
        killed.storage.flush()
        simulate_kill(killed.storage)

        restored = StreamIngestor.restore(storage_config, name="legacy")
        assert restored.journal_blocks > 0, "the journal is the only history"
        assert restored.watermark == live.watermark
        assert restored.contacts_through_watermark() == live.contacts_through_watermark()
        for batch in batches[half:]:
            restored.ingest(batch)
            live.ingest(batch)
        assert restored.contacts_through_watermark() == live.contacts_through_watermark()
        assert restored.prefix_domain().object_ids == tuple(dataset.object_ids)
        restored.storage.close()
