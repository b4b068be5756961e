"""Pins of a streaming service's first merge.

The first merge creates the service's ReachGraph on the overlay's own
device.  These tests pin what it leaves there against the batch
``ReachGraphIndex.build()`` over the same prefix: the same partitions, the
same records, the same object-index buckets and labels, and the same number
of device writes.  They also pin what happens to an object first seen after
that merge.
"""

from __future__ import annotations

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    backend_storage_config,
    graph_state,
    prefix_network,
)
from repro.core import IndexConstructionError, Point, StreamingConfig
from repro.reachgraph import ReachGraphIndex
from repro.streaming import (
    ContactSnapshotStore,
    DatasetReplaySource,
    SampleEvent,
    StreamBatch,
    StreamingReachabilityService,
)

# The contact threshold of the shared tiny_* fixtures.
TINY_THRESHOLD = 30.0


@pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
def test_first_merge_places_the_graph_as_the_batch_build(
    monkeypatch, backend, tmp_path, tiny_dataset, tiny_contact_config
):
    """Drain until one merge has run: the overlay's graph equals the batch
    build over the merged prefix, placement and device writes included."""
    storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
    service = StreamingReachabilityService.for_dataset(
        tiny_dataset,
        contact_config=tiny_contact_config,
        streaming_config=StreamingConfig(max_delta_contacts=24),
        storage_config=storage_config,
    )
    # The graph half of an adoption runs before the snapshot run is
    # appended: the device writes in between are the graph's.
    writes = {}
    real_append = ContactSnapshotStore.append_run

    def append_run(store, contacts):
        writes.setdefault("graph", service.overlay.storage.stats.writes - writes["before"])
        return real_append(store, contacts)

    monkeypatch.setattr(ContactSnapshotStore, "append_run", append_run)
    for batch in DatasetReplaySource(tiny_dataset, batch_ticks=6).batches():
        writes["before"] = service.overlay.storage.stats.writes
        service.ingest(batch)
        if service.num_merges:
            break
    assert service.num_merges == 1
    bound = service.overlay.snapshot_watermark
    prefix = tiny_dataset.restricted(bound - tiny_dataset.horizon.start + 1)
    batch = ReachGraphIndex(
        prefix,
        contact_config=None,
        contact_network=prefix_network(prefix, TINY_THRESHOLD, through=bound),
        storage_config=backend_storage_config(backend, storage_dir=str(tmp_path / "batch")),
    ).build()
    index = service.overlay.snapshot_processor.index

    assert graph_state(index) == graph_state(batch)
    assert writes["graph"] == batch.storage.stats.writes
    assert index.domain.object_ids == batch.domain.object_ids
    assert index.domain.horizon == batch.domain.horizon
    service.close()


def test_an_object_first_seen_after_the_first_merge_is_refused(tiny_contact_config):
    """An object that joins the stream after the first merge has no
    assignment history in the object index: the merge that first folds one
    of its contacts raises, naming it."""
    service = StreamingReachabilityService(
        environment_size=(100.0, 100.0),
        contact_config=tiny_contact_config,
        auto_merge=False,
    )

    def batch(t, objects):
        return StreamBatch.of(
            [SampleEvent(object_id, t, Point(x, 0.0)) for object_id, x in objects]
        )

    for t in range(4):
        service.ingest(batch(t, [(0, 0.0), (1, 90.0)]))
    service.merge()
    assert service.num_merges == 1
    index = service.overlay.snapshot_processor.index

    def held():
        working = index._working
        return (
            index.num_vertices,
            index.domain.horizon,
            list(index._vertex_starts),
            {key: list(rows) for key, rows in working.rows.items()},
            list(working.successors),
            dict(working.current),
            graph_state(index),
        )

    before = held()
    for t in range(4, 8):
        # Object 2 appears next to object 0 and stays in contact with it.
        service.ingest(batch(t, [(0, 0.0), (1, 90.0), (2, 5.0)]))
    for _ in range(2):
        # Refused before anything moves, so a retry is refused alike.
        with pytest.raises(
            IndexConstructionError, match="object 2 joined the stream mid-prefix"
        ):
            service.merge()
        assert service.num_merges == 1
        assert held() == before
