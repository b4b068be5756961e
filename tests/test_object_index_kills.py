"""The phantom rule, pinned at every kill point that can strand a bucket.

The object-index buckets are the one copy of which object is in which vertex
(``repro.reachgraph.index``).  A bucket rewrite goes through the buffer pool
in place, so a frame evicted before a crash leaves the bucket durably ahead
of the committed graph.  The rule a reopen relies on is that a committed
bucket can differ from the committed extents only by *phantom* trailing
segments: entries naming a vertex at or past the committed vertex count.
For each kill point of a merge, a flush, a WAL truncation, a repack and a
reclaim, on every persistent backend, this suite serves queries after every
batch through a buffer pool small enough that they evict the bucket frames a
merge dirtied, arms the point once a merge is not yet committed, kills the
service there and pins:

* the committed buckets are the committed extents' histories, plus at most
  trailing segments past the committed vertex count — and a kill inside a
  flush does leave such segments;
* the read-only reopen answers as the reference evaluator;
* the resumed writer passes ``check_directory()`` and
  ``check_object_index()`` after its next merge, and answers as the
  reference evaluator.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    prefix_network,
    reference_evaluator,
)
from repro.core import ContactConfig, ReachGridConfig, StorageConfig, StreamingConfig
from repro.generators import RandomWaypointGenerator
from repro.storage import StorageSystem
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamingReachabilityService,
)
from repro.testing import faults
from repro.testing.faults import SimulatedCrash, simulate_kill
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
#: Merges, repacks, compactions and policy reclaims — rare enough that a
#: merge is often not committed by a reclaim's flush at once.
MAINTENANCE = dict(
    max_delta_contacts=16,
    compaction_max_runs=2,
    gc_trigger_ratio=0.5,
    graph_repack_min_partitions=2,
)
#: Frames in each device's buffer pool: few enough that the queries served
#: after a merge write its dirty bucket frames back before any flush.
BUFFER_BLOCKS = 6

KILL_POINTS = (
    "merge-pre-adopt",
    "flush-post-ingestor",
    "flush-post-manifest",
    "wal-truncate-pre-commit",
    "repack-pre-adopt",
    "gc-post-copy",
    "gc-pre-commit",
)
#: The points at which the kill leaves phantom segments on the device.
PHANTOM_POINTS = ("flush-post-ingestor", "flush-post-manifest", "wal-truncate-pre-commit")


@pytest.fixture(scope="module")
def world():
    return RandomWaypointGenerator(
        num_objects=24, horizon=96, environment_size=(400.0, 400.0), seed=11
    ).generate()


@pytest.fixture(autouse=True)
def disarm():
    yield
    faults.clear()


def graph_of(service):
    return service.overlay.snapshot_processor.index


def committed_histories(storage_config, name):
    """``(extent histories, bucket histories, vertex count)`` as committed on
    the overlay device: each read by attaching to it, and nothing written."""
    storage = StorageSystem(storage_config, name=f"{name}-overlay")
    try:
        partitions = storage.blockfile("graph-v1-partitions")
        records = sorted(
            (row for key in partitions.extent_keys() for row in partitions.read_extent(key)),
            key=lambda row: row[0],
        )
        truth: Dict[int, List[tuple]] = {}
        for node_id, start, _, members, _, _, _ in records:
            for member in members:
                truth.setdefault(member, []).append((start, node_id))
        buckets = {
            object_id: list(zip(memoryview(starts).cast("q"), memoryview(nodes).cast("q")))
            for object_id, (starts, nodes) in storage.hashtable("graph-v1-object-index").items()
        }
    finally:
        storage.release()
    return truth, buckets, len(records)


@pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
@pytest.mark.parametrize("point", KILL_POINTS)
def test_a_kill_leaves_buckets_ahead_only_by_phantoms(backend, point, tmp_path, world):
    storage_config = StorageConfig(
        backend=backend, storage_dir=str(tmp_path), buffer_blocks=BUFFER_BLOCKS
    )
    service = StreamingReachabilityService.for_dataset(
        world,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**MAINTENANCE),
        storage_config=storage_config,
    )
    batches = list(DatasetReplaySource(world, batch_ticks=4).batches())
    queries = list(random_queries(world, count=12, length_range=(20, 60), seed=83))
    crashed = False
    flushed_merges = 0
    for position, batch in enumerate(batches):
        try:
            service.ingest(batch)
            for query in queries[:4]:
                service.query(query)
            if flushed_merges and service.num_merges > flushed_merges and not faults.armed():
                faults.arm(point)
            if position % 2:
                service.flush()
                flushed_merges = service.num_merges
        except SimulatedCrash as crash:
            assert crash.point == point
            crashed = True
            break
    assert crashed, f"{point} never fired"
    simulate_kill(service.overlay.storage, service.ingestor.storage)

    truth, buckets, num_vertices = committed_histories(storage_config, service.name)
    assert buckets.keys() == truth.keys()
    num_phantoms = 0
    for object_id, segments in truth.items():
        stored = buckets[object_id]
        assert stored[: len(segments)] == segments, f"{point}: object {object_id}"
        phantoms = stored[len(segments) :]
        assert all(node_id >= num_vertices for _, node_id in phantoms), (
            f"{point}: object {object_id} holds {phantoms} past {num_vertices} vertices"
        )
        num_phantoms += len(phantoms)
    assert (num_phantoms > 0) >= (point in PHANTOM_POINTS), f"{point}: no phantom"

    reopened = SnapshotQueryService.open(storage_config, name=service.name)
    assert graph_of(reopened).check_object_index() == len(truth)
    assert_reopened_matches_prefix(
        reopened, world, THRESHOLD, queries, context=f"{point} {backend} read-only"
    )
    reopened.close()

    resumed = StreamingReachabilityService.open(
        storage_config, name=service.name, streaming_config=StreamingConfig(**MAINTENANCE)
    )
    for batch in batches:
        if batch.watermark > resumed.watermark:
            resumed.ingest(batch)
    resumed.merge()
    index = graph_of(resumed)
    assert index.check_directory() == index.num_vertices
    assert index.check_object_index() == len(truth)
    assert_methods_agree(
        reference_evaluator(prefix_network(world, THRESHOLD)),
        {"resumed": resumed.query},
        queries,
        check_earliest=True,
        context=f"{point} {backend} resumed",
    )
    resumed.close()
