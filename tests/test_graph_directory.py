"""Pins of the ReachGraph directory.

Every write that changes the graph appends one chunk of packed ints to the
``<graph>-directory`` block file, and a reopen builds the serving state from
those chunks alone (``repro.reachgraph.index``).  These tests pin that:

* ``check_directory()`` finds the directory and the partition extents in
  agreement after merges, repacks, reclaims and a kill and resume, on every
  persistent backend, and finds a record that disagrees;
  ``check_object_index()`` does the same for the object-index buckets, the
  one copy of which object is in which vertex, and an open refuses buckets
  that miss an object of the directory;
* a read-only open reads no block of the partition file;
* the restored serving state — locate, starts, labels, object histories,
  domain — is the one the records say (``record_restore_reference.py``, the
  restore as it was before the directory), read-only and as a writer;
* a kill at any crash point of a merge, a repack or a reclaim reopens, read
  only and as a writer, to the reference's answers and a consistent
  directory;
* the partition cache keeps, across a merge or a repack, every entry the
  mutation did not rewrite or retire;
* a chunk holds packed ints and no pickled global, in blocks no larger than
  the partition file's bound, and replays to what it packs.
"""

from __future__ import annotations

import pickletools

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
    rewrite_directory_start,
)
from record_restore_reference import record_state, serving_state
from repro.core import (
    ContactConfig,
    IndexConstructionError,
    ReachGridConfig,
    StreamingConfig,
)
from repro.generators import RandomWaypointGenerator
from repro.reachgraph import ReachGraphIndex
from repro.reachgraph.index import _DIRECTORY_BYTES_PER_SLOT, _Directory, _pack_chunk
from repro.storage import StorageSystem
from repro.storage.backends.base import encode_payload
from repro.storage.buffer import BufferPool
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

#: Everything that writes the graph or its device: merges, repacks,
#: compactions and policy reclaims.
MAINTENANCE = dict(
    max_delta_contacts=16,
    compaction_max_runs=2,
    gc_trigger_ratio=0.3,
    graph_repack_min_partitions=2,
)


@pytest.fixture(scope="module")
def world():
    return RandomWaypointGenerator(
        num_objects=24, horizon=96, environment_size=(400.0, 400.0), seed=11
    ).generate()


@pytest.fixture(autouse=True)
def disarm():
    yield
    faults.clear()


def make_service(world, storage_config, **config):
    return StreamingReachabilityService.for_dataset(
        world,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**config),
        storage_config=storage_config,
    )


def graph_of(service):
    return service.overlay.snapshot_processor.index


def batches_of(world, ticks=4):
    return list(DatasetReplaySource(world, batch_ticks=ticks).batches())


def resume(storage_config, name):
    return StreamingReachabilityService.open(
        storage_config, name=name, streaming_config=StreamingConfig(**MAINTENANCE)
    )


# ----------------------------------------------------------------------
# check_directory
# ----------------------------------------------------------------------
class TestCheckDirectory:
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_agrees_after_merges_repacks_reclaims_and_a_kill(self, backend, tmp_path, world):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(world, storage_config, **MAINTENANCE)
        batches = batches_of(world)
        half = len(batches) // 2
        checked = 0
        for position, batch in enumerate(batches[:half]):
            merges = service.num_merges
            service.ingest(batch)
            if service.num_merges != merges:
                graph_of(service).check_directory()
                checked += 1
            if position % 3 == 2:
                service.flush()
        assert checked >= 2
        assert graph_of(service).num_repacks >= 1
        assert service.num_reclaims >= 1
        service.reclaim()
        graph_of(service).check_directory()
        service.ingest(batches[half])  # past the last flush: lost to the kill
        simulate_kill(service.overlay.storage, service.ingestor.storage)

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        graph_of(reopened).check_directory()
        reopened.close()
        resumed = resume(storage_config, service.name)
        graph_of(resumed).check_directory()
        for batch in batches:
            if batch.watermark > resumed.watermark:
                merges = resumed.num_merges
                resumed.ingest(batch)
                if resumed.num_merges != merges:
                    assert graph_of(resumed).check_directory() == graph_of(resumed).num_vertices
                    assert graph_of(resumed).check_object_index() == len(world.object_ids)
        resumed.merge()
        graph_of(resumed).check_directory()
        resumed.close()

    def test_a_record_that_disagrees_is_found(self, tmp_path, world):
        """The open trusts the directory; the check reads both and finds a
        record whose end is not the directory's."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(world, storage_config, **MAINTENANCE)
        for batch in batches_of(world):
            service.ingest(batch)
        index = graph_of(service)
        partition_id = index.partition_of(0)
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        partitions = storage.blockfile("graph-v1-partitions")
        records = [
            (*row[:2], row[2] + 1, *row[3:]) if row[0] == 0 else row
            for row in partitions.read_extent(partition_id)
        ]
        partitions.replace_extent(partition_id, records)
        storage.close()

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        with pytest.raises(IndexConstructionError, match="not the directory's vertex 0$"):
            graph_of(reopened).check_directory()
        reopened.close()

    def test_a_bucket_that_disagrees_is_found(self, tmp_path, world):
        """The open reads each bucket's last segment only; the check reads
        every segment and finds one the records do not hold, and the open
        refuses a bucket missing an object the directory names."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(world, storage_config, **MAINTENANCE)
        for batch in batches_of(world):
            service.ingest(batch)
        index = graph_of(service)
        victim = next(
            object_id
            for object_id in index.domain.object_ids
            if len(index._object_index.get(object_id)[0]) > 16
        )
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        table = storage.hashtable("graph-v1-object-index")
        starts, nodes = table.get(victim)
        table.update(victim, (starts[8:], nodes[8:]))
        storage.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        graph_of(reopened).check_directory()
        with pytest.raises(IndexConstructionError, match=f"bucket of object {victim} is not"):
            graph_of(reopened).check_object_index()
        reopened.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        table = storage.hashtable("graph-v1-object-index")
        block_id = table.bucket_blocks[hash(victim) % table.num_buckets]
        bucket = dict(storage.buffer_pool.read(block_id))
        del bucket[victim]
        storage.buffer_pool.write(block_id, bucket)
        storage.close()
        with pytest.raises(IndexConstructionError, match="^the object index holds objects"):
            SnapshotQueryService.open(storage_config, name=service.name)

    def test_a_directory_out_of_start_order_is_refused_at_open(self, tmp_path, world):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(world, storage_config, max_delta_contacts=10_000)
        service.auto_merge = False
        for batch in batches_of(world):
            service.ingest(batch)
        service.merge()  # one chunk: the first patch
        index = graph_of(service)
        victim = next(
            node_id
            for node_id in range(1, index.num_vertices)
            if index._vertex_starts[node_id - 1] > world.horizon.start
        )
        earlier = index._vertex_starts[victim - 1] - 1
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        rewrite_directory_start(storage, index.name, victim, earlier)
        storage.close()

        with pytest.raises(
            IndexConstructionError, match=f"^vertex {victim} starts at t={earlier}, "
        ):
            SnapshotQueryService.open(storage_config, name=service.name)


# ----------------------------------------------------------------------
# what an open reads, and what it builds
# ----------------------------------------------------------------------
def streamed_device(world, tmp_path, backend):
    storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
    service = make_service(world, storage_config, **MAINTENANCE)
    for batch in batches_of(world):
        service.ingest(batch)
    assert graph_of(service).num_repacks >= 1
    live = record_state(graph_of(service))
    assert serving_state(graph_of(service)) == live
    service.close()
    return storage_config, service.name, live


class TestOpen:
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_a_read_only_open_reads_no_partition_block(
        self, backend, tmp_path, world, monkeypatch
    ):
        storage_config, name, _ = streamed_device(world, tmp_path, backend)
        touched = []
        read, read_run = BufferPool.read, BufferPool.read_run

        def counted_read(pool, block_id):
            touched.append(block_id)
            return read(pool, block_id)

        def counted_run(pool, first_block, num_blocks):
            touched.extend(range(first_block, first_block + num_blocks))
            return read_run(pool, first_block, num_blocks)

        monkeypatch.setattr(BufferPool, "read", counted_read)
        monkeypatch.setattr(BufferPool, "read_run", counted_run)
        reopened = SnapshotQueryService.open(storage_config, name=name)
        storage = reopened.storage
        monkeypatch.undo()

        def blocks_of(file_name):
            blockfile = storage.blockfile(file_name)
            return {
                block_id
                for key in blockfile.extent_keys()
                for block_id in blockfile.extent(key).block_ids
            }

        partition_blocks = blocks_of("graph-v1-partitions")
        directory_blocks = blocks_of("graph-v1-directory")
        assert partition_blocks and directory_blocks
        assert not partition_blocks & set(touched), "the open read a partition block"
        assert sorted(block for block in touched if block in directory_blocks) == sorted(
            directory_blocks
        ), "the open reads every directory block once"
        reopened.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_restored_state_is_what_the_records_say(self, backend, tmp_path, world):
        storage_config, name, live = streamed_device(world, tmp_path, backend)
        reopened = SnapshotQueryService.open(storage_config, name=name)
        assert serving_state(graph_of(reopened)) == record_state(graph_of(reopened)) == live
        reopened.close()
        resumed = resume(storage_config, name)
        assert serving_state(graph_of(resumed)) == live
        resumed.close()


# ----------------------------------------------------------------------
# fault coverage: a kill in any merge, repack or reclaim that appends a chunk
# ----------------------------------------------------------------------
CHUNK_POINTS = (
    "merge-pre-adopt",
    "compaction-mid",
    "repack-pre-adopt",
    "flush-post-ingestor",
    "flush-post-manifest",
    "gc-post-copy",
    "gc-pre-commit",
)


@pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
@pytest.mark.parametrize("point", CHUNK_POINTS)
def test_a_kill_at_any_chunk_point_reopens_consistent(backend, point, tmp_path, world):
    storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
    service = make_service(world, storage_config, **MAINTENANCE)
    batches = batches_of(world)
    crashed = False
    for batch in batches:
        if service.num_merges and not faults.armed():
            faults.arm(point)  # once a graph exists
        try:
            service.ingest(batch)
            service.flush()
        except SimulatedCrash as crash:
            assert crash.point == point
            crashed = True
            break
    assert crashed, f"{point} never fired"
    simulate_kill(service.overlay.storage, service.ingestor.storage)
    queries = random_queries(world, count=12, length_range=(20, 60), seed=83)

    reopened = SnapshotQueryService.open(storage_config, name=service.name)
    graph_of(reopened).check_directory()
    graph_of(reopened).check_object_index()
    assert_reopened_matches_prefix(
        reopened, world, THRESHOLD, queries, context=f"{point} {backend} read-only"
    )
    reopened.close()

    resumed = resume(storage_config, service.name)
    graph_of(resumed).check_directory()
    for batch in batches:
        if batch.watermark > resumed.watermark:
            resumed.ingest(batch)
    resumed.merge()
    graph_of(resumed).check_directory()
    graph_of(resumed).check_object_index()
    assert_methods_agree(
        reference_evaluator(prefix_network(world, THRESHOLD)),
        {"resumed": resumed.query},
        queries,
        check_earliest=True,
        context=f"{point} {backend} resumed",
    )
    resumed.close()


# ----------------------------------------------------------------------
# the partition cache keeps what a mutation did not rewrite
# ----------------------------------------------------------------------
class TestPartitionCacheAcrossMutations:
    def test_a_merge_discards_only_the_partitions_it_rewrote(self, world, monkeypatch):
        service = make_service(world, None, max_delta_contacts=10_000, partition_cache_size=10_000)
        service.auto_merge = False
        batches = batches_of(world)
        half = len(batches) // 2
        for batch in batches[:half]:
            service.ingest(batch)
        service.merge()
        index = graph_of(service)
        cache = service.overlay.partition_cache
        cached = {
            partition_id: index.read_partition(partition_id)
            for partition_id, members in enumerate(index.partitioning.members)
            if members
        }
        for partition_id, records in cached.items():
            cache.insert(partition_id, records)
        reports = []
        apply_increment = ReachGraphIndex.apply_increment

        def recorded(index, patch):
            reports.append(apply_increment(index, patch))
            return reports[-1]

        monkeypatch.setattr(ReachGraphIndex, "apply_increment", recorded)
        for batch in batches[half:]:
            service.ingest(batch)
        service.merge()
        (report,) = reports
        rewritten = set(report.rewritten_partitions)
        assert rewritten and set(cached) - rewritten
        for partition_id, records in cached.items():
            hit = cache.lookup(partition_id)
            if partition_id in rewritten:
                assert hit is None, f"partition {partition_id} was rewritten"
            else:
                assert hit is records, f"partition {partition_id} was not rewritten"
                assert list(hit) == list(index.read_partition(partition_id))
        service.close()

    def test_a_repack_discards_only_the_partitions_it_retired(self, world, monkeypatch):
        service = make_service(
            world,
            None,
            max_delta_contacts=8,
            graph_repack_min_partitions=4,
            partition_cache_size=10_000,
        )
        cache = service.overlay.partition_cache
        folds = []
        repack_frontier = ReachGraphIndex.repack_frontier

        def recorded(index, min_partitions=2):
            cached = {
                partition_id
                for partition_id, members in enumerate(index.partitioning.members)
                if members
            }
            for partition_id in cached:
                cache.insert(partition_id, index.read_partition(partition_id))
            retired = repack_frontier(index, min_partitions)
            if retired:
                folds.append((cached, retired))
            return retired

        monkeypatch.setattr(ReachGraphIndex, "repack_frontier", recorded)
        for batch in batches_of(world):
            service.ingest(batch)
            if folds:
                break
        assert folds, "no repack folded"
        ((cached, retired),) = folds
        assert set(retired) <= cached
        still = {partition_id for partition_id in cached if cache.lookup(partition_id)}
        assert still == cached - set(retired)
        service.close()


# ----------------------------------------------------------------------
# the chunk codec
# ----------------------------------------------------------------------
class TestChunks:
    def test_a_chunk_replays_what_it_packs(self):
        first = _pack_chunk(
            0,
            [0, 0, 1],
            [2, 0, 4],
            edge_sources=[1, 0],
            edge_targets=[2, 2],
            partitions=[(0, [0, 1]), (1, [2])],
            objects=[3, 5, 7, 1 << 40],
        )
        second = _pack_chunk(
            3,
            [5],
            [6],
            extensions=[(2, 4), (0, 4)],
            edge_sources=[2, 0],
            edge_targets=[3, 3],
            partitions=[(2, [3]), (3, [0, 1, 2])],
            retired=[0, 1],
        )
        directory = _Directory()
        directory.replay(first)
        directory.replay(second)
        assert list(directory.starts) == [0, 0, 1, 5]
        assert list(directory.ends) == [4, 0, 4, 6]
        assert directory.object_ids == {3, 5, 7, 1 << 40}
        assert directory.successors == [[2, 3], [2], [3], []]
        assert directory.partitions == {2: [3], 3: [0, 1, 2]}
        with pytest.raises(IndexConstructionError, match="does not follow"):
            directory.replay(_pack_chunk(3, [6], [6]))

    def test_blocks_hold_packed_ints_and_no_global(self, tmp_path, world):
        storage_config, name, _ = streamed_device(world, tmp_path, "file")
        reopened = SnapshotQueryService.open(storage_config, name=name)
        storage = reopened.storage
        directory_file = storage.blockfile("graph-v1-directory")
        bound = storage.blockfile("graph-v1-partitions").records_per_block * _DIRECTORY_BYTES_PER_SLOT
        for key in directory_file.extent_keys():
            for block_id in directory_file.extent(key).block_ids:
                payload = storage.disk.peek(block_id)
                (piece,) = payload
                assert type(piece) is bytes and len(piece) <= bound
                opcodes = {op.name for op, _, _ in pickletools.genops(encode_payload(payload))}
                assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "REDUCE", "INST", "OBJ"}
        reopened.close()
