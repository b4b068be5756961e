"""The ReachGraph on-device shapes: tuple vertex records, packed object index.

What a partition block and an object-index bucket hold is decided in
:mod:`repro.reachgraph.index` and decoded by ``pickle`` alone, so the shapes
are pinned here: a vertex record is a plain tuple in ``VertexRecord`` field
order and a history two ``bytes`` of native int64, so neither block pickles
a reduce call or a global; a device written with the earlier ``VertexRecord``
rows and ``array('q')`` histories still reopens, its buckets rewritten as
``bytes``; the packed ``(starts, nodes)`` assignment history
must answer ``find_vertex_id`` exactly as a scan of the DAG's segments does at
every stage of an index's life, the slot directory must address every vertex
inside its partition extent at those same stages, restore must reconcile a
bucket that got durably ahead of the graph, a device in another format
must be refused before a single partition is read, a catalog written
while the labels still rode in it must restore the same labels, the
merge-built graph sits under one name whether or not its overlay catalog
still carries the retired version counter, and the
in-memory vertex starts BM-BFS bounds its children with must count exactly
what the records say, on a device whose ids are in start order — the only
kind a restore accepts.
"""

from __future__ import annotations

import io
import pickle
import pickletools
from array import array

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    CallCounter,
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from labels_reference import legacy_catalog_entry
from repro.core import (
    IndexConstructionError,
    ReachabilityQuery,
    ReachGraphConfig,
    STORAGE_BACKENDS,
    StorageConfig,
    StreamingConfig,
    TimeInterval,
)
from repro.reachgraph import ReachGraphIndex, ReachGraphQueryProcessor, VertexRecord
from repro.reachgraph import index as index_module
from repro.storage import BlockFile, StorageSystem
from repro.storage.backends.base import StorageBackend, encode_payload
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamingReachabilityService,
)
from repro.workloads.queries import random_queries

RECORD = VertexRecord(
    node_id=7,
    start=3,
    end=9,
    members=(1, 4, 6),
    successors=(8, 9),
    predecessors=(2,),
    long_successors=((4, (11,)), (8, (15, 16))),
)


def history(pair) -> list:
    """An object-index value as its ``(start, node)`` segments."""
    starts, nodes = pair
    return list(zip(memoryview(starts).cast("q"), memoryview(nodes).cast("q")))


# ----------------------------------------------------------------------
# record shape
# ----------------------------------------------------------------------
class TestVertexRecordShape:
    def test_index_writes_plain_tuples_in_field_order(self, tiny_reachgraph):
        dag = tiny_reachgraph.dag
        for partition_id, member_ids in enumerate(tiny_reachgraph.partitioning.members):
            rows = tiny_reachgraph.read_partition(partition_id)
            assert [row[0] for row in rows] == member_ids
            for row in rows:
                assert type(row) is tuple and len(row) == len(VertexRecord._fields)
                record = VertexRecord._make(row)
                node = dag.node(record.node_id)
                assert record.interval == node.interval
                assert record.members == tuple(sorted(node.members))
                assert record.successors == tuple(dag.successors(record.node_id))
                assert record.predecessors == tuple(dag.predecessors(record.node_id))

    def test_round_trips_through_pickle_equal_and_hashable(self):
        """Blocks written before records became plain tuples hold
        ``VertexRecord`` rows; they must still decode, equal and hashable."""
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(RECORD, protocol=protocol))
            assert type(restored) is VertexRecord
            assert restored == RECORD
            assert hash(restored) == hash(RECORD)
        assert len({RECORD, pickle.loads(pickle.dumps(RECORD))}) == 1

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            RECORD.end = 10  # type: ignore[misc]
        with pytest.raises(AttributeError):
            RECORD.extra = 1  # type: ignore[attr-defined]

    def test_field_order_is_the_positional_contract(self):
        # query.py unpacks records positionally; reordering fields would
        # silently swap what the traversal reads.
        assert VertexRecord._fields == (
            "node_id",
            "start",
            "end",
            "members",
            "successors",
            "predecessors",
            "long_successors",
        )
        assert tuple(RECORD) == (
            7, 3, 9, (1, 4, 6), (8, 9), (2,), ((4, (11,)), (8, (15, 16)))
        )

    def test_keeps_its_helpers(self):
        assert (RECORD.interval.start, RECORD.interval.end) == (3, 9)
        assert RECORD.long_successors_at(8) == (15, 16)
        assert RECORD.long_successors_at(2) == ()
        assert VertexRecord._make(tuple(RECORD)) == RECORD

    def test_dumped_block_names_no_dataclasses_global(self):
        """An earlier-shaped block names the class, never ``dataclasses``."""
        block = [RECORD._replace(node_id=node_id) for node_id in range(8)]
        blob = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
        listing = io.StringIO()
        pickletools.dis(blob, out=listing)
        assert "dataclasses" not in listing.getvalue()
        assert "VertexRecord" in listing.getvalue()


# ----------------------------------------------------------------------
# the codec: blocks decode to tuples, ints and bytes only
# ----------------------------------------------------------------------
#: Opcodes that make ``pickle`` look up a global or call it while decoding.
CALLING_OPCODES = {"REDUCE", "NEWOBJ", "NEWOBJ_EX", "GLOBAL", "STACK_GLOBAL", "INST", "OBJ"}


def calling_opcodes(payload) -> set:
    return {
        opcode.name
        for opcode, _, _ in pickletools.genops(encode_payload(payload))
    } & CALLING_OPCODES


class TestCodec:
    @staticmethod
    def payloads(index, blocks):
        disk = index.storage.disk
        return [disk.read(block_id) for block_id in blocks]

    def test_partition_blocks_pickle_no_call(self, tiny_reachgraph):
        partitions = tiny_reachgraph._partitions_file
        blocks = [
            block_id
            for key in partitions.extent_keys()
            for block_id in partitions.extent(key).block_ids
        ]
        payloads = self.payloads(tiny_reachgraph, blocks)
        assert payloads and all(payload for payload in payloads)
        for payload in payloads:
            assert calling_opcodes(payload) == set()

    def test_buckets_pickle_no_call(self, tiny_reachgraph):
        payloads = self.payloads(
            tiny_reachgraph, tiny_reachgraph._object_index.bucket_blocks
        )
        assert any(payloads)
        for bucket in payloads:
            assert calling_opcodes(bucket) == set()
            for starts, nodes in bucket.values():
                assert type(starts) is bytes and type(nodes) is bytes

    def test_the_earlier_shapes_did_call(self):
        """The pin has teeth: the shapes written before this codec pickle
        a call per record and per history array."""
        assert calling_opcodes([RECORD]) >= {"REDUCE"}
        assert calling_opcodes({1: (array("q", [0]), array("q", [3]))}) >= {"REDUCE"}


# ----------------------------------------------------------------------
# packed buckets answer exactly as the DAG's segments do
# ----------------------------------------------------------------------
def assert_object_index_matches_dag(index: ReachGraphIndex, context: str) -> None:
    """``find_vertex_id`` against a brute-force scan, every object and tick."""
    dag = index.dag
    for object_id in index.domain.object_ids:
        segments = dag.assignment_segments(object_id)
        first_start = segments[0][0]
        with pytest.raises(IndexConstructionError):
            index.find_vertex_id(object_id, first_start - 1)
        for start, node_id in segments:
            assert index.find_vertex_id(object_id, start) == node_id, context
        for t in range(first_start, dag.horizon.end + 1):
            expected = [node_id for start, node_id in segments if start <= t][-1]
            assert index.find_vertex_id(object_id, t) == expected, (
                f"{context}: object {object_id} at t={t}"
            )


def assert_slot_directory_matches_extents(
    index: ReachGraphIndex, member_orders: dict, context: str
) -> None:
    """``locate`` addresses every vertex's own record; no partition reorders.

    ``member_orders`` remembers each partition id's member order from the
    first time it was seen (earlier calls, earlier processes): a partition
    may be tombstoned later, never rearranged.
    """
    partitions = {}
    for node_id in range(index.num_vertices):
        partition_id, slot = index.locate(node_id)
        assert partition_id == index.partition_of(node_id), context
        if partition_id not in partitions:
            partitions[partition_id] = index.read_partition(partition_id)
        assert partitions[partition_id][slot][0] == node_id, (
            f"{context}: vertex {node_id} is not at slot {slot} of "
            f"partition {partition_id}"
        )
    members = index.partitioning.members
    assert sorted(partitions) == [p for p, ids in enumerate(members) if ids], context
    for partition_id, member_ids in enumerate(members):
        first_seen = member_orders.setdefault(partition_id, list(member_ids))
        assert member_ids in (first_seen, []), (
            f"{context}: partition {partition_id} was reordered"
        )


def assert_starts_match_records(index: ReachGraphIndex, context: str) -> None:
    """``vertices_starting_by(t)`` against a count of the device's records
    starting at or before ``t``, for every ``t`` of the horizon and one
    tick either side."""
    starts = [
        record[1]
        for partition_id, member_ids in enumerate(index.partitioning.members)
        if member_ids
        for record in index.read_partition(partition_id)
    ]
    assert len(starts) == index.num_vertices, context
    horizon = index.domain.horizon
    for t in range(horizon.start - 1, horizon.end + 2):
        expected = sum(1 for start in starts if start <= t)
        assert index.vertices_starting_by(t) == expected, f"{context}: t={t}"


def live_index(service) -> ReachGraphIndex:
    return service.overlay.snapshot_processor.index


def make_service(dataset, contact_config, storage_config):
    service = StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=contact_config,
        streaming_config=StreamingConfig(graph_repack_min_partitions=2),
        storage_config=storage_config,
    )
    service.auto_merge = False
    return service


class TestPackedObjectIndex:
    def test_batch_build_stores_parallel_int64_arrays(self, tiny_reachgraph):
        """Two ``bytes`` of native int64, one entry per assignment segment."""
        object_id = tiny_reachgraph.dataset.object_ids[0]
        pair = tiny_reachgraph._object_index.get(object_id)
        starts, nodes = pair
        assert type(starts) is bytes and type(nodes) is bytes
        segments = tiny_reachgraph.dag.assignment_segments(object_id)
        assert len(starts) == len(nodes) == 8 * len(segments)
        assert starts == array("q", [start for start, _ in segments]).tobytes()
        assert history(pair) == segments
        assert_object_index_matches_dag(tiny_reachgraph, "batch build")

    @pytest.mark.parametrize("backend", STORAGE_BACKENDS)
    def test_matches_the_dag_through_increments_repack_and_reopen(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        segments_after_build = None
        member_orders: dict = {}
        for position, batch in enumerate(
            DatasetReplaySource(tiny_dataset, batch_ticks=8).batches()
        ):
            service.ingest(batch)
            if position % 3 != 2:
                continue
            service.merge()
            index = live_index(service)
            context = f"backend={backend}, increments={index.num_increments}"
            assert_object_index_matches_dag(index, context)
            assert_slot_directory_matches_extents(index, member_orders, context)
            assert_starts_match_records(index, context)
            if segments_after_build is None:
                assert index.num_increments == 0
                segments_after_build = {
                    object_id: len(index.dag.assignment_segments(object_id))
                    for object_id in tiny_dataset.object_ids
                }
        service.merge()
        index = live_index(service)
        assert index.num_increments >= 3
        assert index.num_repacks >= 1, "the stream must exercise a frontier repack"
        assert any(
            len(index.dag.assignment_segments(object_id)) > count
            for object_id, count in segments_after_build.items()
        ), "the increments must have split a component (appended segments)"
        assert any(
            not ids for ids in index.partitioning.members
        ), "the repack must have tombstoned a partition"
        assert_object_index_matches_dag(index, f"backend={backend}, final")
        assert_slot_directory_matches_extents(
            index, member_orders, f"backend={backend}, final"
        )
        assert_starts_match_records(index, f"backend={backend}, final")
        service.close()
        if backend == "sim":  # nothing outlives the process to reopen
            return

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        context = f"backend={backend}, reopened"
        assert_object_index_matches_dag(live_index(reopened), context)
        assert_slot_directory_matches_extents(
            live_index(reopened), member_orders, context
        )
        assert_starts_match_records(live_index(reopened), context)
        reopened.close()

    def test_increment_leaves_the_previous_arrays_untouched(
        self, tiny_dataset, tiny_contact_config
    ):
        """The sim backend hands out the stored objects themselves, so an
        increment must store new values, never change the ones a reader holds."""
        service = make_service(tiny_dataset, tiny_contact_config, None)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=8).batches())
        for batch in batches[:5]:
            service.ingest(batch)
        service.merge()
        index = live_index(service)
        held = {
            object_id: index._object_index.get(object_id)
            for object_id in tiny_dataset.object_ids
        }
        before = {object_id: history(pair) for object_id, pair in held.items()}
        for batch in batches[5:]:
            service.ingest(batch)
        service.merge()
        assert index.num_increments == 1
        assert any(
            len(history(index._object_index.get(object_id))) > len(before[object_id])
            for object_id in tiny_dataset.object_ids
        )
        for object_id, pair in held.items():
            assert history(pair) == before[object_id]

    def test_restore_drops_a_phantom_trailing_segment(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Bucket rewrites go through the buffer pool in place, so a crash
        can leave a bucket durably ahead of the cataloged graph; restore
        must rewrite it from the partition extents' truth."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        service.drain(tiny_dataset)
        service.merge()
        index = live_index(service)
        table_name = f"{index.name}-object-index"
        victim = tiny_dataset.object_ids[3]
        truth = index.dag.assignment_segments(victim)
        phantom_node = index.num_vertices  # a vertex the catalog never saw
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        table = storage.hashtable(table_name)
        starts, nodes = table.get(victim)
        assert history((starts, nodes)) == truth
        table.update(
            victim,
            (
                starts + array("q", [tiny_dataset.horizon.end + 1]).tobytes(),
                nodes + array("q", [phantom_node]).tobytes(),
            ),
        )
        storage.close()

        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        restored = live_index(reopened)
        segments = history(restored._object_index.get(victim))
        assert segments == truth
        assert phantom_node not in [node for _, node in segments]
        assert_object_index_matches_dag(restored, "after reconciliation")
        reopened.close()


class TestSlotDirectory:
    def test_batch_build_addresses_every_vertex(self, tiny_reachgraph):
        assert_slot_directory_matches_extents(tiny_reachgraph, {}, "batch build")

    def test_truncated_extent_is_refused_at_load(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        """A slot must never resolve to a neighbour's record: an extent that
        lost (or gained) records fails the one check a partition load makes."""
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(),
            tiny_contact_config,
            contact_network=tiny_network,
        ).build()
        partition_id, records = next(
            (partition_id, index.read_partition(partition_id))
            for partition_id, ids in enumerate(index.partitioning.members)
            if len(ids) > 1
        )
        index._partitions_file.replace_extent(partition_id, records[1:])
        with pytest.raises(IndexConstructionError, match="records on the device"):
            index.read_partition(partition_id)
        # The same refusal reaches a query whose source vertex lives there.
        victim = VertexRecord._make(records[0])
        source = victim.members[0]
        destination = next(o for o in tiny_dataset.object_ids if o != source)
        query = ReachabilityQuery(
            source, destination, TimeInterval(victim.start, tiny_dataset.horizon.end)
        )
        with pytest.raises(IndexConstructionError, match="records on the device"):
            ReachGraphQueryProcessor(index, use_labels=False).evaluate(query)


    @pytest.mark.parametrize("directory", (True, False))
    @pytest.mark.parametrize(
        "reopen", [SnapshotQueryService.open, StreamingReachabilityService.open]
    )
    def test_truncated_extent_is_refused_at_restore_before_any_query(
        self, reopen, directory, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """A reopen over a shortened extent fails at the restore, not at
        whichever query first lands on the partition: the directory's member
        count disagrees with the extent's cataloged record count — or, on a
        device without a directory, the dense vertex ids of the records the
        restore reads are the proof that none was lost."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        service.drain(tiny_dataset)
        service.merge()
        index = live_index(service)
        partition_id = next(
            partition_id
            for partition_id, ids in enumerate(index.partitioning.members)
            if len(ids) > 1
        )
        lost = index.partitioning.members[partition_id][0]
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        partitions = storage.blockfile(f"{index.name}-partitions")
        size = len(partitions.read_extent(partition_id))
        partitions.replace_extent(partition_id, partitions.read_extent(partition_id)[1:])
        if not directory:
            storage.drop_blockfile(f"{index.name}-directory")
        storage.close()

        refusal = (
            f"^partition {partition_id} holds {size - 1} records on the device, "
            f"its directory lists {size} members$"
            if directory
            else f"missing vertex {lost}$"
        )
        with pytest.raises(IndexConstructionError, match=refusal):
            reopen(storage_config, name=service.name)


# ----------------------------------------------------------------------
# vertex ids are in start order, and the in-memory starts say so exactly
# ----------------------------------------------------------------------
class TestStartOrder:
    def test_batch_build_counts_every_start(self, tiny_reachgraph):
        assert_starts_match_records(tiny_reachgraph, "batch build")

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_a_start_out_of_id_order_is_refused_at_restore(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """The midpoint test is exact only on start-ordered ids, so a device
        whose record starts decrease with id is refused by the open, before
        it can serve a query.  Here the device has no directory, so the open
        derives the starts from the records; the directory's own starts are
        checked the same way (``test_graph_directory.py``)."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        service.drain(tiny_dataset)
        service.merge()
        index = live_index(service)
        victim = next(
            node_id
            for node_id in range(1, index.num_vertices)
            if index.dag.node(node_id - 1).interval.start > tiny_dataset.horizon.start
        )
        earlier = index.dag.node(victim - 1).interval.start - 1
        partition_id = index.partition_of(victim)
        service.close()

        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        partitions = storage.blockfile(f"{index.name}-partitions")
        records = list(partitions.read_extent(partition_id))
        records = [
            (victim, earlier, *record[2:]) if record[0] == victim else record
            for record in records
        ]
        partitions.replace_extent(partition_id, records)
        storage.drop_blockfile(f"{index.name}-directory")
        storage.close()

        with pytest.raises(
            IndexConstructionError, match=f"^vertex {victim} starts at t={earlier}, "
        ):
            SnapshotQueryService.open(storage_config, name=service.name)


# ----------------------------------------------------------------------
# another on-device format is refused up front
# ----------------------------------------------------------------------
class TestFormatGate:
    def test_catalog_names_the_format(self, tiny_reachgraph):
        assert tiny_reachgraph.catalog()["format"] == 2

    @pytest.mark.parametrize("found", [None, 1, 3])
    def test_restore_refuses_before_reading_any_block(
        self, found, tmp_path, tiny_dataset, tiny_network, tiny_contact_config
    ):
        storage = StorageSystem(
            StorageConfig(backend="file", storage_dir=str(tmp_path)), name="gate"
        )
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(),
            tiny_contact_config,
            contact_network=tiny_network,
            storage=storage,
        ).build()
        catalog = index.catalog()
        if found is None:
            del catalog["format"]
        else:
            catalog["format"] = found
        reads_before = storage.stats.total_reads
        with pytest.raises(IndexConstructionError) as error:
            ReachGraphIndex.restore(storage, catalog, tiny_dataset.horizon)
        assert f"format {found!r}" in str(error.value)
        assert "expected format 2" in str(error.value)
        assert storage.stats.total_reads == reads_before
        storage.close()


# ----------------------------------------------------------------------
# a catalog that still carries the labels restores the same ones
# ----------------------------------------------------------------------
class TestLegacyLabelCatalog:
    def test_catalog_names_whether_labels_are_on(
        self, graph_labels, tiny_dataset, tiny_network, tiny_contact_config
    ):
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(interval_labels=graph_labels),
            tiny_contact_config,
            contact_network=tiny_network,
        ).build()
        catalog = index.catalog()
        assert catalog["interval_labels"] is graph_labels
        assert "labels" not in catalog

    def test_labels_entry_restores_labels_on_or_off_as_catalogued(
        self, graph_labels, tmp_path, tiny_dataset, tiny_network, tiny_contact_config
    ):
        storage = StorageSystem(
            StorageConfig(backend="file", storage_dir=str(tmp_path)), name="legacy"
        )
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(interval_labels=graph_labels),
            tiny_contact_config,
            contact_network=tiny_network,
            storage=storage,
        ).build()
        catalog = index.catalog()
        del catalog["interval_labels"]
        catalog["labels"] = legacy_catalog_entry(index.dag) if graph_labels else None
        restored = ReachGraphIndex.restore(storage, catalog, tiny_dataset.horizon)
        if graph_labels:
            entry = catalog["labels"]
            assert [
                restored.labels.label(node_id)
                for node_id in range(restored.num_vertices)
            ] == list(zip(entry["lows"], entry["ranks"]))
        else:
            assert restored.labels is None
        storage.close()


# ----------------------------------------------------------------------
# the overlay's graph catalog: one name, no version counter
# ----------------------------------------------------------------------
OVERLAY_MANIFEST_KEY = "overlay-manifest"


class TestOverlayGraphCatalog:
    @staticmethod
    def _graph_files(storage):
        return sorted(
            name for name in storage.blockfile_names() if name.startswith("graph-")
        )

    def test_merges_keep_the_graph_under_one_name(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        for position, batch in enumerate(
            DatasetReplaySource(tiny_dataset, batch_ticks=20).batches()
        ):
            service.ingest(batch)
            if position % 2:
                service.merge()
        service.merge()
        index = service.overlay.snapshot_processor.index
        assert index.num_increments == service.num_merges - 1
        assert self._graph_files(service.overlay.storage) == [
            "graph-v1-directory",
            "graph-v1-partitions",
        ]
        assert set(service.overlay.graph_catalog()) == {"index"}
        service.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_catalog_with_a_version_counter_still_reopens(
        self, backend, tmp_path, tiny_dataset, tiny_network, tiny_contact_config
    ):
        """A device whose overlay catalog still names ``"version"`` (as
        written before the counter was retired) reopens read-only and
        resumes: the graph is restored, then patched, never rebuilt."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=20).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            service.ingest(batch)
        service.merge()
        name = service.name
        service.close()

        overlay = StorageSystem(storage_config, name=f"{name}-overlay")
        manifest = overlay.get_metadata(OVERLAY_MANIFEST_KEY)
        manifest["graph"]["version"] = 1
        overlay.put_metadata(OVERLAY_MANIFEST_KEY, manifest)
        overlay.close()

        workload = random_queries(tiny_dataset, count=12, seed=19)
        reopened = SnapshotQueryService.open(storage_config, name=name)
        assert reopened.overlay.has_reachgraph
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, 30.0, through=reopened.watermark)
            ),
            {"reopened": reopened.query},
            workload,
            context=f"versioned catalog, read-only, {backend}",
        )
        reopened.close()

        resumed = StreamingReachabilityService.open(
            storage_config, name=name, auto_merge=False
        )
        restored = resumed.overlay.snapshot_processor.index
        increments = restored.num_increments
        for batch in batches[half:]:
            resumed.ingest(batch)
        resumed.merge()
        assert resumed.overlay.snapshot_processor.index is restored
        assert restored.num_increments == increments + 1, "the restored graph is patched"
        assert self._graph_files(resumed.overlay.storage) == [
            "graph-v1-directory",
            "graph-v1-partitions",
        ]
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"resumed": resumed.query},
            workload,
            context=f"versioned catalog, resumed, {backend}",
        )
        resumed.close()


# ----------------------------------------------------------------------
# a device written with the earlier payload shapes
# ----------------------------------------------------------------------
class TestEarlierPayloadShapes:
    """Format 2 first stored ``VertexRecord`` rows and ``array('q')``
    histories.  Such a device keeps ``"format": 2``: its rows read
    positionally like the plain tuples written now, its histories read as
    int64 runs either way, a read-only open leaves both as they are (the
    bucket values agree with the records), and a resumed writer rewrites
    every history as ``bytes``."""

    @staticmethod
    def write_earlier_shapes(monkeypatch, service, batches):
        """Drive ``service`` while the index writes the earlier shapes."""

        def rows_as_named_tuples(write):
            def patched_write(blockfile, key, records):
                if blockfile.name.endswith("-partitions"):
                    records = [VertexRecord._make(row) for row in records]
                return write(blockfile, key, records)

            return patched_write

        def segments_as_arrays(segments):
            starts, nodes = zip(*segments)
            return array("q", starts), array("q", nodes)

        with monkeypatch.context() as patched:
            for name in ("append_extent", "replace_extent"):
                patched.setattr(
                    BlockFile, name, rows_as_named_tuples(getattr(BlockFile, name))
                )
            patched.setattr(index_module, "_pack_segments", segments_as_arrays)
            for position, batch in enumerate(batches):
                service.ingest(batch)
                if position % 3 == 2:
                    service.merge()
            service.merge()
            assert live_index(service).num_increments >= 1
            service.close()

    @staticmethod
    def device_shapes(index):
        """``({row types}, {history types})`` of every live block of ``index``."""
        disk = index.storage.disk
        partitions = index._partitions_file
        row_types = {
            type(row)
            for key in partitions.extent_keys()
            for block_id in partitions.extent(key).block_ids
            for row in disk.read(block_id)
        }
        history_types = {
            (type(starts), type(nodes))
            for block_id in index._object_index.bucket_blocks
            for starts, nodes in disk.read(block_id).values()
        }
        return row_types, history_types

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_reopens_reconciled_and_answers_as_the_reference(
        self, backend, monkeypatch, tmp_path, tiny_dataset, tiny_network, tiny_contact_config
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(tiny_dataset, tiny_contact_config, storage_config)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=8).batches())
        half = len(batches) // 2
        self.write_earlier_shapes(monkeypatch, service, batches[:half])
        name = service.name
        workload = random_queries(tiny_dataset, count=16, seed=23)

        reopened = SnapshotQueryService.open(storage_config, name=name)
        index = live_index(reopened)
        assert index.catalog()["format"] == 2
        # The read-only open found every bucket's values right: it dirtied
        # none and the device took no write.
        assert index.storage.buffer_pool.dirty_blocks == 0
        assert index.storage.stats.writes == 0
        rows, histories = self.device_shapes(index)
        assert rows == {VertexRecord}, "the partition blocks keep the earlier rows"
        assert histories == {(array, array)}, "the device holds the earlier buckets"
        for object_id in index.domain.object_ids:
            starts, nodes = index._object_index.get(object_id)
            assert type(starts) is array and type(nodes) is array
        assert_object_index_matches_dag(index, f"earlier shapes, {backend}")
        prefix = reference_evaluator(
            prefix_network(tiny_dataset, 30.0, through=reopened.watermark)
        )
        processor = ReachGraphQueryProcessor(index)
        assert_methods_agree(
            prefix,
            {"reopened": reopened.query},
            workload,
            context=f"earlier shapes, read-only, {backend}",
        )
        horizon = index.domain.horizon
        graph_queries = [
            ReachabilityQuery(
                query.source,
                query.destination,
                TimeInterval(query.interval.start, min(query.interval.end, horizon.end)),
            )
            for query in workload
            if query.interval.start <= horizon.end
        ]
        assert len(graph_queries) >= 4
        # With no dirty frame, a partition read is one bulk device run.
        bulk_runs = CallCounter(monkeypatch, (StorageBackend, "read_run"))
        assert_methods_agree(
            prefix,
            {"bm-bfs": processor.evaluate},
            graph_queries,
            context=f"earlier shapes, BM-BFS, {backend}",
        )
        assert bulk_runs.calls["StorageBackend.read_run"] > 0
        assert index.storage.buffer_pool.dirty_blocks == 0
        assert index.storage.stats.writes == 0
        reopened.close()

        resumed = StreamingReachabilityService.open(
            storage_config, name=name, auto_merge=False
        )
        for batch in batches[half:]:
            resumed.ingest(batch)
        resumed.merge()
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"resumed": resumed.query},
            workload,
            context=f"earlier shapes, resumed, {backend}",
        )
        resumed.close()

        # The resumed writer flushed the reconciled buckets: durably bytes.
        final = SnapshotQueryService.open(storage_config, name=name)
        rows, histories = self.device_shapes(live_index(final))
        assert tuple in rows, "rewritten partitions hold plain tuples"
        assert histories == {(bytes, bytes)}
        final.close()
