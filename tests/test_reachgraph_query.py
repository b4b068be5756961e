"""Unit and integration tests for the ReachGraph index and its query strategies."""

from __future__ import annotations

import random

import pytest

from repro.baselines import evaluate_reachability
from repro.contacts import Contact, ContactNetwork
from repro.core import (
    ContactConfig,
    IndexConstructionError,
    IndexNotBuiltError,
    Point,
    QueryError,
    ReachabilityQuery,
    ReachGraphConfig,
    TimeInterval,
    UnknownObjectError,
)
from reachgraph_query_reference import ReferenceReachGraphQueryProcessor
from repro.reachgraph import (
    ReachGraphIndex,
    ReachGraphQueryProcessor,
    STRATEGIES,
    VertexRecord,
)
from repro.trajectory import Trajectory, TrajectoryDataset


@pytest.fixture(scope="module")
def figure1_reachgraph(figure1_dataset, figure1_network):
    return ReachGraphIndex(
        figure1_dataset,
        ReachGraphConfig(resolutions=(2,), partition_depth=2),
        ContactConfig(distance_threshold=10.0),
        contact_network=figure1_network,
    ).build()


class TestReachGraphIndexConstruction:
    def test_build_populates_reports(self, tiny_reachgraph):
        report = tiny_reachgraph.build_report
        assert report is not None
        assert report.reduction.dag_vertices == tiny_reachgraph.num_vertices
        assert report.num_partitions == tiny_reachgraph.num_partitions
        assert report.num_blocks == tiny_reachgraph.num_blocks > 0

    def test_double_build_rejected(self, tiny_reachgraph):
        with pytest.raises(IndexConstructionError):
            tiny_reachgraph.build()

    def test_unbuilt_index_refuses_access(self, tiny_dataset, tiny_contact_config):
        index = ReachGraphIndex(tiny_dataset, contact_config=tiny_contact_config)
        with pytest.raises(IndexNotBuiltError):
            index.read_partition(0)
        with pytest.raises(QueryError):
            ReachGraphQueryProcessor(index)

    def test_find_vertex_id_agrees_with_dag(self, tiny_reachgraph):
        dag = tiny_reachgraph.dag
        for object_id in list(tiny_reachgraph.dataset.object_ids)[:5]:
            for t in (0, 37, 100):
                assert tiny_reachgraph.find_vertex_id(object_id, t) == dag.node_of(
                    object_id, t
                )

    def test_find_vertex_for_unknown_object_raises(self, tiny_reachgraph):
        with pytest.raises(UnknownObjectError):
            tiny_reachgraph.find_vertex_id(123_456, 0)

    def test_partition_records_round_trip(self, tiny_reachgraph):
        records = tiny_reachgraph.read_partition(0)
        assert records
        for record in map(VertexRecord._make, records):
            assert tiny_reachgraph.partition_of(record.node_id) == 0
            node = tiny_reachgraph.dag.node(record.node_id)
            assert record.interval == node.interval
            assert set(record.members) == set(node.members)
            assert list(record.successors) == tiny_reachgraph.dag.successors(
                record.node_id
            )

    def test_vertex_records_store_reverse_edges(self, tiny_reachgraph):
        dag = tiny_reachgraph.dag
        for partition_id in range(min(3, tiny_reachgraph.num_partitions)):
            for record in map(
                VertexRecord._make, tiny_reachgraph.read_partition(partition_id)
            ):
                assert list(record.predecessors) == dag.predecessors(record.node_id)

    def test_long_successor_lookup(self, tiny_reachgraph):
        found_any = False
        for partition_id in range(tiny_reachgraph.num_partitions):
            for record in map(
                VertexRecord._make, tiny_reachgraph.read_partition(partition_id)
            ):
                for resolution, successors in record.long_successors:
                    found_any = True
                    assert record.long_successors_at(resolution) == successors
        assert found_any, "expected at least one long edge in the tiny dataset"
        # Unknown resolution yields the empty tuple.
        record = VertexRecord._make(tiny_reachgraph.read_partition(0)[0])
        assert record.long_successors_at(999) == ()


class TestFigure1Queries:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_paper_ground_truth_for_all_strategies(self, figure1_reachgraph, strategy):
        processor = ReachGraphQueryProcessor(figure1_reachgraph)
        assert processor.evaluate(
            ReachabilityQuery(1, 4, TimeInterval(0, 1)), strategy=strategy
        ).reachable
        assert not processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 1)), strategy=strategy
        ).reachable
        assert processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 3)), strategy=strategy
        ).reachable
        assert not processor.evaluate(
            ReachabilityQuery(1, 3, TimeInterval(2, 3)), strategy=strategy
        ).reachable


class TestReachGraphQueryProcessing:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_on_random_queries(
        self, tiny_reachgraph, tiny_network, strategy
    ):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(29)
        horizon = tiny_network.horizon
        for _ in range(30):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            start = rng.randint(horizon.start, horizon.end - 20)
            end = min(start + rng.randint(5, 70), horizon.end)
            query = ReachabilityQuery(source, destination, TimeInterval(start, end))
            expected = evaluate_reachability(tiny_network, query)
            actual = processor.evaluate(query, strategy=strategy)
            assert actual.reachable == expected.reachable, (strategy, query)

    def test_unknown_strategy_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(QueryError):
            processor.evaluate(
                ReachabilityQuery(0, 1, TimeInterval(0, 10)), strategy="dijkstra"
            )

    def test_unknown_objects_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(UnknownObjectError):
            processor.evaluate(ReachabilityQuery(55_555, 0, TimeInterval(0, 10)))

    def test_interval_outside_horizon_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(QueryError):
            processor.evaluate(ReachabilityQuery(0, 1, TimeInterval(9_000, 9_100)))

    def test_source_equals_destination(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        result = processor.evaluate(ReachabilityQuery(3, 3, TimeInterval(0, 50)))
        assert result.reachable

    def test_queries_charge_io_and_count_visits(self, tiny_reachgraph, tiny_network):
        # use_labels=False pins the unpruned traversal: with labels on, this
        # unreachable pair is rejected from the interval labels alone and
        # legitimately visits nothing.
        processor = ReachGraphQueryProcessor(tiny_reachgraph, use_labels=False)
        objects = tiny_network.object_ids
        result = processor.evaluate(
            ReachabilityQuery(objects[0], objects[-1], TimeInterval(0, 100))
        )
        assert result.io > 0
        assert result.visited > 0
        # The label layer answers the same query with zero vertex visits.
        labelled = ReachGraphQueryProcessor(tiny_reachgraph).evaluate(
            ReachabilityQuery(objects[0], objects[-1], TimeInterval(0, 100))
        )
        assert not labelled.reachable
        assert labelled.visited == 0

    def test_bmbfs_visits_no_more_than_bbfs(self, tiny_reachgraph, tiny_network):
        """The multi-resolution traversal should never explore more vertices
        than the single-resolution bidirectional traversal (Figure 13 trend)."""
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(31)
        horizon = tiny_network.horizon
        total_bm = total_b = 0
        for _ in range(20):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            query = ReachabilityQuery(
                source, destination, TimeInterval(horizon.start, horizon.end)
            )
            total_bm += processor.evaluate(query, strategy="bm-bfs").visited
            total_b += processor.evaluate(query, strategy="b-bfs").visited
        assert total_bm <= total_b

    def test_edfs_visits_at_least_as_many_as_bmbfs(self, tiny_reachgraph, tiny_network):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(37)
        horizon = tiny_network.horizon
        total_bm = total_dfs = 0
        for _ in range(20):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            query = ReachabilityQuery(
                source, destination, TimeInterval(horizon.start, horizon.end)
            )
            total_bm += processor.evaluate(query, strategy="bm-bfs").visited
            total_dfs += processor.evaluate(query, strategy="e-dfs").visited
        assert total_bm <= total_dfs


# ----------------------------------------------------------------------
# BM-BFS bounds a DN_1 neighbour from the record in hand (ISSUE 24): against
# the read-every-neighbour loops kept in tests/reachgraph_query_reference.py.
# ----------------------------------------------------------------------
def _traced(processor_class, index, use_labels):
    """A processor logging its two queues after every step and every partition read."""

    class Traced(processor_class):
        def _process_forward(self, queue, *rest):
            result = super()._process_forward(queue, *rest)
            self.steps.append(("forward", tuple(queue)))
            return result

        def _process_backward(self, queue, *rest):
            result = super()._process_backward(queue, *rest)
            self.steps.append(("backward", tuple(queue)))
            return result

    processor = Traced(index, use_labels=use_labels)
    processor.steps = []
    return processor


def _evaluate_recording_reads(processor, query, strategy):
    """``(result, queue log, partitions read)`` of one query, ledgers untouched."""
    index = processor.index
    read = []
    original = index.read_partition

    def recording(partition_id):
        read.append(partition_id)
        return original(partition_id)

    index.read_partition = recording
    processor.steps = []
    try:
        result = processor.evaluate(query, strategy=strategy)
    finally:
        del index.read_partition
    return result, processor.steps, read


@pytest.fixture(scope="module")
def vn_tiny_reachgraph(vn_tiny_dataset, vn_tiny_network):
    return ReachGraphIndex(
        vn_tiny_dataset, ReachGraphConfig(), contact_network=vn_tiny_network
    ).build()


class TestNeighbourBoundsNeedNoRead:
    @pytest.mark.parametrize("use_labels", (True, False))
    @pytest.mark.parametrize("strategy", ("bm-bfs", "b-bfs"))
    @pytest.mark.parametrize("world", ("tiny_reachgraph", "vn_tiny_reachgraph"))
    def test_same_traversal_fewer_partitions_than_the_reading_loops(
        self, request, world, strategy, use_labels
    ):
        index = request.getfixturevalue(world)
        production = _traced(ReachGraphQueryProcessor, index, use_labels)
        oracle = _traced(ReferenceReachGraphQueryProcessor, index, use_labels)
        rng = random.Random(41)
        horizon = index.domain.horizon
        production_reads = oracle_reads = 0
        for _ in range(60):
            source, destination = rng.sample(index.domain.object_ids, 2)
            start = rng.randint(horizon.start, horizon.end - 10)
            end = min(start + rng.choice((3, 10, 40, 150)), horizon.end)
            query = ReachabilityQuery(source, destination, TimeInterval(start, end))
            mine, my_steps, my_reads = _evaluate_recording_reads(
                production, query, strategy
            )
            theirs, their_steps, their_reads = _evaluate_recording_reads(
                oracle, query, strategy
            )
            assert (mine.reachable, mine.visited) == (theirs.reachable, theirs.visited)
            assert my_steps == their_steps, "a vertex was enqueued elsewhere or not at all"
            assert set(my_reads) <= set(their_reads)
            assert len(my_reads) == len(set(my_reads)), "a partition was read twice"
            # Blocks, not normalized IO: skipping a read can turn the next
            # one from sequential into random, so one query's ``io`` may rise.
            assert (
                mine.random_ios + mine.sequential_ios
                <= theirs.random_ios + theirs.sequential_ios
            )
            production_reads += len(my_reads)
            oracle_reads += len(their_reads)
        assert (production.label_rejections, production.label_frontier_prunes) == (
            oracle.label_rejections,
            oracle.label_frontier_prunes,
        )
        # The pin discriminates: the reading loops pay for neighbours they reject.
        assert production_reads < oracle_reads

    def test_rejecting_a_dn1_neighbour_reads_nothing(self):
        """Objects 0 and 1 meet at every even tick, object 2 never meets
        anyone: at depth 1 each meeting and the two singletons after it share
        a partition.  Asking 0 -> 2 over [0, 7] walks the first two meetings
        and must reject the third (tick 4, past the midpoint): the reading
        loops load its partition to find that out, production does not."""
        dataset = TrajectoryDataset(
            [Trajectory(object_id, [Point(0.0, 0.0)] * 8) for object_id in range(3)],
            environment_size=(1.0, 1.0),
        )
        network = ContactNetwork(
            dataset,
            [Contact(0, 1, TimeInterval(t, t)) for t in (0, 2, 4, 6)],
            distance_threshold=1.0,
        )
        index = ReachGraphIndex(
            dataset,
            ReachGraphConfig(resolutions=(2,), partition_depth=1),
            contact_network=network,
        ).build()
        assert index.num_partitions == 5
        query = ReachabilityQuery(0, 2, TimeInterval(0, 7))
        for processor_class, expected in (
            (ReachGraphQueryProcessor, 3),
            (ReferenceReachGraphQueryProcessor, 4),
        ):
            processor = _traced(processor_class, index, use_labels=False)
            result, _, read = _evaluate_recording_reads(processor, query, "b-bfs")
            assert not result.reachable
            assert result.visited == 9  # both endpoints, then 6 + 1 pops
            assert len(read) == expected

    def test_rejecting_a_long_edge_target_reads_nothing(self):
        """Objects 0 and 1 are alone until they meet at tick 6, object 2 is
        alone throughout: vertex 0 (object 0 over [0, 5]) has resolution-4
        long edges to vertices 4 and 5, the two singletons starting at tick
        7.  Asking 0 -> 2 over [0, 9] (midpoint 4) takes that long-edge group
        (0 + 4 <= 4) and must reject both targets: the reading loops load
        their partitions to learn their starts, production compares ids."""
        dataset = TrajectoryDataset(
            [Trajectory(object_id, [Point(0.0, 0.0)] * 10) for object_id in range(3)],
            environment_size=(1.0, 1.0),
        )
        network = ContactNetwork(
            dataset, [Contact(0, 1, TimeInterval(6, 6))], distance_threshold=1.0
        )
        index = ReachGraphIndex(
            dataset,
            ReachGraphConfig(resolutions=(4,), partition_depth=1),
            contact_network=network,
        ).build()
        assert index.hypergraph.layer(4).forward[0] == [4, 5]
        assert [index.dag.node(node_id).interval.start for node_id in (4, 5)] == [7, 7]
        assert index.vertices_starting_by(4) == 3
        query = ReachabilityQuery(0, 2, TimeInterval(0, 9))
        endpoints = {index.partition_of(0), index.partition_of(2)}
        # The DN_1 successor (vertex 3) shares vertex 0's partition, so the
        # long-edge targets are the only other partitions a reader could load.
        assert index.partition_of(3) == index.partition_of(0)
        targets = {index.partition_of(4), index.partition_of(5)}
        assert not targets & endpoints
        for processor_class, expected in (
            (ReachGraphQueryProcessor, endpoints),
            (ReferenceReachGraphQueryProcessor, endpoints | targets),
        ):
            processor = _traced(processor_class, index, use_labels=False)
            result, _, read = _evaluate_recording_reads(processor, query, "bm-bfs")
            assert not result.reachable
            assert result.visited == 4  # both endpoints, then one pop a side
            assert set(read) == expected
            assert len(read) == len(expected)
