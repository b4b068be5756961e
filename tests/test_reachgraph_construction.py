"""Unit tests for ReachGraph construction: reduction, augmentation, partitioning.

The Figure 1 scenario gives paper-stated ground truth for the reduction
(Figures 4 and 5): the per-snapshot components, the component that persists
over [2, 3] (the paper's merged c5/c7), and the resulting vertex count.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import construction_reference as reference
from repro.contacts import Contact, ContactNetwork, build_contact_network
from repro.core import IndexConstructionError, Point, ReachGraphConfig, TimeInterval
from repro.generators import RandomWaypointGenerator
from repro.reachgraph import (
    ContactDag,
    GraphFrontier,
    LongEdgeLayer,
    ReachGraphIndex,
    ReductionCursor,
    ReductionFrontier,
    VertexRecord,
    WindowSweep,
    augment_dag,
    build_layer,
    compute_graph_patch,
    next_window_start,
    partition_hypergraph,
    reduce_contact_network,
)
from repro.reachgraph.dag import HyperGraph
from repro.trajectory import Trajectory, TrajectoryDataset


class TestReductionOnFigure1:
    def test_vertex_count_matches_figure5(self, figure1_dag):
        # Components per snapshot: t0 -> {1,2},{3},{4}; t1 -> {1},{2,3,4};
        # t2 -> {1,2},{3,4}; t3 -> {1,2},{3},{4}.  The {1,2} component of t2
        # persists through t3 (the paper's merged c5/c7), giving 9 vertices.
        assert figure1_dag.num_nodes == 9

    def test_merged_component_spans_two_instants(self, figure1_dag):
        spans = {
            (node.interval.start, node.interval.end, node.members)
            for node in figure1_dag
        }
        assert (2, 3, frozenset({1, 2})) in spans

    def test_every_object_has_a_component_at_every_instant(self, figure1_dag, figure1_network):
        for t in figure1_network.horizon.instants():
            for object_id in figure1_network.object_ids:
                node_id = figure1_dag.node_of(object_id, t)
                node = figure1_dag.node(node_id)
                assert node.active_at(t)
                assert object_id in node.members

    def test_components_partition_objects_at_each_instant(self, figure1_dag, figure1_network):
        for t in figure1_network.horizon.instants():
            members = [
                node.members for node in figure1_dag.nodes_active_at(t)
            ]
            flattened = [obj for group in members for obj in group]
            assert sorted(flattened) == sorted(figure1_network.object_ids)

    def test_edges_connect_components_sharing_an_object(self, figure1_dag):
        for source_id, targets in figure1_dag.forward.items():
            source = figure1_dag.node(source_id)
            for target_id in targets:
                target = figure1_dag.node(target_id)
                assert source.members & target.members, "DN edge without shared object"
                assert source.interval.end < target.interval.start

    def test_edges_are_topologically_ordered(self, figure1_dag):
        for source_id, targets in figure1_dag.forward.items():
            assert all(source_id < target_id for target_id in targets)

    def test_reduction_report_ratios(self, figure1_network):
        _, report = reduce_contact_network(figure1_network)
        assert report.ten_vertices == 16
        assert report.dag_vertices == 9
        assert 0 < report.vertex_reduction < 1
        assert 0 < report.edge_reduction < 1

    def test_windowed_reduction(self, figure1_network):
        dag, report = reduce_contact_network(
            figure1_network, window=TimeInterval(0, 1)
        )
        assert dag.horizon == TimeInterval(0, 1)
        # t0: {1,2},{3},{4}; t1: {1},{2,3,4} -> 5 vertices.
        assert dag.num_nodes == 5
        assert report.ten_vertices == 8

    def test_reduction_shrinks_generated_networks(self, tiny_network):
        _, report = reduce_contact_network(tiny_network)
        assert report.dag_vertices < report.ten_vertices
        assert report.dag_edges < report.ten_edges
        assert report.vertex_reduction > 0.3


class TestContactDagPrimitives:
    def test_extend_node_cannot_shrink(self):
        dag = ContactDag(TimeInterval(0, 5), num_objects=2)
        node = dag.add_node(TimeInterval(0, 2), frozenset({0, 1}))
        with pytest.raises(IndexConstructionError):
            dag.extend_node(node.node_id, 1)

    def test_add_edge_deduplicates(self):
        dag = ContactDag(TimeInterval(0, 5), num_objects=2)
        a = dag.add_node(TimeInterval(0, 0), frozenset({0}))
        b = dag.add_node(TimeInterval(1, 1), frozenset({0, 1}))
        dag.add_edge(a.node_id, b.node_id)
        dag.add_edge(a.node_id, b.node_id)
        assert dag.successors(a.node_id) == [b.node_id]
        assert dag.predecessors(b.node_id) == [a.node_id]
        assert dag.num_edges == 1

    def test_node_of_unknown_object_raises(self):
        dag = ContactDag(TimeInterval(0, 5), num_objects=1)
        dag.add_node(TimeInterval(0, 5), frozenset({0}))
        with pytest.raises(IndexConstructionError):
            dag.node_of(99, 0)

    def test_node_of_time_without_assignment_raises(self):
        dag = ContactDag(TimeInterval(0, 5), num_objects=1)
        dag.add_node(TimeInterval(2, 5), frozenset({0}))
        with pytest.raises(IndexConstructionError):
            dag.node_of(0, 0)


class TestAugmentation:
    def test_long_edges_connect_reachable_boundary_components(self, figure1_dag):
        layer = build_layer(figure1_dag, resolution=2)
        # o1's component at t=0 ({1,2}) reaches o4's component at t=2 ({3,4})
        # via o2 -> o4 (t=1) -> {3,4} (t=2): a long edge must exist.
        source = figure1_dag.node_of(1, 0)
        target = figure1_dag.node_of(4, 2)
        assert target in layer.successors(source)

    def test_long_edges_are_sound_wrt_reference_reachability(self, figure1_dag, figure1_network):
        from repro.baselines import evaluate_reachability
        from repro.core import ReachabilityQuery

        layer = build_layer(figure1_dag, resolution=2)
        # Every long edge must correspond to genuine object-level reachability
        # within the window it spans.
        for source_id, targets in layer.forward.items():
            source = figure1_dag.node(source_id)
            for target_id in targets:
                target = figure1_dag.node(target_id)
                window = TimeInterval(0, 2)
                assert any(
                    evaluate_reachability(
                        figure1_network, ReachabilityQuery(a, b, window)
                    ).reachable
                    for a in source.members
                    for b in target.members
                ), (source, target)

    def test_long_edge_endpoints_are_l_apart(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        layer = build_layer(dag, resolution=8)
        for source_id, targets in layer.forward.items():
            source = dag.node(source_id)
            for target_id in targets:
                target = dag.node(target_id)
                # Source is active at some boundary ta and target at ta + 8.
                boundaries = [
                    ta
                    for ta in range(dag.horizon.start, dag.horizon.end - 7, 8)
                    if source.active_at(ta) and target.active_at(ta + 8)
                ]
                assert boundaries, (source.interval, target.interval)

    def test_augment_dag_builds_every_requested_resolution(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        hypergraph, report = augment_dag(dag, (2, 4, 8))
        assert hypergraph.resolutions == [2, 4, 8]
        assert set(report.long_edges_per_resolution) == {2, 4, 8}
        assert report.total_long_edges == hypergraph.num_long_edges

    def test_average_degree_grows_with_resolution(self, tiny_network):
        # Table 4's trend: over longer windows, objects reach more objects.
        dag, _ = reduce_contact_network(tiny_network)
        _, report = augment_dag(dag, (2, 16))
        assert (
            report.average_degree_per_resolution[16]
            >= report.average_degree_per_resolution[2]
        )

    def test_duplicate_layer_rejected(self, figure1_dag):
        layer = LongEdgeLayer(2)
        hypergraph = HyperGraph(figure1_dag, [layer])
        with pytest.raises(IndexConstructionError):
            hypergraph.add_layer(LongEdgeLayer(2))


class TestPartitioning:
    def test_every_vertex_is_assigned_exactly_once(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        hypergraph, _ = augment_dag(dag, (2, 4))
        partitioning = partition_hypergraph(hypergraph, depth=4)
        assert set(partitioning.partition_of) == set(range(dag.num_nodes))
        counted = sum(len(members) for members in partitioning.members)
        assert counted == dag.num_nodes

    def test_partition_members_are_reachable_from_their_root(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        hypergraph, _ = augment_dag(dag, ())
        partitioning = partition_hypergraph(hypergraph, depth=3)
        for members in partitioning.members:
            root = members[0]
            # BFS from the root within depth 3 must cover every member.
            frontier = {root}
            covered = {root}
            for _ in range(3):
                frontier = {
                    successor
                    for node in frontier
                    for successor in dag.successors(node)
                }
                covered |= frontier
            assert set(members) <= covered

    def test_depth_one_gives_more_partitions_than_depth_sixteen(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        hypergraph, _ = augment_dag(dag, ())
        shallow = partition_hypergraph(hypergraph, depth=1)
        deep = partition_hypergraph(hypergraph, depth=16)
        assert shallow.num_partitions >= deep.num_partitions
        assert shallow.average_partition_size() <= deep.average_partition_size()

    def test_partition_sizes_sum_to_vertex_count(self, figure1_dag):
        hypergraph, _ = augment_dag(figure1_dag, (2,))
        partitioning = partition_hypergraph(hypergraph, depth=2)
        assert sum(partitioning.partition_sizes()) == figure1_dag.num_nodes


# ----------------------------------------------------------------------
# Construction oracles: the per-window sweep and the cleared-radius placement
# against the rescanning implementations kept in construction_reference.py.
# ----------------------------------------------------------------------
SWEEP_RESOLUTIONS = (2, 3, 4, 8)
PLACEMENT_DEPTHS = (1, 2, 3, 8, 32)


@st.composite
def contact_worlds(draw, min_ticks=4):
    """A small random contact network: ``(dataset, contacts)``.

    Positions are irrelevant (the network is built from the drawn contacts
    directly), so every object sits still.
    """
    num_objects = draw(st.integers(min_value=2, max_value=6))
    ticks = draw(st.integers(min_value=min_ticks, max_value=26))
    dataset = TrajectoryDataset(
        [Trajectory(object_id, [Point(0.0, 0.0)] * ticks) for object_id in range(num_objects)],
        environment_size=(1.0, 1.0),
        name="drawn",
    )
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_objects - 1),
                st.integers(0, num_objects - 1),
                st.integers(0, ticks - 1),
                st.integers(0, 5),
            ).filter(lambda contact: contact[0] != contact[1]),
            max_size=30,
        )
    )
    contacts = [
        Contact.between(a, b, TimeInterval(start, min(start + extra, ticks - 1)))
        for a, b, start, extra in raw
    ]
    return dataset, contacts


def _network(dataset, contacts, ticks=None):
    """The contact network of the first ``ticks`` instants (all by default)."""
    if ticks is not None:
        dataset = dataset.restricted(ticks)
        end = dataset.horizon.end
        contacts = [c.clipped(0, end) for c in contacts if c.validity.start <= end]
    return ContactNetwork(dataset, contacts, distance_threshold=1.0)


def _views(dag):
    return [(node.node_id, node.interval.start, node.interval.end) for node in dag.nodes]


def _assert_directory_matches_members(partitioning, num_nodes):
    assert set(partitioning.partition_of) == set(range(num_nodes))
    for partition_id, members in enumerate(partitioning.members):
        for slot, node_id in enumerate(members):
            assert partitioning.partition_of[node_id] == partition_id
            assert partitioning.slot_of[node_id] == slot


class CountingViews(Sequence):
    """A view list counting every element handed out (slices by their length)."""

    def __init__(self, views):
        self._views = views
        self.accesses = 0

    def __len__(self):
        return len(self._views)

    def __getitem__(self, index):
        result = self._views[index]
        self.accesses += len(result) if isinstance(index, slice) else 1
        return result


class CountingForward(dict):
    """``dag.forward`` counting every successor-list read."""

    reads = 0

    def __getitem__(self, node_id):
        self.reads += 1
        return super().__getitem__(node_id)


class TestWindowSweepOracle:
    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_edges_equal_the_rescanning_sweep_in_order(self, world):
        dag, _ = reduce_contact_network(_network(*world))
        views, horizon = _views(dag), dag.horizon
        sweep = WindowSweep(views, dag.forward)
        for resolution in SWEEP_RESOLUTIONS:
            edges, cursor = sweep.edges_through(resolution, horizon.start, horizon.end)
            assert edges == reference.windows_edges(
                views, dag.successors, resolution, horizon.start, horizon.end
            )
            assert cursor == next_window_start(horizon.start, horizon.end, resolution)
            # A pair straddles one window boundary pair only: never emitted twice.
            assert len(set(edges)) == len(edges)
            assert build_layer(dag, resolution).num_edges == len(edges)

    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_every_window_is_complete_and_sound(self, world):
        """Each window's edge set equals one confined BFS per start component."""
        dag, _ = reduce_contact_network(_network(*world))
        horizon = dag.horizon
        sweep = WindowSweep(_views(dag), dag.forward)
        for resolution in SWEEP_RESOLUTIONS:
            for ta in range(horizon.start, horizon.end - resolution + 1, resolution):
                tb = ta + resolution
                expected = set()
                for source in dag.nodes_active_at(ta):
                    reached, stack = set(), [source.node_id]
                    while stack:
                        for successor_id in dag.successors(stack.pop()):
                            if (
                                successor_id not in reached
                                and dag.node(successor_id).interval.start <= tb
                            ):
                                reached.add(successor_id)
                                stack.append(successor_id)
                    expected.update(
                        (source.node_id, node_id)
                        for node_id in reached
                        if dag.node(node_id).active_at(tb)
                    )
                # A one-window sweep, started cold at this window's cursor.
                edges, cursor = sweep.edges_through(resolution, ta, tb)
                assert set(edges) == expected
                assert cursor == tb

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    @given(contact_worlds(min_ticks=8), st.data())
    def test_incremental_patches_sweep_what_the_batch_build_sweeps(self, world, data):
        """Windows completed by >= 3 increments add up to the batch layers."""
        *_, (index, _, _, _) = _grow_index(world, data, partition_depth=4)
        rebuilt, _ = augment_dag(
            reduce_contact_network(_network(*world))[0], SWEEP_RESOLUTIONS
        )
        for resolution in SWEEP_RESOLUTIONS:
            assert (
                index.hypergraph.layer(resolution).forward
                == rebuilt.layer(resolution).forward
            )

    def test_sweep_cost_is_per_window_not_per_graph(self, tiny_network):
        """Doubling the stream doubles the views touched; rescanning squares it."""
        dag, _ = reduce_contact_network(tiny_network)
        once = _views(dag)
        shift, offset = dag.horizon.end + 1 - dag.horizon.start, dag.num_nodes
        twice = once + [
            (node_id + offset, start + shift, end + shift) for node_id, start, end in once
        ]
        forward = dict(dag.forward)
        forward.update(
            (node_id + offset, [target + offset for target in targets])
            for node_id, targets in dag.forward.items()
        )

        def accesses(sweep_windows, views):
            counted = CountingViews(views)
            through = views[-1][2]
            for resolution in (2, 4, 8, 16, 32):
                sweep_windows(counted, resolution, dag.horizon.start, through)
            return counted.accesses

        def swept(counted, resolution, ta, through):
            # One sweep per resolution charges the column build five times,
            # which is what build_layer does.
            WindowSweep(counted, forward).edges_through(resolution, ta, through)

        def rescanned(counted, resolution, ta, through):
            reference.windows_edges(counted, forward.__getitem__, resolution, ta, through)

        assert accesses(swept, twice) <= 2.5 * accesses(swept, once)
        assert accesses(swept, once) <= 3 * len(once) * 5
        # The pin discriminates: the rescanning sweep fails it.
        assert accesses(rescanned, twice) > 3.5 * accesses(rescanned, once)


class TestSweepEmitsNoDuplicate:
    """No ``(source, target)`` pair is emitted twice per resolution, however
    the windows are cut into calls: layers and ``apply_increment`` append the
    sweep's pairs with no membership scan."""

    @settings(max_examples=60, deadline=None)
    @given(contact_worlds(), st.data())
    def test_across_window_cursors(self, world, data):
        dag, _ = reduce_contact_network(_network(*world))
        horizon = dag.horizon
        sweep = WindowSweep(_views(dag), dag.forward)
        for resolution in SWEEP_RESOLUTIONS:
            cuts = data.draw(
                st.lists(st.integers(horizon.start, horizon.end), max_size=4), label="cuts"
            )
            ta, pieces = horizon.start, []
            for through in sorted(cuts) + [horizon.end]:
                edges, ta = sweep.edges_through(resolution, ta, through)
                pieces.extend(edges)
            whole, _ = sweep.edges_through(resolution, horizon.start, horizon.end)
            assert pieces == whole
            assert len(set(pieces)) == len(pieces)
            # The layer holds each source's targets in sweep order.
            grouped = {}
            for source_id, target_id in whole:
                grouped.setdefault(source_id, []).append(target_id)
            assert build_layer(dag, resolution).forward == grouped

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    @given(contact_worlds(min_ticks=8), st.data())
    def test_across_merges(self, world, data):
        """Patches from an empty index through >= 3 merges: every window's
        pairs arrive once, and together they are the batch layers."""
        dataset, contacts = world
        ticks = dataset.num_instants
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=ticks - 1), min_size=2, max_size=5),
                label="merge bounds",
            )
        )
        index = ReachGraphIndex(
            None, ReachGraphConfig(resolutions=SWEEP_RESOLUTIONS, partition_depth=4)
        )
        frontier = GraphFrontier.empty(
            dataset.object_ids, dataset.horizon.start, SWEEP_RESOLUTIONS
        )
        pairs = {resolution: [] for resolution in SWEEP_RESOLUTIONS}
        for through in cuts + [dataset.horizon.end]:
            patch = compute_graph_patch(frontier, contacts, through)
            for resolution, edges in patch.new_long_edges:
                pairs[resolution].extend(edges)
            index.apply_increment(patch)
            frontier = index.frontier()
        batch, _ = augment_dag(
            reduce_contact_network(_network(*world))[0], SWEEP_RESOLUTIONS
        )
        for resolution, emitted in pairs.items():
            assert len(set(emitted)) == len(emitted)
            layer = batch.layer(resolution)
            assert sorted(emitted) == sorted(
                (source_id, target_id)
                for source_id, targets in layer.forward.items()
                for target_id in targets
            )
            assert index.hypergraph.layer(resolution).forward == layer.forward


# ----------------------------------------------------------------------
# Reduction oracle: the change-driven cursor against the full-recompute
# cursor kept in construction_reference.py.
# ----------------------------------------------------------------------
class RecordingSink:
    """A ``DagSink`` recording vertices, DN_1 edges in order, and extensions."""

    def __init__(self, base_nodes=0):
        self.base_nodes = base_nodes
        self.nodes = []  # [node_id, start, end, members in iteration order]
        self.edges = []
        self.extensions = {}  # pre-existing vertex -> its last extended end
        self.extend_calls = 0

    def add_node(self, interval, members):
        self.nodes.append(
            [self.base_nodes + len(self.nodes), interval.start, interval.end, tuple(members)]
        )

    def extend_node(self, node_id, new_end):
        self.extend_calls += 1
        if node_id >= self.base_nodes:
            self.nodes[node_id - self.base_nodes][2] = new_end
        else:
            self.extensions[node_id] = new_end

    def add_edge(self, source_id, target_id):
        self.edges.append((source_id, target_id))


def _replay(cursor_type, object_ids, snapshots, frontier=None):
    """Replay ``(t, adjacency)`` snapshots through a fresh or resumed cursor."""
    if frontier is None:
        sink = RecordingSink()
        cursor = cursor_type(object_ids, sink)
    else:
        sink = RecordingSink(frontier.num_nodes)
        cursor = cursor_type.resume(frontier, sink)
    for t, adjacency in snapshots:
        cursor.advance(t, adjacency)
    if cursor_type is ReductionCursor:
        cursor.finish()
    return sink


def _frontier_at(nodes, object_ids, start, end):
    """The reduction frontier after tick ``end`` of a recorded batch replay."""
    alive = [(node_id, members) for node_id, first, last, members in nodes if first <= end <= last]
    return ReductionFrontier(
        start=start,
        end=end,
        num_nodes=sum(1 for _, first, _, _ in nodes if first <= end),
        object_ids=tuple(object_ids),
        assignments=tuple(
            (member, node_id) for node_id, members in alive for member in members
        ),
        open_members=tuple(alive),
    )


def _assert_cursor_matches_the_reference(network):
    """Batch, and resumed from a frontier at every tick: the same vertices
    (ids, intervals, member order), DN_1 edges in order and final extensions,
    with one ``extend_node`` per vertex that outlives its first tick."""
    horizon = network.horizon
    object_ids = network.object_ids
    snapshots = [(t, network.snapshot_adjacency(t)) for t in horizon.instants()]
    expected = _replay(reference.ReductionCursor, object_ids, snapshots)
    actual = _replay(ReductionCursor, object_ids, snapshots)
    assert actual.nodes == expected.nodes
    assert actual.edges == expected.edges
    assert actual.extend_calls == sum(1 for _, first, last, _ in actual.nodes if last > first)
    for position, (end, _) in enumerate(snapshots):
        frontier = _frontier_at(expected.nodes, object_ids, horizon.start, end)
        rest = snapshots[position + 1 :]
        expected_rest = _replay(reference.ReductionCursor, object_ids, rest, frontier)
        actual_rest = _replay(ReductionCursor, object_ids, rest, frontier)
        assert actual_rest.nodes == expected_rest.nodes
        assert actual_rest.edges == expected_rest.edges
        assert actual_rest.extensions == expected_rest.extensions
        assert actual_rest.extend_calls == len(actual_rest.extensions) + sum(
            1 for _, first, last, _ in actual_rest.nodes if last > first
        )


class TestReductionCursorOracle:
    def test_random_waypoint_world(self, tiny_network):
        _assert_cursor_matches_the_reference(tiny_network)

    def test_vehicle_network_world(self, vn_tiny_network):
        _assert_cursor_matches_the_reference(vn_tiny_network)

    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_drawn_worlds(self, world):
        _assert_cursor_matches_the_reference(_network(*world))

    def test_dag_equals_the_reference_replay(self, tiny_network):
        """The batch DAG through the sink ``reduce_contact_network`` uses."""
        dag, _ = reduce_contact_network(tiny_network)
        expected = ContactDag(tiny_network.horizon, tiny_network.dataset.num_objects)
        cursor = reference.ReductionCursor(tiny_network.object_ids, expected)
        for t in tiny_network.horizon.instants():
            cursor.advance(t, tiny_network.snapshot_adjacency(t))
        assert [
            (node.node_id, node.interval, tuple(node.members)) for node in dag.nodes
        ] == [(node.node_id, node.interval, tuple(node.members)) for node in expected.nodes]
        assert dag.forward == expected.forward and dag.backward == expected.backward

    def test_extensions_are_once_per_vertex_not_per_tick(self, tiny_network):
        """The reference extends on every tick a vertex persists; the cursor once."""
        snapshots = [
            (t, tiny_network.snapshot_adjacency(t)) for t in tiny_network.horizon.instants()
        ]
        expected = _replay(reference.ReductionCursor, tiny_network.object_ids, snapshots)
        actual = _replay(ReductionCursor, tiny_network.object_ids, snapshots)
        persisted = sum(last - first for _, first, last, _ in expected.nodes)
        assert expected.extend_calls == persisted
        assert actual.extend_calls < persisted / 2


def _assert_report_matches_the_reference(network):
    """The whole horizon and two windows that clip it: the report's counts
    equal the reference replay's DAG and the per-instant TEN edge count."""
    horizon = network.horizon
    windows = [
        horizon,
        TimeInterval(horizon.start + 1, horizon.end - 1),
        TimeInterval(horizon.start, (horizon.start + horizon.end) // 2),
    ]
    for window in windows:
        dag, report = reduce_contact_network(network, window=window)
        expected = ContactDag(window, network.dataset.num_objects)
        cursor = reference.ReductionCursor(network.object_ids, expected)
        for t in window.instants():
            cursor.advance(t, network.snapshot_adjacency(t))
        assert (
            report.ten_vertices,
            report.ten_edges,
            report.dag_vertices,
            report.dag_edges,
        ) == (
            network.dataset.num_objects * window.length,
            reference.ten_edges(network, window),
            expected.num_nodes,
            expected.num_edges,
        )
    return windows


def _clips(network, window):
    """True when some contact straddles an end of ``window``."""
    return any(
        contact.validity.overlaps(window)
        and not (window.start <= contact.validity.start and contact.validity.end <= window.end)
        for contact in network.contacts
    )


class TestReductionReport:
    def test_random_waypoint_world(self, tiny_network):
        windows = _assert_report_matches_the_reference(tiny_network)
        assert _clips(tiny_network, windows[1])

    def test_vehicle_network_world(self, vn_tiny_network):
        windows = _assert_report_matches_the_reference(vn_tiny_network)
        assert _clips(vn_tiny_network, windows[1])

    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_drawn_worlds(self, world):
        _assert_report_matches_the_reference(_network(*world))


def _grow_index(world, data, partition_depth):
    """Build an index over a prefix, then grow it to the full horizon in >= 3 increments.

    Yields ``(index, fresh vertex ids, member lists of the partitions created,
    vertices assigned before)`` right after each increment is applied.
    """
    dataset, contacts = world
    ticks = dataset.num_instants
    cuts = sorted(
        data.draw(
            st.sets(st.integers(min_value=2, max_value=ticks - 1), min_size=3, max_size=5),
            label="prefix lengths",
        )
    )
    config = ReachGraphConfig(
        resolutions=SWEEP_RESOLUTIONS, partition_depth=partition_depth
    )
    network = _network(dataset, contacts, cuts[0])
    index = ReachGraphIndex(network.dataset, config, contact_network=network).build()
    for length in cuts[1:] + [ticks]:
        network = _network(dataset, contacts, length)
        patch = compute_graph_patch(index.frontier(), contacts, network.dataset.horizon.end)
        assigned = set(index.partitioning.partition_of)
        placed = len(index.partitioning.members)
        index.apply_increment(patch)
        fresh = [node_id for node_id, _, _, _ in patch.new_nodes]
        yield index, fresh, index.partitioning.members[placed:], assigned


def _assert_dn1_edges_join_adjacent_ticks(index):
    """Every stored DN_1 edge ``u -> w`` has ``w.start == u.end + 1``, both ways."""
    records = {
        record.node_id: record
        for partition_id, members in enumerate(index.partitioning.members)
        if members
        for record in map(VertexRecord._make, index.read_partition(partition_id))
    }
    assert len(records) == index.num_vertices
    edges = 0
    for record in records.values():
        for successor_id in record.successors:
            assert records[successor_id].start == record.end + 1
            assert record.node_id in records[successor_id].predecessors
            edges += 1
        for predecessor_id in record.predecessors:
            assert records[predecessor_id].end == record.start - 1
    return edges


class TestDn1EdgesJoinAdjacentTicks:
    """The invariant BM-BFS leans on to bound a DN_1 neighbour without reading
    it: the reduction only ever connects a vertex that ended at ``t - 1`` to
    one created at ``t``, and an increment extends a vertex only while it has
    no successor, so no later rewrite of a record can break it."""

    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_batch_build(self, world):
        network = _network(*world)
        index = ReachGraphIndex(
            network.dataset,
            ReachGraphConfig(resolutions=SWEEP_RESOLUTIONS, partition_depth=2),
            contact_network=network,
        ).build()
        assert _assert_dn1_edges_join_adjacent_ticks(index) == index.dag.num_edges

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    @given(contact_worlds(min_ticks=8), st.data())
    def test_build_grown_by_increments_and_repacked(self, world, data):
        for index, _, _, _ in _grow_index(world, data, partition_depth=1):
            _assert_dn1_edges_join_adjacent_ticks(index)
            index.repack_frontier(min_partitions=2)
            assert _assert_dn1_edges_join_adjacent_ticks(index) == index.dag.num_edges

    def test_generated_network(self, tiny_reachgraph):
        assert _assert_dn1_edges_join_adjacent_ticks(tiny_reachgraph) > 0


def test_empty_provided_network_is_used_not_rejoined():
    """Two objects on one spot never met when the provided network says so."""
    dataset = TrajectoryDataset(
        [Trajectory(object_id, [Point(0.0, 0.0)] * 4) for object_id in range(2)],
        environment_size=(1.0, 1.0),
    )
    network = ContactNetwork(dataset, [], distance_threshold=1.0)
    index = ReachGraphIndex(dataset, contact_network=network).build()
    assert index.network is network
    assert index.num_vertices == 2


class TestPlacementOracle:
    @settings(max_examples=60, deadline=None)
    @given(contact_worlds())
    def test_batch_members_equal_the_unpruned_search(self, world):
        dag, _ = reduce_contact_network(_network(*world))
        for depth in PLACEMENT_DEPTHS:
            partitioning = partition_hypergraph(HyperGraph(dag), depth)
            assert partitioning.members == reference.place(
                dag, dag.topological_order(), depth, set()
            )
            _assert_directory_matches_members(partitioning, dag.num_nodes)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    @given(contact_worlds(min_ticks=8), st.sampled_from(PLACEMENT_DEPTHS), st.data())
    def test_increments_place_what_the_resumed_reference_places(self, world, depth, data):
        increments = 0
        for index, fresh, created, assigned in _grow_index(world, data, depth):
            assert created == reference.place(index.dag, fresh, depth, assigned)
            _assert_directory_matches_members(index.partitioning, index.dag.num_nodes)
            increments += 1
        assert increments >= 3

    @pytest.mark.parametrize("depth", (1, 2, 4, 8, 32, 64))
    def test_generated_network_members_equal_the_unpruned_search(self, tiny_network, depth):
        dag, _ = reduce_contact_network(tiny_network)
        partitioning = partition_hypergraph(HyperGraph(dag), depth)
        assert partitioning.members == reference.place(
            dag, dag.topological_order(), depth, set()
        )

    def test_placement_cost_is_per_vertex_not_per_root(self):
        """Successor-list reads at depth 32: a few per vertex, not one per root in range."""
        dataset = RandomWaypointGenerator(
            num_objects=48, horizon=200, environment_size=(700.0, 700.0), seed=7
        ).generate()
        dag, _ = reduce_contact_network(build_contact_network(dataset, threshold=30.0))
        dag.forward = counted = CountingForward(dag.forward)
        partition_hypergraph(HyperGraph(dag), 32)
        assert counted.reads <= 8 * dag.num_nodes
        # The pin discriminates: the unpruned search fails it on this network.
        counted.reads = 0
        reference.place(dag, dag.topological_order(), 32, set())
        assert counted.reads > 20 * dag.num_nodes
