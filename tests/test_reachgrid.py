"""Unit and integration tests for ReachGrid: geometry, index, query processing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgrid_reference import ReferenceReachGridQueryProcessor
from repro.baselines import earliest_arrival, evaluate_reachability
from repro.contacts import SpatialHash, build_contact_network
from repro.core import (
    ConfigurationError,
    ContactConfig,
    IndexConstructionError,
    IndexNotBuiltError,
    Point,
    QueryError,
    ReachabilityQuery,
    ReachGridConfig,
    TimeInterval,
    UnknownObjectError,
)
from repro.reachgrid import GridGeometry, ReachGridIndex, ReachGridQueryProcessor
from repro.reachgrid import cells as cells_module
from repro.reachgrid import query as query_module
from repro.streaming import StreamIngestor, replay
from repro.trajectory import Trajectory, TrajectoryDataset
from repro.trajectory.mbr import MBR
from repro.workloads.datasets import DATASETS


class TestGridGeometry:
    @pytest.fixture()
    def geometry(self):
        return GridGeometry(
            horizon=TimeInterval(0, 99),
            environment_size=(1000.0, 500.0),
            config=ReachGridConfig(temporal_resolution=20, spatial_resolution=100.0),
        )

    def test_temporal_partitioning(self, geometry):
        assert geometry.num_temporal_intervals == 5
        assert geometry.temporal_index(0) == 0
        assert geometry.temporal_index(19) == 0
        assert geometry.temporal_index(20) == 1
        assert geometry.temporal_interval(0) == TimeInterval(0, 19)
        assert geometry.temporal_interval(4) == TimeInterval(80, 99)

    def test_last_temporal_interval_is_clipped(self):
        geometry = GridGeometry(
            horizon=TimeInterval(0, 49),
            environment_size=(100.0, 100.0),
            config=ReachGridConfig(temporal_resolution=20, spatial_resolution=50.0),
        )
        assert geometry.num_temporal_intervals == 3
        assert geometry.temporal_interval(2) == TimeInterval(40, 49)

    def test_temporal_index_outside_horizon_raises(self, geometry):
        with pytest.raises(ConfigurationError):
            geometry.temporal_index(100)

    def test_temporal_interval_out_of_range_raises(self, geometry):
        with pytest.raises(ConfigurationError):
            geometry.temporal_interval(5)

    def test_temporal_indices_overlapping(self, geometry):
        assert geometry.temporal_indices_overlapping(TimeInterval(15, 45)) == [0, 1, 2]
        assert geometry.temporal_indices_overlapping(TimeInterval(200, 300)) == []

    def test_spatial_grid_dimensions(self, geometry):
        assert geometry.num_columns == 10
        assert geometry.num_rows == 5
        assert geometry.num_spatial_cells == 50

    def test_spatial_cell_assignment_and_clamping(self, geometry):
        assert geometry.spatial_cell(Point(50, 50)) == (0, 0)
        assert geometry.spatial_cell(Point(950, 450)) == (9, 4)
        # Outside positions are clamped to the border cells.
        assert geometry.spatial_cell(Point(-5, 5000)) == (0, 4)

    def test_cell_key_combines_time_and_space(self, geometry):
        assert geometry.cell_key(25, Point(150, 250)) == (1, 1, 2)

    def test_cell_bounds(self, geometry):
        bounds = geometry.cell_bounds(2, 3)
        assert (bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y) == (
            200.0,
            300.0,
            300.0,
            400.0,
        )

    def test_cells_intersecting_rectangle(self, geometry):
        rect = MBR(90.0, 0.0, 210.0, 90.0)
        keys = set(geometry.cells_intersecting(rect, temporal_index=3))
        assert keys == {(3, 0, 0), (3, 1, 0), (3, 2, 0)}

    def test_rejects_non_positive_environment(self):
        with pytest.raises(ConfigurationError):
            GridGeometry(TimeInterval(0, 9), (0.0, 10.0), ReachGridConfig())


class TestReachGridIndex:
    def test_build_reports_statistics(self, tiny_reachgrid):
        report = tiny_reachgrid.build_report
        assert report is not None
        assert report.num_cells == tiny_reachgrid.num_cells
        assert report.num_records == tiny_reachgrid.dataset.num_objects * tiny_reachgrid.dataset.num_instants
        assert report.build_seconds >= 0
        assert tiny_reachgrid.num_blocks > 0

    def test_double_build_rejected(self, tiny_reachgrid):
        with pytest.raises(IndexConstructionError):
            tiny_reachgrid.build()

    def test_double_build_rejected_on_fresh_index(
        self, tiny_dataset, tiny_contact_config
    ):
        # Same guard on an index built locally (not via the shared fixture), so
        # the error cannot be an artifact of fixture reuse across tests.
        index = ReachGridIndex(
            tiny_dataset,
            ReachGridConfig(temporal_resolution=10, spatial_resolution=100.0),
            tiny_contact_config,
        ).build()
        with pytest.raises(IndexConstructionError):
            index.build()

    def test_unbuilt_index_refuses_queries(self, tiny_dataset, tiny_contact_config):
        index = ReachGridIndex(tiny_dataset, contact_config=tiny_contact_config)
        with pytest.raises(IndexNotBuiltError):
            index.read_cell((0, 0, 0))
        with pytest.raises(QueryError):
            ReachGridQueryProcessor(index)

    def test_cell_records_are_sorted_by_time(self, tiny_reachgrid):
        key = tiny_reachgrid._cells_file.extent_keys()[0]
        records = tiny_reachgrid.read_cell(key)
        times = [record[1] for record in records]
        assert times == sorted(times)

    def test_cells_are_placed_time_major_on_disk(self, tiny_reachgrid):
        keys = tiny_reachgrid._cells_file.extent_keys()
        temporal_indices = [key[0] for key in keys]
        assert temporal_indices == sorted(temporal_indices)

    def test_every_sample_is_in_exactly_one_cell(self, tiny_reachgrid, tiny_dataset):
        total = sum(
            len(tiny_reachgrid.read_cell(key))
            for key in tiny_reachgrid._cells_file.extent_keys()
        )
        assert total == tiny_dataset.num_objects * tiny_dataset.num_instants

    def test_cells_of_object_locates_the_object(self, tiny_reachgrid, tiny_dataset):
        object_id = tiny_dataset.object_ids[0]
        geometry = tiny_reachgrid.geometry
        cells = tiny_reachgrid.cells_of_object(object_id, 0)
        assert cells, "the object must occupy at least one cell in interval 0"
        expected = geometry.cell_key(0, tiny_dataset.trajectory(object_id).position_at(0))
        assert expected[1:] in [tuple(cell) for cell in cells]

    def test_cells_of_unknown_object_is_empty(self, tiny_reachgrid):
        assert tiny_reachgrid.cells_of_object(10_000, 0) == []


class TestReachGridQueryProcessing:
    def test_figure1_ground_truth(self, figure1_dataset):
        config = ReachGridConfig(temporal_resolution=2, spatial_resolution=25.0)
        index = ReachGridIndex(
            figure1_dataset, config, ContactConfig(distance_threshold=10.0)
        ).build()
        processor = ReachGridQueryProcessor(index)
        assert processor.evaluate(
            ReachabilityQuery(1, 4, TimeInterval(0, 1))
        ).reachable
        assert not processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 1))
        ).reachable
        assert processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 3))
        ).reachable

    def test_matches_reference_on_random_queries(self, tiny_reachgrid, tiny_network):
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        rng = random.Random(13)
        horizon = tiny_network.horizon
        for _ in range(40):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            start = rng.randint(horizon.start, horizon.end - 20)
            end = min(start + rng.randint(5, 60), horizon.end)
            query = ReachabilityQuery(source, destination, TimeInterval(start, end))
            expected = evaluate_reachability(tiny_network, query)
            actual = processor.evaluate(query)
            assert actual.reachable == expected.reachable, query
            if expected.reachable:
                assert actual.earliest_time == expected.earliest_time, query

    def test_query_charges_io(self, tiny_reachgrid, tiny_network):
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        objects = tiny_network.object_ids
        result = processor.evaluate(
            ReachabilityQuery(objects[0], objects[-1], TimeInterval(0, 60))
        )
        assert result.io > 0
        assert result.visited > 0
        assert result.cpu_seconds >= 0

    def test_source_equals_destination_costs_nothing(self, tiny_reachgrid):
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        result = processor.evaluate(ReachabilityQuery(0, 0, TimeInterval(5, 50)))
        assert result.reachable
        assert result.io == 0.0

    def test_unknown_objects_rejected(self, tiny_reachgrid):
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        with pytest.raises(UnknownObjectError):
            processor.evaluate(ReachabilityQuery(9_999, 0, TimeInterval(0, 10)))
        with pytest.raises(UnknownObjectError):
            processor.evaluate(ReachabilityQuery(0, 9_999, TimeInterval(0, 10)))

    def test_query_outside_horizon_rejected(self, tiny_reachgrid):
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        with pytest.raises(QueryError):
            processor.evaluate(ReachabilityQuery(0, 1, TimeInterval(5_000, 5_100)))

    def test_early_termination_reads_fewer_cells_for_adjacent_objects(
        self, tiny_reachgrid, tiny_network
    ):
        """A query whose destination is met almost immediately should touch far
        fewer cells than one that needs the whole interval."""
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        contact = tiny_network.contacts[0]
        easy = processor.evaluate(
            ReachabilityQuery(
                contact.first,
                contact.second,
                TimeInterval(contact.validity.start, tiny_network.horizon.end),
            )
        )
        assert easy.reachable
        # An unreachable (or late-reachable) pair over the same interval.
        hard_io = max(
            processor.evaluate(
                ReachabilityQuery(contact.first, other, TimeInterval(contact.validity.start, tiny_network.horizon.end))
            ).io
            for other in tiny_network.object_ids[:10]
            if other not in contact.objects
        )
        assert easy.io <= hard_io


# ----------------------------------------------------------------------
# The frontier join against the all-pairs oracle (tests/reachgrid_reference.py)
# ----------------------------------------------------------------------
RESULT_FIELDS = (
    "reachable",
    "earliest_time",
    "visited",
    "random_ios",
    "sequential_ios",
    "io",
)


def _fields(result):
    return tuple(getattr(result, name) for name in RESULT_FIELDS)


def _assert_equivalent(index, network, queries):
    """Frontier join == oracle on the six result fields, both == the evaluator."""
    frontier = ReachGridQueryProcessor(index)
    oracle = ReferenceReachGridQueryProcessor(index)
    for query in queries:
        actual = frontier.evaluate(query)
        assert _fields(actual) == _fields(oracle.evaluate(query)), query
        expected = evaluate_reachability(network, query)
        assert actual.reachable == expected.reachable, query
        if expected.reachable:
            assert actual.earliest_time == expected.earliest_time, query


@pytest.fixture(scope="module", params=["rwp-tiny", "vn-tiny"])
def canned(request):
    spec = DATASETS[request.param]
    dataset = spec.generate()
    return spec, dataset, build_contact_network(dataset, spec.contact_threshold)


def _grid_configs(spec, dataset):
    """The canned grid plus the degenerate corners of both resolutions."""
    threshold = spec.contact_threshold
    return {
        "canned": spec.grid_config,
        "RS<dT,RT=1": ReachGridConfig(
            temporal_resolution=1, spatial_resolution=threshold / 2
        ),
        "RS>E,RT>T": ReachGridConfig(
            temporal_resolution=dataset.num_instants + 50,
            spatial_resolution=2 * max(dataset.environment_size),
        ),
        "odd": ReachGridConfig(
            temporal_resolution=7,
            spatial_resolution=2.5 * spec.grid_config.spatial_resolution,
        ),
    }


class TestFrontierJoinEqualsOracle:
    @pytest.mark.parametrize("grid", ["canned", "RS<dT,RT=1", "RS>E,RT>T", "odd"])
    def test_result_and_io_ledger_identical(self, canned, grid):
        spec, dataset, network = canned
        index = ReachGridIndex(
            dataset,
            _grid_configs(spec, dataset)[grid],
            ContactConfig(distance_threshold=spec.contact_threshold),
        ).build()
        rng = random.Random(f"{spec.name}/{grid}")
        last = dataset.horizon.end
        queries = [ReachabilityQuery(3, 3, TimeInterval(5, 50))]
        for _ in range(10):
            source, destination = rng.sample(dataset.object_ids, 2)
            start = rng.randint(0, last - 60)
            queries.append(  # the paper-default shape: a long interval
                ReachabilityQuery(
                    source,
                    destination,
                    TimeInterval(start, min(last, start + rng.randint(50, 150))),
                )
            )
            for length in (40, 1):
                start = rng.randint(0, last - length + 1)
                queries.append(
                    ReachabilityQuery(
                        source, destination, TimeInterval(start, start + length - 1)
                    )
                )
        _assert_equivalent(index, network, queries)


def _line_world(columns, threshold):
    """Objects on a line: ``columns[t][i]`` is object ``i``'s x at tick ``t``."""
    num_objects = len(columns[0])
    trajectories = [
        Trajectory(i, [Point(column[i], 1.0) for column in columns])
        for i in range(num_objects)
    ]
    width = max(max(column) for column in columns) + 1.0
    dataset = TrajectoryDataset(trajectories, (width, 2.0), name="line")
    return dataset, build_contact_network(dataset, threshold)


class TestLateLoadedCells:
    THRESHOLD = 10.0

    def test_chain_through_cells_only_a_newcomer_brings_in(self):
        """0-1-2-3 stand 9 m apart on 5 m cells.  Object 0's ``N_i`` stops at
        x = 12, so the cell of object 2 arrives only with newcomer 1's ``N_i``
        load (and object 3's with 2's) — mid fixed point, at the tick being
        swept; the chain must still close at that very tick."""
        dataset, network = _line_world([[2.0, 11.0, 20.0, 29.0]] * 3, self.THRESHOLD)
        config = ReachGridConfig(temporal_resolution=2, spatial_resolution=5.0)
        index = ReachGridIndex(
            dataset, config, ContactConfig(distance_threshold=self.THRESHOLD)
        ).build()
        start_cells = set(
            index.geometry.cells_intersecting(
                MBR(2.0, 1.0, 2.0, 1.0).expanded(self.THRESHOLD), 0
            )
        )
        assert (0, 4, 0) not in start_cells  # object 2's cell is not in N_0
        query = ReachabilityQuery(0, 3, TimeInterval(1, 2))
        result = ReachGridQueryProcessor(index).evaluate(query)
        assert (result.reachable, result.earliest_time) == (True, 1)
        _assert_equivalent(index, network, [query])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=3.0, max_value=16.0), min_size=5, max_size=5
            ),
            min_size=2,
            max_size=6,
        ),
        st.sampled_from([3.0, 5.0, 8.0, 40.0]),
        st.sampled_from([1, 2, 10]),
    )
    def test_random_chains_on_cells_smaller_than_the_contact_range(
        self, gaps, spatial_resolution, temporal_resolution
    ):
        # Per tick, object i stands at the running sum of that tick's gaps: a
        # neighbour is in contact when its gap is <= 10, and usually sits in
        # a cell outside the N_i of everything but its other neighbour.
        columns = []
        for tick_gaps in gaps:
            x, column = 0.0, []
            for gap in tick_gaps:
                x += gap
                column.append(x)
            columns.append(column)
        dataset, network = _line_world(columns, self.THRESHOLD)
        index = ReachGridIndex(
            dataset,
            ReachGridConfig(
                temporal_resolution=temporal_resolution,
                spatial_resolution=spatial_resolution,
            ),
            ContactConfig(distance_threshold=self.THRESHOLD),
        ).build()
        whole = dataset.horizon
        queries = [
            ReachabilityQuery(source, destination, interval)
            for source, destination in ((0, 4), (4, 0), (2, 0), (1, 3))
            for interval in (whole, TimeInterval(whole.end, whole.end))
        ]
        _assert_equivalent(index, network, queries)


# ----------------------------------------------------------------------
# Work counts: what the join is allowed to cost
# ----------------------------------------------------------------------
class CountingHash(SpatialHash):
    """A ``SpatialHash`` counting hashes built, probes, and distance tests."""

    built = 0
    probes = 0
    distance_tests = 0
    late_entries = 0  # hashed into a tick's buckets after its first pass began

    def __init__(self, side):
        super().__init__(side)
        CountingHash.built += 1

    def insert(self, entries):
        if self.buckets:
            CountingHash.late_entries += len(entries)
        super().insert(entries)

    def within(self, x, y):
        CountingHash.probes += 1
        cx, cy = int(x // self.side), int(y // self.side)
        CountingHash.distance_tests += sum(
            len(self.buckets.get((cx + dx, cy + dy), ()))
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        )
        return super().within(x, y)


@pytest.fixture()
def counting_hash(monkeypatch):
    monkeypatch.setattr(query_module, "SpatialHash", CountingHash)
    CountingHash.built = CountingHash.probes = 0
    CountingHash.distance_tests = CountingHash.late_entries = 0
    return CountingHash


def _static_world(points, ticks, threshold, cell):
    dataset = TrajectoryDataset(
        [Trajectory(i, [Point(x, y)] * ticks) for i, (x, y) in enumerate(points)],
        (200.0, 200.0),
        name="static",
    )
    config = ReachGridConfig(temporal_resolution=ticks, spatial_resolution=cell)
    index = ReachGridIndex(
        dataset, config, ContactConfig(distance_threshold=threshold)
    ).build()
    return ReachGridQueryProcessor(index)


class TestDistanceTestsPerQuery:
    TICKS = 6

    def test_one_seed_among_many_costs_one_probe_per_tick(self, counting_hash):
        """Thirty bystanders in the source's cell, some of them in contact
        with each other, none with the source: every tick costs one probe of
        the source's 3x3 buckets — the all-pairs join tested every bystander
        pair, at every tick."""
        bystanders = [(40.0 + 12 * (i % 6), 40.0 + 12 * (i // 6)) for i in range(30)]
        processor = _static_world([(5.0, 5.0)] + bystanders, self.TICKS, 15.0, 200.0)
        result = processor.evaluate(ReachabilityQuery(0, 7, TimeInterval(0, 5)))
        assert not result.reachable
        assert counting_hash.probes == self.TICKS
        assert counting_hash.distance_tests == self.TICKS  # the source itself

    def test_one_unreached_among_many_seeds_costs_one_probe_per_tick(
        self, counting_hash
    ):
        """A clique of twelve reached at the first tick and one loner far off:
        from then on a tick probes from the loner's side, once."""
        clique = [(50.0 + (i % 4), 50.0 + (i // 4)) for i in range(12)]
        processor = _static_world(clique + [(150.0, 150.0)], self.TICKS, 15.0, 200.0)
        result = processor.evaluate(ReachabilityQuery(0, 12, TimeInterval(0, 5)))
        assert not result.reachable
        # Tick 0: the source finds the clique (1 probe), then the loner is
        # cheaper to probe from than the eleven newcomers (1 probe).
        assert counting_hash.probes == 2 + (self.TICKS - 1)

    def test_no_work_on_ticks_where_every_loaded_object_is_a_seed(
        self, counting_hash
    ):
        """Two objects in contact in one cell, the destination alone in a cell
        no seed ever comes near: after the first tick there is nothing left
        to test, and nothing is even hashed."""
        processor = _static_world(
            [(5.0, 5.0), (9.0, 5.0), (150.0, 150.0)], self.TICKS, 15.0, 50.0
        )
        result = processor.evaluate(ReachabilityQuery(0, 2, TimeInterval(0, 5)))
        assert not result.reachable
        assert result.visited == 1
        assert counting_hash.built == 1
        assert counting_hash.probes == 1
        assert counting_hash.distance_tests == 2

    def test_probes_stay_under_the_smaller_side_of_every_pass(
        self, counting_hash, tiny_reachgrid, tiny_dataset, tiny_network
    ):
        """On generated data, per query: probes <= the sum over swept ticks of
        min(seeds, unreached) for the tick's first pass, plus one probe per
        object reached (it is the frontier of exactly one later pass) and one
        per position that arrived mid-tick.  The all-pairs join tested every
        pair of loaded neighbours, at every pass."""
        processor = ReachGridQueryProcessor(tiny_reachgrid)
        rng = random.Random(5)
        objects = tiny_dataset.num_objects
        for _ in range(20):
            source, destination = rng.sample(tiny_dataset.object_ids, 2)
            start = rng.randint(0, 60)
            interval = TimeInterval(start, start + 59)
            probes, late = counting_hash.probes, counting_hash.late_entries
            processor.evaluate(ReachabilityQuery(source, destination, interval))
            arrival = earliest_arrival(tiny_network.contacts, source, interval)
            last_tick = arrival.get(destination, interval.end)
            bound = 0
            for t in range(interval.start, last_tick + 1):
                seeds = sum(1 for o, at in arrival.items() if at < t or o == source)
                bound += min(seeds, objects - seeds)
            bound += sum(1 for at in arrival.values() if at <= last_tick) - 1
            bound += counting_hash.late_entries - late
            assert counting_hash.probes - probes <= bound
        # A probe tests the occupants of 3x3 buckets of side dT, no more.
        assert counting_hash.distance_tests <= 3 * counting_hash.probes


class TestCellAssignmentIsComputedOnce:
    @pytest.fixture()
    def axis_calls(self, monkeypatch):
        calls = []
        real = cells_module.grid_axis_cells

        def counting(extent, resolution):
            calls.append((extent, resolution))
            return real(extent, resolution)

        monkeypatch.setattr(cells_module, "grid_axis_cells", counting)
        return calls

    def test_index_build_derives_the_grid_once(
        self, axis_calls, tiny_dataset, tiny_contact_config
    ):
        config = ReachGridConfig(temporal_resolution=10, spatial_resolution=100.0)
        ReachGridIndex(tiny_dataset, config, tiny_contact_config).build()
        assert axis_calls == [(700.0, 100.0), (700.0, 100.0)]

    def test_stream_drain_derives_no_grid(
        self, axis_calls, tiny_dataset, tiny_contact_config
    ):
        """The ingestor stores no sample, so it assigns no cell: the batch
        index is the one grid assignment path."""
        config = ReachGridConfig(temporal_resolution=10, spatial_resolution=100.0)
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, tiny_contact_config, config
        )
        events = ingestor.ingest_all(replay(tiny_dataset, batch_ticks=8))
        assert events == tiny_dataset.num_objects * tiny_dataset.num_instants
        assert axis_calls == []
