"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.contacts import Contact, build_contact_network, pairs_within_distance
from repro.core import Point, TimeInterval
from repro.baselines import earliest_arrival
from repro.storage import BufferPool, SimulatedBackend
from repro.trajectory import MBR

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
intervals = st.tuples(
    st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200)
).map(lambda pair: TimeInterval(min(pair), max(pair)))

points = st.builds(
    Point,
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
)

position_maps = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.builds(
        Point,
        st.floats(min_value=0, max_value=500, allow_nan=False),
        st.floats(min_value=0, max_value=500, allow_nan=False),
    ),
    min_size=0,
    max_size=18,
)


class TestTimeIntervalProperties:
    @given(intervals, intervals)
    def test_intersection_is_commutative_and_contained(self, a, b):
        left = a.intersection(b)
        right = b.intersection(a)
        assert left == right
        if left is not None:
            assert a.contains_interval(left)
            assert b.contains_interval(left)
            assert a.overlaps(b)
        else:
            assert not a.overlaps(b)

    @given(intervals, st.integers(min_value=1, max_value=50))
    def test_split_partitions_the_interval(self, interval, chunk):
        parts = list(interval.split(chunk))
        assert sum(len(part) for part in parts) == len(interval)
        assert parts[0].start == interval.start
        assert parts[-1].end == interval.end
        for before, after in zip(parts, parts[1:]):
            assert after.start == before.end + 1
        assert all(len(part) <= chunk for part in parts)

    @given(intervals, intervals)
    def test_union_span_contains_both(self, a, b):
        union = a.union_span(b)
        assert union.contains_interval(a)
        assert union.contains_interval(b)


class TestMbrProperties:
    @given(st.lists(points, min_size=1, max_size=20))
    def test_mbr_contains_every_input_point(self, point_list):
        rect = MBR.from_points(point_list)
        for point in point_list:
            assert rect.contains_point(point)

    @given(st.lists(points, min_size=1, max_size=20), st.floats(min_value=0, max_value=100))
    def test_expanded_mbr_still_contains_points(self, point_list, margin):
        rect = MBR.from_points(point_list).expanded(margin)
        for point in point_list:
            assert rect.contains_point(point)

    @given(st.lists(points, min_size=1, max_size=10), st.lists(points, min_size=1, max_size=10))
    def test_union_contains_both_rectangles(self, first, second):
        a, b = MBR.from_points(first), MBR.from_points(second)
        union = a.union(b)
        assert union.intersects(a) and union.intersects(b)
        assert union.area >= max(a.area, b.area)


class TestJoinProperties:
    @given(position_maps, st.floats(min_value=1.0, max_value=200.0))
    def test_grid_join_matches_brute_force(self, positions, threshold):
        expected = set()
        ids = sorted(positions)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if positions[a].distance_to(positions[b]) <= threshold:
                    expected.add((a, b))
        assert set(pairs_within_distance(positions, threshold)) == expected

    @given(position_maps, st.floats(min_value=1.0, max_value=100.0))
    def test_join_pairs_are_normalized_and_unique(self, positions, threshold):
        pairs = pairs_within_distance(positions, threshold)
        assert len(pairs) == len(set(pairs))
        assert all(a < b for a, b in pairs)


class TestEarliestArrivalProperties:
    contacts_strategy = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=10),
        ).filter(lambda t: t[0] != t[1]),
        min_size=0,
        max_size=25,
    )

    @staticmethod
    def _make_contacts(raw):
        contacts = []
        for a, b, start, length in raw:
            contacts.append(Contact.between(a, b, TimeInterval(start, start + length)))
        return contacts

    @given(contacts_strategy, st.integers(min_value=0, max_value=6))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_arrival_times_lie_inside_the_query_interval(self, raw, source):
        contacts = self._make_contacts(raw)
        interval = TimeInterval(2, 25)
        arrival = earliest_arrival(contacts, source, interval)
        assert arrival[source] == interval.start
        for object_id, t in arrival.items():
            assert interval.start <= t <= interval.end or object_id == source

    @given(contacts_strategy, st.integers(min_value=0, max_value=6))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_monotone_in_interval_extension(self, raw, source):
        contacts = self._make_contacts(raw)
        short = earliest_arrival(contacts, source, TimeInterval(0, 12))
        longer = earliest_arrival(contacts, source, TimeInterval(0, 30))
        assert set(short) <= set(longer)
        for object_id, t in short.items():
            assert longer[object_id] <= t

    @given(contacts_strategy)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_symmetry_of_single_instant_reachability(self, raw):
        """Property 5.1: reachability over a single instant is symmetric."""
        contacts = self._make_contacts(raw)
        instant = TimeInterval(5, 5)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                forward = b in earliest_arrival(contacts, a, instant, destination=b)
                backward = a in earliest_arrival(contacts, b, instant, destination=a)
                assert forward == backward


class TestBufferPoolProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_buffer_pool_never_exceeds_capacity_and_serves_correct_data(
        self, accesses, capacity
    ):
        disk = SimulatedBackend()
        for value in range(40):
            disk.allocate(f"payload-{value}")
        pool = BufferPool(disk, capacity=capacity)
        for block in accesses:
            assert pool.read(block) == f"payload-{block}"
            assert pool.resident_blocks <= capacity
        assert pool.hits + pool.misses == len(accesses)


class TestContactNetworkProperties:
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=25))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_contacts_have_continuous_validity_and_lie_in_horizon(self, num_objects, horizon):
        from repro.generators import RandomWaypointGenerator

        dataset = RandomWaypointGenerator(
            num_objects, horizon, environment_size=(300.0, 300.0), seed=num_objects * 31 + horizon
        ).generate()
        network = build_contact_network(dataset, threshold=40.0)
        for contact in network:
            assert dataset.horizon.contains_interval(contact.validity)
            # Validity is maximal: the pair is within range at every tick of the
            # interval and out of range (or at the horizon edge) just outside it.
            for t in contact.validity.instants():
                a = dataset.trajectory(contact.first).position_at(t)
                b = dataset.trajectory(contact.second).position_at(t)
                assert a.distance_to(b) <= 40.0 + 1e-9
