"""Unit tests for contact extraction, contact networks, and the TEN model.

The Figure 1 fixtures give ground truth straight from the paper: contacts
c1..c4 with validity intervals [0,0], [1,1], [1,2], [2,3].
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachgrid_reference import reference_pairs_within_distance
from repro.contacts import (
    Contact,
    ContactNetwork,
    TimeExpandedNetwork,
    build_contact_network,
    join_at_instant,
    pairs_within_distance,
)
from repro.core import ContactNetworkError, Point, TimeInterval

# The contact threshold used by the Figure 1 fixture (see conftest.py).
FIGURE1_THRESHOLD = 10.0


class TestPairsWithinDistance:
    def test_matches_brute_force_on_small_input(self):
        positions = {
            0: Point(0, 0),
            1: Point(3, 4),
            2: Point(0.5, 0.5),
            3: Point(100, 100),
            4: Point(4, 4),
        }
        threshold = 5.0
        expected = set()
        ids = sorted(positions)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if positions[a].distance_to(positions[b]) <= threshold:
                    expected.add((a, b))
        assert set(pairs_within_distance(positions, threshold)) == expected

    def test_pairs_straddling_grid_cells_are_found(self):
        # Two points in different hash cells but within the threshold.
        positions = {0: Point(9.9, 0.0), 1: Point(10.1, 0.0)}
        assert set(pairs_within_distance(positions, 10.0)) == {(0, 1)}

    def test_empty_and_singleton_inputs(self):
        assert pairs_within_distance({}, 5.0) == []
        assert pairs_within_distance({3: Point(0, 0)}, 5.0) == []

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ContactNetworkError):
            pairs_within_distance({0: Point(0, 0)}, 0.0)


class TestPairsKeepTheOldKernelsOrder:
    """The list — not just the set — of pairs equals the kernel it replaced.

    Streaming ingest closes contacts in the order the pairs of a tick come
    out, so the order decides the bytes of every contact run on the device.
    """

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-40, max_value=40),
                st.integers(min_value=-40, max_value=40),
            ),
            max_size=40,
        ),
        st.sampled_from([1.0, 5.0, 13.0]),
    )
    def test_lattice_points_including_negative_and_exactly_at_threshold(
        self, cells, threshold
    ):
        # Integer coordinates put many pairs at distance exactly 5 or 13
        # (3-4-5, 5-12-13), and negative ones floor away from zero.
        positions = {i: Point(float(x), float(y)) for i, (x, y) in enumerate(cells)}
        assert pairs_within_distance(positions, threshold) == (
            reference_pairs_within_distance(positions, threshold)
        )

    def test_random_clouds_in_shuffled_id_order(self):
        rng = random.Random(21)
        for _ in range(50):
            ids = rng.sample(range(200), rng.randint(0, 60))
            positions = {
                i: Point(rng.uniform(-150, 150), rng.uniform(-150, 150)) for i in ids
            }
            threshold = rng.choice([7.5, 25.0, 90.0])
            assert pairs_within_distance(positions, threshold) == (
                reference_pairs_within_distance(positions, threshold)
            )


class TestContact:
    def test_between_normalizes_order(self):
        contact = Contact.between(7, 3, TimeInterval(0, 2))
        assert contact.objects == (3, 7)

    def test_rejects_self_contact(self):
        with pytest.raises(ContactNetworkError):
            Contact(1, 1, TimeInterval(0, 0))

    def test_rejects_descending_object_order(self):
        with pytest.raises(ContactNetworkError):
            Contact(5, 2, TimeInterval(0, 0))

    def test_other_and_involves(self):
        contact = Contact(1, 4, TimeInterval(2, 3))
        assert contact.other(1) == 4
        assert contact.other(4) == 1
        assert contact.involves(1) and not contact.involves(2)
        with pytest.raises(ContactNetworkError):
            contact.other(9)

    def test_active_at(self):
        contact = Contact(1, 4, TimeInterval(2, 3))
        assert contact.active_at(2) and contact.active_at(3)
        assert not contact.active_at(1)


class TestFigure1ContactNetwork:
    def test_exactly_the_four_paper_contacts_are_extracted(self, figure1_network):
        contacts = {
            (contact.first, contact.second, contact.validity.start, contact.validity.end)
            for contact in figure1_network
        }
        assert contacts == {
            (1, 2, 0, 0),  # c1
            (2, 4, 1, 1),  # c2
            (3, 4, 1, 2),  # c3
            (1, 2, 2, 3),  # c4
        }

    def test_same_pair_with_disjoint_validity_yields_two_contacts(self, figure1_network):
        pair_contacts = [c for c in figure1_network if c.objects == (1, 2)]
        assert len(pair_contacts) == 2

    def test_contacts_at_each_instant(self, figure1_network):
        assert {c.objects for c in figure1_network.contacts_at(0)} == {(1, 2)}
        assert {c.objects for c in figure1_network.contacts_at(1)} == {(2, 4), (3, 4)}
        assert {c.objects for c in figure1_network.contacts_at(2)} == {(1, 2), (3, 4)}
        assert {c.objects for c in figure1_network.contacts_at(3)} == {(1, 2)}

    def test_contacts_of_object(self, figure1_network):
        validities = [c.validity for c in figure1_network.contacts_of(4)]
        assert validities == [TimeInterval(1, 1), TimeInterval(1, 2)]

    def test_contacts_overlapping_window(self, figure1_network):
        overlapping = figure1_network.contacts_overlapping(TimeInterval(2, 3))
        assert {c.objects for c in overlapping} == {(1, 2), (3, 4)}

    def test_snapshot_adjacency(self, figure1_network):
        adjacency = figure1_network.snapshot_adjacency(1)
        assert adjacency[4] == {2, 3}
        assert adjacency[2] == {4}
        assert 1 not in adjacency

    def test_total_contact_instants(self, figure1_network):
        # c1: 1 tick, c2: 1, c3: 2, c4: 2 -> 6 contact-instants.
        assert figure1_network.total_contact_instants() == 6

    def test_average_degree(self, figure1_network):
        # At t=1 the degrees are o2:1, o3:1, o4:2, o1:0 -> mean over 4 objects = 1.
        assert figure1_network.average_degree_at(1) == pytest.approx(1.0)


class TestBuildContactNetworkValidation:
    def test_contacts_outside_horizon_are_rejected(self, figure1_dataset):
        with pytest.raises(ContactNetworkError):
            ContactNetwork(
                figure1_dataset,
                [Contact(1, 2, TimeInterval(0, 99))],
                distance_threshold=10.0,
            )

    def test_contacts_with_unknown_objects_are_rejected(self, figure1_dataset):
        with pytest.raises(ContactNetworkError):
            ContactNetwork(
                figure1_dataset,
                [Contact(1, 99, TimeInterval(0, 1))],
                distance_threshold=10.0,
            )

    def test_window_restricted_join(self, figure1_dataset):
        network = build_contact_network(
            figure1_dataset, FIGURE1_THRESHOLD, window=TimeInterval(0, 1)
        )
        assert {(c.objects, c.validity.start, c.validity.end) for c in network} == {
            ((1, 2), 0, 0),
            ((2, 4), 1, 1),
            ((3, 4), 1, 1),
        }

    def test_join_at_instant_matches_network_snapshot(self, figure1_dataset, figure1_network):
        for t in range(4):
            pairs = set(join_at_instant(figure1_dataset, t, FIGURE1_THRESHOLD))
            assert pairs == {c.objects for c in figure1_network.contacts_at(t)}


class TestJoinCostIsPerContact:
    def test_interval_objects_scale_with_contacts_not_samples(
        self, tiny_dataset, monkeypatch
    ):
        """``build_contact_network`` makes a ``TimeInterval`` per contact it
        emits (plus a handful for the horizon) — none per sample looked up."""
        made = 0
        validate = TimeInterval.__post_init__

        def counting_post_init(self):
            nonlocal made
            made += 1
            validate(self)

        monkeypatch.setattr(TimeInterval, "__post_init__", counting_post_init)
        network = build_contact_network(tiny_dataset, 30.0)
        samples = tiny_dataset.num_objects * tiny_dataset.num_instants
        assert network.num_contacts < samples // 4
        assert made <= network.num_contacts + 8


class TestTimeExpandedNetwork:
    def test_vertex_and_edge_counts(self, figure1_network):
        ten = TimeExpandedNetwork(figure1_network)
        # 4 objects x 4 instants.
        assert ten.num_vertices == 16
        # Holding edges: 4 objects x 3 transitions = 12; contact edges: 6.
        assert ten.num_holding_edges == 12
        assert ten.num_contact_edges == 6
        assert ten.num_edges == 18

    def test_snapshot_components_match_figure4(self, figure1_network):
        ten = TimeExpandedNetwork(figure1_network)
        components_t1 = {frozenset(c) for c in ten.snapshot_components(1)}
        assert components_t1 == {frozenset({1}), frozenset({2, 3, 4})}
        components_t0 = {frozenset(c) for c in ten.snapshot_components(0)}
        assert components_t0 == {frozenset({1, 2}), frozenset({3}), frozenset({4})}

    def test_snapshot_vertices(self, figure1_network):
        ten = TimeExpandedNetwork(figure1_network)
        vertices = ten.snapshot_vertices(2)
        assert {(v.object_id, v.time) for v in vertices} == {(i, 2) for i in (1, 2, 3, 4)}

    def test_iter_snapshots_covers_horizon(self, figure1_network):
        ten = TimeExpandedNetwork(figure1_network)
        snapshots = list(ten.iter_snapshots())
        assert [t for t, _ in snapshots] == [0, 1, 2, 3]
