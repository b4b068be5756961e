"""The union path: snapshot ∪ delta ∪ open records through one kernel.

Every query the ReachGraph fast path cannot answer runs
:func:`~repro.streaming.delta.earliest_arrival_time` over plain
``(first, second, start, end)`` records.  This suite pins that kernel to the
batch oracle (:func:`repro.baselines.reference.earliest_arrival`, which it
must not be) on random record sets, pins the union path's earliest reach
times at every watermark of a live service, and pins self-queries at zero
reads on every route.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivalence import (
    CallCounter,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.baselines.reference import earliest_arrival
from repro.contacts.network import Contact
from repro.core import (
    ReachabilityQuery,
    ReachGridConfig,
    StreamingConfig,
    TimeInterval,
)
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamingReachabilityService,
)
from repro.streaming.delta import ContactSnapshotStore, earliest_arrival_time

TINY_THRESHOLD = 30.0

#: Object ids the generated records draw from; ``ABSENT`` is in none of them.
OBJECTS = 6
ABSENT = OBJECTS


def reference_time(records, source, destination, start, end):
    """The oracle's arrival at ``destination`` over ``records`` in ``[start, end]``."""
    contacts = [Contact(a, b, TimeInterval(s, e)) for a, b, s, e in records]
    arrival = earliest_arrival(
        contacts, source, TimeInterval(start, end), destination=destination
    )
    return arrival.get(destination)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def record_sets(draw, max_size=24):
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, OBJECTS - 1),
                st.integers(0, OBJECTS - 1),
                st.integers(0, 40),
                st.integers(0, 8),
            ),
            max_size=max_size,
        )
    )
    return [(min(a, b), max(a, b), s, s + n) for a, b, s, n in raw if a != b]


windows = st.tuples(st.integers(0, 48), st.integers(0, 48)).map(sorted)
endpoints = st.integers(0, OBJECTS)  # ABSENT included


# ----------------------------------------------------------------------
# the kernel equals the reference
# ----------------------------------------------------------------------
class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(record_sets(), endpoints, endpoints, windows)
    def test_random_record_sets(self, records, source, destination, window):
        start, end = window
        assert earliest_arrival_time(
            records, source, destination, start, end
        ) == reference_time(records, source, destination, start, end)

    @settings(max_examples=200, deadline=None)
    @given(record_sets(), endpoints, endpoints, windows, st.data())
    def test_validity_split_at_arbitrary_boundaries(
        self, records, source, destination, window, data
    ):
        """Merges split validity intervals at watermarks: lossless."""
        split = []
        for a, b, s, e in records:
            cut = data.draw(st.integers(s, e))
            if cut > s:
                split.extend([(a, b, s, cut - 1), (a, b, cut, e)])
            else:
                split.append((a, b, s, e))
        start, end = window
        expected = reference_time(records, source, destination, start, end)
        assert earliest_arrival_time(split, source, destination, start, end) == expected
        assert reference_time(split, source, destination, start, end) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        record_sets(max_size=8),
        windows,
        st.lists(st.tuples(st.integers(0, OBJECTS - 1), st.integers(0, 6)), max_size=8),
        endpoints,
        endpoints,
    )
    def test_contacts_touching_the_interval_ends(
        self, records, window, touches, source, destination
    ):
        start, end = window
        touching = list(records)
        for a, length in touches:
            b = (a + 1) % OBJECTS
            lo, hi = min(a, b), max(a, b)
            touching.append((lo, hi, max(0, start - length), start))
            touching.append((lo, hi, end, end + length))
        assert earliest_arrival_time(
            touching, source, destination, start, end
        ) == reference_time(touching, source, destination, start, end)

    @settings(max_examples=200, deadline=None)
    @given(record_sets(), endpoints, endpoints, windows, st.integers(0, 48))
    def test_records_clipped_at_a_low_watermark(
        self, records, source, destination, window, low
    ):
        """Clipping at a watermark: records starting past ``low`` are dropped
        and the kernel's window stops at ``low`` instead of clipping ends."""
        start, end = window
        clipped = [(a, b, s, min(e, low)) for a, b, s, e in records if s <= low]
        expected = reference_time(clipped, source, destination, start, end)
        assert earliest_arrival_time(
            clipped, source, destination, start, end
        ) == expected
        kept = [r for r in records if r[2] <= low]
        assert earliest_arrival_time(
            kept, source, destination, start, min(end, low)
        ) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 60), min_size=2, max_size=12, unique=True),
        record_sets(max_size=10),
        endpoints,
        endpoints,
        windows,
    )
    def test_duplicate_pairs_with_disjoint_validity(
        self, cuts, records, source, destination, window
    ):
        ticks = sorted(cuts)
        duplicates = [
            (0, 1, lo, hi - 1) for lo, hi in zip(ticks[::2], ticks[1::2]) if hi > lo
        ]
        union = duplicates + records
        start, end = window
        assert earliest_arrival_time(
            union, source, destination, start, end
        ) == reference_time(union, source, destination, start, end)

    @settings(max_examples=100, deadline=None)
    @given(record_sets(), st.integers(0, OBJECTS - 1), windows)
    def test_absent_destination_is_unreachable(self, records, source, window):
        start, end = window
        assert earliest_arrival_time(records, source, ABSENT, start, end) is None
        assert reference_time(records, source, ABSENT, start, end) is None


# ----------------------------------------------------------------------
# earliest reach times on the union path, at every watermark
# ----------------------------------------------------------------------
def _straddling_queries(dataset, snapshot_watermark, watermark, count, seed):
    """Queries with ``start <= snapshot_watermark < end``.

    Their interval covers frozen ticks and recent ones, so the answer needs
    the snapshot runs and the delta/open records together.
    """
    rng = random.Random(seed)
    origin = dataset.horizon.start
    queries = []
    for _ in range(count):
        source, destination = rng.sample(dataset.object_ids, 2)
        interval = TimeInterval(
            rng.randint(origin, snapshot_watermark),
            rng.randint(snapshot_watermark + 1, watermark),
        )
        queries.append(ReachabilityQuery(source, destination, interval))
    return queries


def _assert_union_path_at_every_watermark(monkeypatch, service, dataset, batches):
    """Ingest ``batches``; after each, ask queries straddling the snapshot
    watermark and pin every answer that read the snapshot runs — verdict
    and exact earliest reach time — to the reference over the prefix."""
    counter = CallCounter(monkeypatch, (ContactSnapshotStore, "read_overlapping"))
    union_answers = 0
    for position, batch in enumerate(batches):
        service.ingest(batch)
        frozen, watermark = service.overlay.snapshot_watermark, service.watermark
        if frozen is None or frozen == watermark:
            continue
        reference = reference_evaluator(
            prefix_network(dataset, TINY_THRESHOLD, through=watermark)
        )
        for query in _straddling_queries(dataset, frozen, watermark, 12, position):
            counter.reset()
            actual = service.query(query)
            expected = reference(query)
            context = f"{query}, snapshot={frozen}, watermark={watermark}"
            assert bool(actual.reachable) == bool(expected.reachable), context
            if counter.calls["ContactSnapshotStore.read_overlapping"]:
                union_answers += 1
                if expected.reachable:
                    assert actual.earliest_time == expected.earliest_time, context
    assert service.num_merges > 1
    return union_answers


class TestUnionPathEarliestTime:
    def test_single_service_at_every_watermark(
        self, monkeypatch, tiny_dataset, tiny_contact_config
    ):
        """Queries straddling the snapshot watermark take the union path
        (snapshot runs plus recent records), not BM-BFS, and its earliest
        reach times are exact."""
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=24, query_cache_size=0
            ),
        )
        batches = DatasetReplaySource(tiny_dataset, batch_ticks=10).batches()
        union_answers = _assert_union_path_at_every_watermark(
            monkeypatch, service, tiny_dataset, batches
        )
        assert service.overlay.has_reachgraph
        assert union_answers > 50
        service.close()

    def test_fine_grid_frequent_merges_at_every_watermark(
        self, monkeypatch, tiny_dataset, tiny_contact_config
    ):
        """Short grid intervals and a small delta: many runs, many clips."""
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            grid_config=ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0),
            streaming_config=StreamingConfig(
                max_delta_contacts=12, batch_ticks=10, query_cache_size=0
            ),
        )
        batches = DatasetReplaySource(tiny_dataset, batch_ticks=10).batches()
        union_answers = _assert_union_path_at_every_watermark(
            monkeypatch, service, tiny_dataset, batches
        )
        assert service.overlay.snapshot_runs > 1
        assert union_answers > 20
        service.close()


# ----------------------------------------------------------------------
# self-queries read nothing, on every route
# ----------------------------------------------------------------------
def _self_queries(dataset, watermark):
    """Self-queries past the watermark, inside the snapshot, and unknown."""
    start = dataset.horizon.start
    known = dataset.object_ids[3]
    unknown = max(dataset.object_ids) + 9
    return [
        ReachabilityQuery(known, known, TimeInterval(start, watermark)),
        ReachabilityQuery(known, known, TimeInterval(start, start + 5)),
        ReachabilityQuery(known, known, TimeInterval(watermark - 2, watermark)),
        ReachabilityQuery(unknown, unknown, TimeInterval(start, watermark)),
    ]


def _assert_self_queries_read_nothing(monkeypatch, service, queries, context):
    counter = CallCounter(monkeypatch, (ContactSnapshotStore, "read_overlapping"))
    for query in queries:
        result = service.query(query)
        assert result.reachable, context
        assert result.earliest_time == query.interval.start, context
        assert (result.io, result.random_ios, result.sequential_ios) == (0, 0, 0), (
            f"{context}: {query} charged IO"
        )
        assert result.visited == 0, context
    assert counter.calls["ContactSnapshotStore.read_overlapping"] == 0, (
        f"{context}: a self-query read snapshot extents"
    )


class TestSelfQueries:
    @staticmethod
    def _writer(dataset, contact_config, storage_config):
        service = StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=48),
            storage_config=storage_config,
        )
        service.drain(dataset)  # no final merge: a tail stays in delta/open
        assert service.overlay.delta_size > 0
        return service

    @pytest.mark.parametrize("backend", ("sim", "file"))
    def test_writer(
        self, monkeypatch, tmp_path, backend, tiny_dataset, tiny_contact_config
    ):
        service = self._writer(
            tiny_dataset,
            tiny_contact_config,
            backend_storage_config(backend, storage_dir=str(tmp_path)),
        )
        _assert_self_queries_read_nothing(
            monkeypatch,
            service,
            _self_queries(tiny_dataset, service.watermark),
            f"writer on {backend}",
        )
        service.close()

    def test_snapshot_reader(
        self, monkeypatch, tmp_path, tiny_dataset, tiny_contact_config
    ):
        config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = self._writer(tiny_dataset, tiny_contact_config, config)
        service.close()
        reopened = SnapshotQueryService.open(config, name=service.name)
        _assert_self_queries_read_nothing(
            monkeypatch,
            reopened,
            _self_queries(tiny_dataset, reopened.watermark),
            "snapshot reader",
        )
        reopened.close()
