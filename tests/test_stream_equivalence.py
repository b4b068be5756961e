"""Property-based equivalence suite for the streaming service.

The contract under test (the strongest guarantee of the streaming subsystem):
at any point of the stream, a :class:`StreamingReachabilityService` answers
every reachability query exactly like the batch ``reference`` evaluator over
the ingested prefix ``[origin, watermark]`` — for every merge threshold
firing mid-stream, every delivery granularity, arbitrary (per-object time-ordered)
interleavings inside a batch, heartbeats, rejected batches, forced merges,
both persistent devices and close/reopen/resume at any cut.

Every case runs on a small random-waypoint dataset whose spatial grid is fine
enough that ingestion flushes many grid intervals, and the structural half of the contract — snapshot ∪
delta ∪ open contacts cover the batch contact network exactly once — is
checked alongside the answers.
"""

from __future__ import annotations

import random

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ContactConfig,
    ReachGridConfig,
    StreamingConfig,
    StreamingError,
    TimeInterval,
    WatermarkRegressionError,
)
from repro.generators import RandomWaypointGenerator
from repro.streaming import (
    DatasetReplaySource,
    SampleEvent,
    SnapshotQueryService,
    StreamBatch,
    StreamingReachabilityService,
)
from repro.workloads.queries import random_queries

THRESHOLD = 30.0

#: A spatial resolution fine enough that the 400 m test environment spans
#: several grid cells, and a temporal resolution that flushes a grid interval
#: every eight ticks.
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)

#: The merge-cadence axis: ``max_delta_contacts`` values that make the
#: service merge every batch or two, a few times, or once per stream.
MERGE_THRESHOLDS = (4, 16, 64)

#: Merges the module dataset's replay yields, by ``(batch_ticks, threshold)``:
#: the axis must keep the cadence varied, so the counts are pinned.
THRESHOLD_MERGES = {
    (1, 4): 10,
    (1, 16): 3,
    (1, 64): 1,
    (6, 4): 7,
    (6, 16): 3,
    (6, 64): 1,
    (12, 4): 5,
    (12, 16): 2,
    (12, 64): 1,
}


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=5
    ).generate()


def make_service(
    dataset,
    storage_config=None,
    contacts=CONTACTS,
    grid=GRID,
    auto_merge=True,
    **config_overrides,
):
    return StreamingReachabilityService(
        environment_size=dataset.environment_size,
        contact_config=contacts,
        grid_config=grid,
        streaming_config=StreamingConfig(**config_overrides),
        storage_config=storage_config,
        name=f"{dataset.name}-stream",
        auto_merge=auto_merge,
    )


def assert_matches_prefix(service, dataset, workload, context, threshold=THRESHOLD):
    """Every answer of ``service`` equals the reference over its prefix.

    Earliest reach times are required whenever no graph fast path can
    answer (bidirectional graph traversals legitimately omit them).
    """
    assert_methods_agree(
        reference_evaluator(
            prefix_network(dataset, threshold, through=service.watermark)
        ),
        {"streaming": service.query},
        workload,
        check_earliest=True,
        require_earliest=not service.overlay.has_reachgraph,
        context=f"{context}, watermark={service.watermark}",
    )


def shuffled_batches(dataset, rng):
    """The dataset's samples cut at random ticks, interleaved at random.

    Each batch ends at a random tick; inside a batch the objects' samples
    interleave in a random order that keeps every object's own samples in
    time order (the ingestion contract).  Heartbeats — empty batches that
    repeat the current watermark — are mixed in.
    """
    start, end = dataset.horizon.start, dataset.horizon.end
    cursor = start
    while cursor <= end:
        last = min(end, cursor + rng.randint(0, 9))
        per_object = {}
        for t in range(cursor, last + 1):
            for object_id, position in dataset.positions_at(t).items():
                per_object.setdefault(object_id, []).append(
                    SampleEvent(object_id, t, position)
                )
        queues = [list(samples) for samples in per_object.values()]
        samples = []
        while queues:
            queue = rng.choice(queues)
            samples.append(queue.pop(0))
            if not queue:
                queues.remove(queue)
        yield StreamBatch(tuple(samples), watermark=last)
        if rng.random() < 0.2:
            yield StreamBatch((), watermark=last)
        cursor = last + 1


def coverage(records):
    """``{(first, second, tick)}`` covered by ``(first, second, start, end)``
    records; asserts no tick of a pair is covered twice."""
    covered = set()
    for first, second, start, end in records:
        for tick in range(start, end + 1):
            key = (first, second, tick)
            assert key not in covered, f"{key} covered twice"
            covered.add(key)
    return covered


def as_records(contacts):
    return [
        (c.first, c.second, c.validity.start, c.validity.end) for c in contacts
    ]


# ----------------------------------------------------------------------
# the equivalence properties
# ----------------------------------------------------------------------
class TestStreamEquivalence:
    @pytest.mark.parametrize("max_delta_contacts", (8, 24, 40))
    @pytest.mark.parametrize("batch_ticks", (1, 4, 9, 16))
    def test_drained_stream_matches_reference(
        self, dataset, batch_ticks, max_delta_contacts
    ):
        service = make_service(
            dataset, max_delta_contacts=max_delta_contacts, batch_ticks=batch_ticks
        )
        service.drain(dataset)
        assert service.watermark == dataset.horizon.end
        assert service.num_merges > 0
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"streaming": service.query},
            random_queries(dataset, count=30, seed=17),
            check_earliest=True,
            context=f"batch_ticks={batch_ticks}, max_delta={max_delta_contacts}",
        )

    @pytest.mark.parametrize("batch_ticks", (1, 6, 12))
    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    def test_equivalence_at_every_watermark(
        self, dataset, max_delta_contacts, batch_ticks
    ):
        service = make_service(
            dataset, batch_ticks=batch_ticks, max_delta_contacts=max_delta_contacts
        )
        workload = random_queries(dataset, count=8, seed=3)
        for batch in DatasetReplaySource(dataset, batch_ticks=batch_ticks).batches():
            service.ingest(batch)
            assert service.watermark == batch.watermark
            assert_matches_prefix(
                service,
                dataset,
                workload,
                f"max_delta={max_delta_contacts}, ticks={batch_ticks}",
            )
        assert service.num_merges == THRESHOLD_MERGES[(batch_ticks, max_delta_contacts)]
        # The first merge creates the graph; every later one patches it.
        assert service.overlay.has_reachgraph
        index = service.overlay.snapshot_processor.index
        assert index.num_increments == service.num_merges - 1

    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_equivalence_on_persistent_backends(
        self, dataset, backend, max_delta_contacts
    ):
        """Snapshot extents on a real device: answers at every watermark stay
        bit-identical to the batch reference."""
        service = make_service(
            dataset,
            storage_config=backend_storage_config(backend),
            batch_ticks=12,
            max_delta_contacts=max_delta_contacts,
        )
        workload = random_queries(dataset, count=8, seed=23)
        for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
            service.ingest(batch)
            assert_matches_prefix(
                service,
                dataset,
                workload,
                f"backend={backend}, max_delta={max_delta_contacts}",
            )
        assert service.num_merges == THRESHOLD_MERGES[(12, max_delta_contacts)]
        service.close()

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_delivery_matches_prefix_reference(self, dataset, seed):
        """Batches cut at random ticks, samples interleaved at random inside
        each batch, heartbeats mixed in: every sampled watermark answers over
        exactly its prefix, and the drained service answers like one fed the
        regular tick-ordered replay."""
        rng = random.Random(seed)
        service = make_service(dataset, max_delta_contacts=rng.choice((8, 24)))
        workload = list(random_queries(dataset, count=6, seed=seed + 40))
        checked = 0
        for batch in shuffled_batches(dataset, rng):
            service.ingest(batch)
            assert service.watermark == batch.watermark
            if rng.random() < 0.5:
                continue
            assert_matches_prefix(service, dataset, workload, f"seed={seed}")
            checked += 1
        assert checked > 0
        assert service.watermark == dataset.horizon.end
        regular = make_service(dataset, max_delta_contacts=24)
        regular.drain(dataset)
        final = random_queries(dataset, count=20, seed=seed)
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"shuffled": service.query, "regular": regular.query},
            final,
            check_earliest=True,
            context=f"seed={seed}, drained",
        )

    @pytest.mark.parametrize("seed", range(32))
    def test_random_datasets_random_thresholds(self, seed):
        """Seeded-random sweep: a fresh dataset, a random merge threshold and
        batch size, full-drain equivalence against the batch reference."""
        rng = random.Random(7000 + seed)
        data = RandomWaypointGenerator(
            num_objects=rng.randint(10, 24),
            horizon=rng.randint(30, 70),
            environment_size=(350.0, 350.0),
            seed=seed,
        ).generate()
        max_delta_contacts = rng.choice(MERGE_THRESHOLDS)
        service = make_service(
            data,
            max_delta_contacts=max_delta_contacts,
            batch_ticks=rng.choice((4, 9, 16)),
        )
        service.drain(data)
        assert_matches_prefix(
            service,
            data,
            random_queries(data, count=15, seed=seed),
            f"seed={seed}, max_delta={max_delta_contacts}",
        )

    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    def test_label_modes_at_every_watermark(
        self, dataset, max_delta_contacts, graph_labels
    ):
        service = make_service(
            dataset,
            batch_ticks=10,
            graph_labels=graph_labels,
            max_delta_contacts=max_delta_contacts,
        )
        workload = random_queries(dataset, count=10, seed=61)
        for batch in DatasetReplaySource(dataset, batch_ticks=10).batches():
            service.ingest(batch)
            assert_matches_prefix(
                service,
                dataset,
                workload,
                f"max_delta={max_delta_contacts}, labels={graph_labels}",
            )
        assert service.num_merges > 0
        index = service.overlay.snapshot_processor.index
        assert (index.labels is not None) == graph_labels

    @pytest.mark.parametrize("threshold", (15.0, 30.0, 60.0))
    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    def test_contact_thresholds(self, dataset, max_delta_contacts, threshold):
        service = make_service(
            dataset,
            contacts=ContactConfig(distance_threshold=threshold),
            batch_ticks=8,
            max_delta_contacts=max_delta_contacts,
        )
        workload = random_queries(dataset, count=10, seed=71)
        for position, batch in enumerate(
            DatasetReplaySource(dataset, batch_ticks=8).batches()
        ):
            service.ingest(batch)
            if position % 2:
                assert_matches_prefix(
                    service,
                    dataset,
                    workload,
                    f"max_delta={max_delta_contacts}, threshold={threshold}",
                    threshold=threshold,
                )
        assert_matches_prefix(
            service, dataset, workload, f"threshold={threshold}", threshold=threshold
        )

    @pytest.mark.parametrize("temporal_resolution", (4, 8, 16))
    def test_grid_resolutions(self, dataset, temporal_resolution):
        """Whatever the grid's temporal resolution (it buckets the snapshot
        store's contact records), answers stay exact.  The spatial one is
        not an axis: the ingestor stores no sample, so it reaches no
        structure."""
        service = make_service(
            dataset,
            grid=ReachGridConfig(
                temporal_resolution=temporal_resolution,
                spatial_resolution=GRID.spatial_resolution,
            ),
            batch_ticks=7,
            max_delta_contacts=16,
        )
        workload = random_queries(dataset, count=8, seed=83)
        for batch in DatasetReplaySource(dataset, batch_ticks=7).batches():
            service.ingest(batch)
            assert_matches_prefix(
                service,
                dataset,
                workload,
                f"temporal_resolution={temporal_resolution}",
            )
        store = service.overlay.snapshot_store.manifest()
        assert store["temporal_resolution"] == temporal_resolution
        assert service.num_merges > 0


# ----------------------------------------------------------------------
# the structural half: every contact tick held exactly once
# ----------------------------------------------------------------------
class TestContactCoverage:
    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    @pytest.mark.parametrize("batch_ticks", (1, 3, 7, 16))
    def test_snapshot_delta_and_open_contacts_cover_the_prefix(
        self, dataset, batch_ticks, max_delta_contacts
    ):
        """Snapshot runs, the delta and the still-open contacts (past the
        snapshot watermark: a merge freezes an open contact's prefix) together
        cover the batch contact network of the prefix tick for tick, none
        twice."""
        service = make_service(
            dataset,
            batch_ticks=batch_ticks,
            max_delta_contacts=max_delta_contacts,
        )
        for batch in DatasetReplaySource(dataset, batch_ticks=batch_ticks).batches():
            service.ingest(batch)
            watermark = service.watermark
            overlay = service.overlay
            records = list(overlay.delta_records)
            if overlay.snapshot_store is not None:
                records += overlay.snapshot_store.read_overlapping(
                    TimeInterval(dataset.horizon.start, watermark)
                )
            frozen = overlay.snapshot_watermark
            for contact in service.ingestor.open_contacts():
                if frozen is not None:
                    contact = contact.clipped(frozen + 1, contact.validity.end)
                if contact is not None:
                    records += as_records([contact])
            expected = coverage(
                as_records(prefix_network(dataset, THRESHOLD, through=watermark).contacts)
            )
            assert coverage(records) == expected, f"watermark={watermark}"
        assert service.num_merges > 0


# ----------------------------------------------------------------------
# the service under a misbehaving producer and a scheduling caller
# ----------------------------------------------------------------------
def violation(batch, previous, next_tick, rng):
    """A batch that breaks the ingestion contract, and the error it raises.

    ``previous`` is the last accepted batch; ``next_tick`` the first tick
    ``batch`` carries.
    """
    kind = rng.choice(("regressed", "late", "gap"))
    if kind == "regressed":
        return StreamBatch((), watermark=previous.watermark - 1), WatermarkRegressionError
    victim = rng.choice(list(previous.samples))
    if kind == "late":
        late = SampleEvent(victim.object_id, previous.watermark, victim.position)
        return StreamBatch.of(list(batch.samples) + [late]), StreamingError
    skipped = [
        event
        for event in batch.samples
        if not (event.object_id == victim.object_id and event.time == next_tick)
    ]
    return StreamBatch(tuple(skipped), watermark=batch.watermark), StreamingError


class TestContractViolations:
    @pytest.mark.parametrize("seed", range(16))
    def test_rejected_batches_change_nothing(self, dataset, seed):
        """Regressed watermarks, late samples and dense-horizon gaps are
        rejected whole: the watermark, the event count and every answer are
        as if the batch had never been offered, and the stream carries on."""
        rng = random.Random(seed)
        service = make_service(dataset, max_delta_contacts=rng.choice(MERGE_THRESHOLDS))
        workload = list(random_queries(dataset, count=6, seed=seed + 90))
        previous = None
        rejected = 0
        for batch in DatasetReplaySource(dataset, batch_ticks=5).batches():
            if previous is not None and rng.random() < 0.6:
                bad, error = violation(
                    batch, previous, previous.watermark + 1, rng
                )
                watermark, events = service.watermark, service.stats.events
                with pytest.raises(error):
                    service.ingest(bad)
                rejected += 1
                assert service.watermark == watermark
                assert service.stats.events == events
                assert_matches_prefix(service, dataset, workload, f"seed={seed}")
            service.ingest(batch)
            previous = batch
        assert rejected > 0
        assert service.watermark == dataset.horizon.end
        assert_matches_prefix(service, dataset, workload, f"seed={seed}, drained")


class TestCallerScheduledMerges:
    @pytest.mark.parametrize("seed", range(8))
    def test_forced_merges_at_random_points(self, dataset, seed):
        """With automatic merges off, merges forced at random points —
        twice in a row at some, with no new ticks in between — never change
        an answer."""
        rng = random.Random(seed)
        service = make_service(dataset, auto_merge=False)
        workload = list(random_queries(dataset, count=8, seed=seed + 120))
        for batch in DatasetReplaySource(dataset, batch_ticks=rng.choice((3, 6))).batches():
            service.ingest(batch)
            if rng.random() < 0.5:
                service.merge()
                assert service.overlay.snapshot_watermark == service.watermark
                assert service.overlay.delta_size == 0
                if rng.random() < 0.3:
                    service.merge()
            assert_matches_prefix(service, dataset, workload, f"seed={seed}")
        assert service.num_merges > 0

    @pytest.mark.parametrize("cache_size", (0, 3, 64))
    @pytest.mark.parametrize("max_delta_contacts", MERGE_THRESHOLDS)
    def test_query_cache_never_serves_an_older_prefix(
        self, dataset, max_delta_contacts, cache_size
    ):
        """Each watermark's workload is asked twice: the second pass hits a
        cache that holds the whole workload, and both passes answer over the
        current prefix only — whether the cache is off, thrashing or large."""
        service = make_service(
            dataset, query_cache_size=cache_size, max_delta_contacts=max_delta_contacts
        )
        workload = list(random_queries(dataset, count=6, seed=7))
        for batch in DatasetReplaySource(dataset, batch_ticks=8).batches():
            service.ingest(batch)
            for _ in range(2):
                assert_matches_prefix(
                    service, dataset, workload, f"cache={cache_size}"
                )
        stats = service.stats
        if cache_size >= len(set(workload)):
            assert stats.cache_hits > 0
        elif cache_size == 0:
            assert stats.cache_hits == 0
        assert service.num_merges > 0


# ----------------------------------------------------------------------
# close, reopen and resume at any cut
# ----------------------------------------------------------------------
CUTS = (1, 3, 6)


class TestCloseReopenEquivalence:
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_reopen_matches_reference_at_the_cut(
        self, tmp_path, dataset, backend, cut
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = make_service(
            dataset, storage_config=storage_config, max_delta_contacts=16
        )
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[:cut]:
            service.ingest(batch)
        watermark = service.watermark
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        try:
            assert reopened.watermark == watermark
            assert_reopened_matches_prefix(
                reopened,
                dataset,
                THRESHOLD,
                random_queries(dataset, count=15, seed=cut),
                context=f"backend={backend}, cut={cut}",
            )
        finally:
            reopened.close()

    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_resume_at_the_cut_then_drain(self, tmp_path, dataset, backend, cut):
        """A service closed at the cut and resumed keeps ingesting: every
        later watermark answers over its prefix, as if never closed."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        config = dict(max_delta_contacts=4)
        service = make_service(dataset, storage_config=storage_config, **config)
        batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
        for batch in batches[:cut]:
            service.ingest(batch)
        service.close()
        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, streaming_config=StreamingConfig(**config)
        )
        try:
            assert resumed.watermark == batches[cut - 1].watermark
            workload = random_queries(dataset, count=8, seed=cut + 10)
            for batch in batches[cut:]:
                resumed.ingest(batch)
                assert_matches_prefix(
                    resumed, dataset, workload, f"backend={backend}, cut={cut}"
                )
            assert resumed.watermark == dataset.horizon.end
        finally:
            resumed.close()
