"""Property-based equivalence suite for sharded stream ingestion.

The contract under test (the strongest guarantee of the sharded subsystem):
at any point of the stream, a :class:`ShardedReachabilityService` answers
every reachability query exactly like the batch ``reference`` evaluator over
the globally complete prefix ``[origin, low_watermark]`` — and therefore
exactly like the single-shard :class:`StreamingReachabilityService` fed the
same batches — for every shard count, both routers, merge policies firing
mid-stream, and arbitrary (per-shard watermark-ordered) delivery
interleavings.

Run ``pytest tests/test_sharding.py --shards N`` to pin the shard count (the
CI matrix does); without the flag every canned count is exercised.
"""

from __future__ import annotations

import random

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ConfigurationError,
    ContactConfig,
    Point,
    ReachGridConfig,
    ShardingError,
    StreamingConfig,
    WatermarkRegressionError,
)
from repro.core.engine import ReachabilityEngine
from repro.generators import RandomWaypointGenerator
from repro.streaming import (
    DatasetReplaySource,
    HashRouter,
    SampleEvent,
    ShardedReachabilityService,
    ShardedStreamIngestor,
    SpatialCellRouter,
    StreamIngestor,
    StreamingReachabilityService,
    make_router,
)
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
SHARD_COUNTS = (1, 2, 4, 8)
ROUTERS = ("hash", "spatial")

#: Spatial resolution small enough that the spatial router actually spreads
#: objects across shards on the small test environment (the default 1024 m
#: would put the whole 400 m environment into one cell — one shard).
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)


def pytest_generate_tests(metafunc):
    if "shards" in metafunc.fixturenames:
        chosen = metafunc.config.getoption("shards", default=None)
        counts = (chosen,) if chosen else SHARD_COUNTS
        metafunc.parametrize("shards", counts)


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=5
    ).generate()


def make_sharded(dataset, shards, router, storage_config=None, **config_overrides):
    config = StreamingConfig(shards=shards, router=router, **config_overrides)
    return ShardedReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=config,
        storage_config=storage_config,
    )


def make_unsharded(dataset, **config_overrides):
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**config_overrides),
    )


# ----------------------------------------------------------------------
# the equivalence properties
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_drained_stream_matches_reference_and_unsharded(
        self, dataset, shards, router
    ):
        sharded = make_sharded(
            dataset, shards, router, max_delta_contacts=24, batch_ticks=8
        )
        sharded.drain(dataset)
        unsharded = make_unsharded(dataset, max_delta_contacts=24, batch_ticks=8)
        unsharded.drain(dataset)
        assert sharded.low_watermark == dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(prefix_network(dataset, THRESHOLD)),
            {"sharded": sharded.query, "unsharded": unsharded.query},
            random_queries(dataset, count=30, seed=17),
            check_earliest=True,
            context=f"shards={shards}, router={router}, drained",
        )

    @pytest.mark.parametrize("router", ROUTERS)
    def test_equivalence_at_every_watermark(self, dataset, shards, router):
        # elapsed-intervals fires for every shard that flushes grid intervals,
        # so merges definitely cross the checked watermarks.
        sharded = make_sharded(
            dataset,
            shards,
            router,
            merge_policy="elapsed-intervals",
            max_elapsed_intervals=2,
            batch_ticks=12,
        )
        unsharded = make_unsharded(
            dataset,
            merge_policy="elapsed-intervals",
            max_elapsed_intervals=2,
            batch_ticks=12,
        )
        workload = random_queries(dataset, count=8, seed=3)
        for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
            sharded.ingest(batch)
            unsharded.ingest(batch)
            low = sharded.low_watermark
            assert low == batch.watermark == unsharded.watermark
            assert_methods_agree(
                reference_evaluator(prefix_network(dataset, THRESHOLD, through=low)),
                {"sharded": sharded.query, "unsharded": unsharded.query},
                workload,
                check_earliest=True,
                context=f"shards={shards}, router={router}, watermark={low}",
            )
        assert sharded.num_merges > 0

    @pytest.mark.parametrize("build_reachgraph_on_merge", (False, True))
    def test_equivalence_shards_build_no_graph(
        self, dataset, shards, build_reachgraph_on_merge
    ):
        """Per-shard snapshots never build the ReachGraph fast path (they are
        not individually authoritative), whatever the coordinator's config
        asks for: identical answers at every watermark, zero graph writes."""
        # elapsed-intervals fires for every shard that flushes grid intervals,
        # so merges definitely run on every shard.
        sharded = make_sharded(
            dataset,
            shards,
            "hash",
            merge_policy="elapsed-intervals",
            max_elapsed_intervals=2,
            batch_ticks=12,
            build_reachgraph_on_merge=build_reachgraph_on_merge,
        )
        workload = random_queries(dataset, count=8, seed=11)
        for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
            sharded.ingest(batch)
            low = sharded.low_watermark
            assert_methods_agree(
                reference_evaluator(prefix_network(dataset, THRESHOLD, through=low)),
                {"sharded": sharded.query},
                workload,
                check_earliest=True,
                context=f"shards={shards}, watermark={low}",
            )
        assert sharded.num_merges > 0
        assert all(
            shard.graph_records_written == 0
            and shard.graph_rebuilds == 0
            and not shard.overlay.has_reachgraph
            for shard in sharded.shard_services
        ), "per-shard services must never build a graph"

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_equivalence_on_persistent_backends(self, dataset, shards, backend):
        """Per-shard snapshot extents on a real device: answers at every
        watermark must stay bit-identical to the batch reference (the
        storage_backend axis of the sharded equivalence contract)."""
        sharded = make_sharded(
            dataset,
            shards,
            "hash",
            storage_config=backend_storage_config(backend),
            merge_policy="elapsed-intervals",
            max_elapsed_intervals=2,
            batch_ticks=12,
        )
        workload = random_queries(dataset, count=8, seed=23)
        for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
            sharded.ingest(batch)
            low = sharded.low_watermark
            assert_methods_agree(
                reference_evaluator(prefix_network(dataset, THRESHOLD, through=low)),
                {f"sharded-{backend}": sharded.query},
                workload,
                check_earliest=True,
                context=f"shards={shards}, backend={backend}, watermark={low}",
            )
        assert sharded.num_merges > 0, "merges must hit the real device"
        sharded.close()

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_shuffled_shard_delivery_matches_prefix_reference(
        self, dataset, shards, router, seed
    ):
        """Sub-batches delivered in a random interleaving (per-shard order
        kept) must answer over the prefix the low-watermark makes complete —
        regardless of how far individual shards race ahead."""
        sharded = make_sharded(
            dataset, shards, router, max_delta_contacts=8, batch_ticks=6
        )
        queues = {shard: [] for shard in range(shards)}
        for batch in DatasetReplaySource(dataset, batch_ticks=6).batches():
            for shard, sub in enumerate(sharded.route_batch(batch)):
                queues[shard].append(sub)
        rng = random.Random(seed)
        position = {shard: 0 for shard in queues}
        workload = list(random_queries(dataset, count=6, seed=seed + 40))
        checked = 0
        while any(position[s] < len(queues[s]) for s in queues):
            candidates = [s for s in queues if position[s] < len(queues[s])]
            shard = rng.choice(candidates)
            sharded.ingest_shard(shard, queues[shard][position[shard]])
            position[shard] += 1
            low = sharded.low_watermark
            if low is None or rng.random() < 0.5:
                continue  # not globally started yet / sample the watermarks
            assert low == min(w for w in sharded.watermarks)
            assert_methods_agree(
                reference_evaluator(prefix_network(dataset, THRESHOLD, through=low)),
                {"sharded": sharded.query},
                workload,
                check_earliest=True,
                require_earliest=True,
                context=f"shards={shards}, router={router}, seed={seed}, low={low}",
            )
            checked += 1
        assert sharded.low_watermark == dataset.horizon.end
        if shards > 1:
            assert checked > 0

    def test_random_datasets_random_policies(self, shards):
        """Seeded-random property sweep: fresh datasets, random policy and
        batch size, full-drain equivalence against the batch reference."""
        for seed in range(3):
            rng = random.Random(1000 * shards + seed)
            data = RandomWaypointGenerator(
                num_objects=rng.randint(10, 24),
                horizon=rng.randint(30, 70),
                environment_size=(350.0, 350.0),
                seed=seed,
            ).generate()
            policy = rng.choice(
                ("delta-size", "elapsed-intervals", "amplification")
            )
            sharded = make_sharded(
                data,
                shards,
                rng.choice(ROUTERS),
                merge_policy=policy,
                max_delta_contacts=rng.choice((8, 64)),
                max_elapsed_intervals=rng.choice((2, 4)),
                max_amplification=rng.choice((0.25, 1.0)),
                batch_ticks=rng.choice((4, 9, 16)),
            )
            sharded.drain(data)
            assert_methods_agree(
                reference_evaluator(prefix_network(data, THRESHOLD)),
                {"sharded": sharded.query},
                random_queries(data, count=15, seed=seed),
                check_earliest=True,
                require_earliest=True,
                context=f"shards={shards}, seed={seed}, policy={policy}",
            )


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------
class TestRouters:
    def test_hash_router_is_deterministic_and_total(self):
        router = HashRouter(4)
        event = SampleEvent(7, 0, Point(1.0, 1.0))
        assert router.assign(event) == router.assign(event) == router.shard_of(7)
        shards = {router.shard_of(object_id) for object_id in range(200)}
        assert shards == {0, 1, 2, 3}, "200 ids should hit all 4 shards"

    def test_spatial_router_pins_objects_to_first_cell(self):
        router = SpatialCellRouter(
            3, environment_size=(400.0, 400.0), spatial_resolution=60.0
        )
        assert router.shard_of(1) is None
        first = router.assign(SampleEvent(1, 0, Point(10.0, 10.0)))
        # The object moved across the environment: the assignment must not.
        later = router.assign(SampleEvent(1, 5, Point(390.0, 390.0)))
        assert later == first == router.shard_of(1)

    def test_make_router_dispatch_and_validation(self):
        assert isinstance(make_router("hash", 2, (100.0, 100.0), 10.0), HashRouter)
        assert isinstance(
            make_router("spatial", 2, (100.0, 100.0), 10.0), SpatialCellRouter
        )
        with pytest.raises(ConfigurationError):
            make_router("nope", 2, (100.0, 100.0), 10.0)
        with pytest.raises(ConfigurationError):
            HashRouter(0)

    def test_streaming_config_validates_sharding(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(shards=0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(router="mod")
        assert StreamingConfig().with_shards(4, router="spatial").shards == 4


# ----------------------------------------------------------------------
# the sharded ingestor
# ----------------------------------------------------------------------
class TestShardedStreamIngestor:
    def _ingestor(self, dataset, shards=3, router="hash"):
        ingestors = [
            StreamIngestor(
                dataset.environment_size,
                contact_config=CONTACTS,
                grid_config=GRID,
                name=f"shard{i}",
            )
            for i in range(shards)
        ]
        return ShardedStreamIngestor(
            ingestors,
            make_router(router, shards, dataset.environment_size, 60.0),
            THRESHOLD,
        )

    def test_route_batch_partitions_and_keeps_watermark(self, dataset):
        sharded = self._ingestor(dataset)
        batch = next(DatasetReplaySource(dataset, batch_ticks=4).batches())
        subs = sharded.route_batch(batch)
        assert len(subs) == 3
        assert all(sub.watermark == batch.watermark for sub in subs)
        assert sum(len(sub) for sub in subs) == len(batch)
        routed = sorted(
            (event.object_id, event.time) for sub in subs for event in sub
        )
        assert routed == sorted((e.object_id, e.time) for e in batch)

    def test_low_watermark_trails_the_laggard(self, dataset):
        sharded = self._ingestor(dataset, shards=2)
        batches = list(DatasetReplaySource(dataset, batch_ticks=5).batches())
        subs0 = sharded.route_batch(batches[0])
        sharded.ingest_shard(0, subs0[0])
        assert sharded.low_watermark is None, "shard 1 has not started"
        sharded.ingest_shard(1, subs0[1])
        assert sharded.low_watermark == batches[0].watermark
        subs1 = sharded.route_batch(batches[1])
        sharded.ingest_shard(0, subs1[0])
        assert sharded.watermarks == (batches[1].watermark, batches[0].watermark)
        assert sharded.low_watermark == batches[0].watermark

    def test_ingest_shard_rejects_misrouted_samples(self, dataset):
        sharded = self._ingestor(dataset)
        batch = next(DatasetReplaySource(dataset, batch_ticks=4).batches())
        subs = sharded.route_batch(batch)
        wrong = [shard for shard, sub in enumerate(subs) if len(sub)][0]
        victim = (wrong + 1) % 3
        with pytest.raises(ShardingError):
            sharded.ingest_shard(victim, subs[wrong])
        with pytest.raises(ShardingError):
            sharded.ingest_shard(99, subs[wrong])

    def test_lockstep_ingest_is_atomic_across_shards(self, dataset):
        sharded = self._ingestor(dataset)
        batches = list(DatasetReplaySource(dataset, batch_ticks=5).batches())
        sharded.ingest(batches[1])
        events_before = sharded.num_events
        with pytest.raises(WatermarkRegressionError):
            sharded.ingest(batches[0])  # regressed watermark: no shard moves
        assert sharded.num_events == events_before
        assert all(w == batches[1].watermark for w in sharded.watermarks)

    def test_contact_coverage_partitions_across_shards(self, dataset):
        """Intra-shard contacts plus cross-shard contacts must cover exactly
        the batch contact network (per pair, instant for instant)."""
        sharded = self._ingestor(dataset, shards=4, router="spatial")
        for batch in DatasetReplaySource(dataset, batch_ticks=7).batches():
            sharded.ingest(batch)

        def coverage(contacts):
            per_pair = {}
            for contact in contacts:
                key = (contact.first, contact.second)
                per_pair[key] = per_pair.get(key, 0) + contact.validity.length
            return per_pair

        union = []
        for shard in sharded.shards:
            union.extend(shard.contacts_through_watermark())
        union.extend(sharded.cross_shard_contacts())
        batch_network = prefix_network(dataset, THRESHOLD)
        assert coverage(union) == coverage(batch_network.contacts)
        # ... and the cross-shard tracker only ever reports true cross pairs.
        for contact in sharded.cross_shard_contacts():
            assert sharded.router.shard_of(contact.first) != sharded.router.shard_of(
                contact.second
            )

    def test_shard_events_account_for_everything(self, dataset):
        sharded = self._ingestor(dataset, shards=4)
        total = sum(
            sharded.ingest(batch)
            for batch in DatasetReplaySource(dataset, batch_ticks=10).batches()
        )
        assert sharded.num_events == total == sum(sharded.shard_events)
        assert sharded.num_flushed_intervals == sum(
            shard.num_flushed_intervals for shard in sharded.shards
        )


# ----------------------------------------------------------------------
# the coordinator service
# ----------------------------------------------------------------------
class TestShardedService:
    def test_engine_streaming_dispatches_on_shards(self, dataset):
        engine = ReachabilityEngine(dataset, contact_config=CONTACTS)
        assert isinstance(engine.streaming(), StreamingReachabilityService)
        sharded = engine.streaming(shards=4, router="spatial")
        assert isinstance(sharded, ShardedReachabilityService)
        assert sharded.num_shards == 4
        assert sharded.router.name == "spatial"
        config = StreamingConfig(shards=2)
        assert isinstance(
            engine.streaming(streaming_config=config), ShardedReachabilityService
        )

    def test_queries_before_any_ingest(self, dataset):
        service = make_sharded(dataset, 2, "hash")
        queries = list(random_queries(dataset, count=2, seed=0))
        assert not service.query(queries[0]).reachable
        same = queries[0].__class__(3, 3, queries[0].interval)
        result = service.query(same)
        assert result.reachable and result.earliest_time == same.interval.start

    def test_cache_hits_and_low_watermark_invalidation(self, dataset):
        service = make_sharded(dataset, 2, "hash", batch_ticks=10)
        batches = list(DatasetReplaySource(dataset, batch_ticks=10).batches())
        service.ingest(batches[0])
        query = next(iter(random_queries(dataset, count=1, seed=8)))
        service.query(query)
        service.query(query)
        assert service.stats.cache_hits == 1
        service.ingest(batches[1])  # low-watermark advance invalidates
        service.query(query)
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 2

    def test_forced_merge_freezes_every_started_shard(self, dataset):
        service = make_sharded(dataset, 4, "hash", max_delta_contacts=100_000)
        service.drain(dataset)
        assert service.num_merges == 0
        service.merge()
        low = service.low_watermark
        for shard in service.shard_services:
            if shard.ingestor.origin is None:
                continue  # a shard that never received an object
            assert shard.overlay.snapshot_watermark == low
            assert shard.overlay.delta_size == 0

    def test_stats_shape(self, dataset):
        service = make_sharded(dataset, 2, "spatial", batch_ticks=10)
        stats = service.drain(dataset)
        assert stats.shards == 2 and stats.router == "spatial"
        assert stats.events == dataset.num_objects * dataset.num_instants
        assert sum(stats.shard_events) == stats.events
        assert stats.low_watermark == dataset.horizon.end
        assert stats.events_per_second > 0

    def test_closed_service_rejects_use(self, dataset):
        """Regression: a closed coordinator must not serve stale cached
        answers or surface raw storage errors from its closed shards."""
        from repro.core import StreamingError
        from repro.workloads.queries import random_queries as _queries

        service = make_sharded(dataset, 2, "hash")
        batches = list(DatasetReplaySource(dataset, batch_ticks=30).batches())
        service.ingest(batches[0])
        query = next(iter(_queries(dataset, count=1, seed=3)))
        service.query(query)  # populate the coordinator cache
        service.close()
        with pytest.raises(StreamingError):
            service.query(query)
        with pytest.raises(StreamingError):
            service.ingest(batches[1])
        with pytest.raises(StreamingError):
            service.merge()
        service.close()  # idempotent


# ----------------------------------------------------------------------
# the close/reopen axis (crash-consistent recovery)
# ----------------------------------------------------------------------
class TestShardedCloseReopen:
    def test_reopen_matches_reference_at_every_watermark(
        self, dataset, shards, tmp_path
    ):
        """Close at each batch cut and reopen read-only: the restored
        coordinator answers over exactly the committed low-watermark prefix,
        bit-identically to the batch reference evaluator."""
        from equivalence import assert_reopened_matches_prefix
        from repro.streaming import ShardedSnapshotQueryService

        batches = list(DatasetReplaySource(dataset, batch_ticks=20).batches())
        workload = random_queries(dataset, count=12, seed=53)
        for cut in range(1, len(batches) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            config = backend_storage_config("file", storage_dir=str(directory))
            service = make_sharded(
                dataset, shards, "hash",
                storage_config=config, max_delta_contacts=24,
            )
            for batch in batches[:cut]:
                service.ingest(batch)
            expected = service.low_watermark
            service.close()
            reopened = ShardedSnapshotQueryService.open(config, name=service.name)
            assert reopened.watermark == expected
            assert reopened.num_shards == shards
            assert_reopened_matches_prefix(
                reopened, dataset, THRESHOLD, workload,
                context=f"shards={shards}, cut={cut}",
            )
            reopened.close()

    def test_close_after_interrupted_merge_reopens_consistently(
        self, dataset, tmp_path
    ):
        """A merge killed between build and adopt leaves the overlay
        untouched; a subsequent clean close must reopen to the full prefix."""
        from equivalence import assert_reopened_matches_prefix
        from repro.streaming import ShardedSnapshotQueryService
        from repro.testing import faults
        from repro.testing.faults import SimulatedCrash

        config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = make_sharded(
            dataset, 2, "hash", storage_config=config, max_delta_contacts=100_000
        )
        service.drain(dataset)
        faults.arm("merge-pre-adopt")
        with pytest.raises(SimulatedCrash):
            service.merge()
        faults.clear()
        low = service.low_watermark
        service.close()
        reopened = ShardedSnapshotQueryService.open(config, name=service.name)
        assert reopened.watermark == low == dataset.horizon.end
        assert_reopened_matches_prefix(
            reopened, dataset, THRESHOLD,
            random_queries(dataset, count=15, seed=61),
            context="close after interrupted merge",
        )
        reopened.close()
