"""Correctness suite for the asyncio serving front-end.

The contract under test: at any awaited point, ``await query(q)`` on an
:class:`AsyncReachabilityService` returns bit-identical answers to the batch
``reference`` evaluator over the globally complete prefix
``[origin, low_watermark]`` — and therefore to the synchronous sharded and
unsharded services fed the same batches — *including while background merges
are in flight*.  Around that sit the mechanics that make the front-end safe
to operate: bounded-queue backpressure on ``ingest``, ``drain()`` as a
complete flush barrier, cancellation of in-flight merges leaving the overlay
untouched, and ingest errors surfacing on the next call instead of killing
the loops.

The suite intentionally avoids ``pytest-asyncio``: every test drives its own
event loop through :func:`run`, which also wraps the scenario in
``asyncio.wait_for`` — a built-in per-test timeout, so a deadlocked loop
fails the test instead of hanging the whole session (CI adds
``pytest-timeout`` on top as a second line of defense).
"""

from __future__ import annotations

import asyncio

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    EQUIVALENCE_MERGE_EXECUTORS,
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ConfigurationError,
    ContactConfig,
    ReachGridConfig,
    StreamingConfig,
    StreamingError,
    WatermarkRegressionError,
)
from repro.core.engine import ReachabilityEngine
from repro.generators import RandomWaypointGenerator
from repro.streaming import (
    AsyncReachabilityService,
    DatasetReplaySource,
    ShardedReachabilityService,
    StreamingReachabilityService,
)
from repro.workloads.queries import random_queries

THRESHOLD = 30.0
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)
CONTACTS = ContactConfig(distance_threshold=THRESHOLD)

#: Hard ceiling per scenario: a deadlocked event loop (a drain waiting on a
#: stalled queue, a merge that never adopts) trips this instead of hanging.
SCENARIO_TIMEOUT = 120.0


def run(coro):
    """Drive one async scenario to completion on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SCENARIO_TIMEOUT))


@pytest.fixture(scope="module")
def dataset():
    return RandomWaypointGenerator(
        num_objects=20, horizon=60, environment_size=(400.0, 400.0), seed=5
    ).generate()


def make_async(dataset, shards, storage_config=None, **config_overrides):
    config = StreamingConfig(shards=shards, **config_overrides)
    return AsyncReachabilityService.for_dataset(
        dataset,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=config,
        storage_config=storage_config,
    )


async def collect_async_answers(service, workload):
    """Answer every query through the awaited path, as a harness evaluator."""
    results = {query: await service.query(query) for query in workload}
    return results.__getitem__


# ----------------------------------------------------------------------
# equivalence: async ≡ sharded ≡ unsharded ≡ reference
# ----------------------------------------------------------------------
class TestAsyncEquivalence:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_equivalence_at_every_watermark(self, dataset, shards):
        """After each drained batch, async answers equal the reference (and
        both synchronous services) over the prefix — merges fire throughout."""

        async def scenario():
            overrides = dict(
                merge_policy="elapsed-intervals",
                max_elapsed_intervals=2,
                batch_ticks=12,
            )
            service = make_async(dataset, shards, **overrides)
            sharded = ShardedReachabilityService.for_dataset(
                dataset,
                contact_config=CONTACTS,
                grid_config=GRID,
                streaming_config=StreamingConfig(shards=shards, **overrides),
            )
            unsharded = StreamingReachabilityService.for_dataset(
                dataset,
                contact_config=CONTACTS,
                grid_config=GRID,
                streaming_config=StreamingConfig(**overrides),
            )
            workload = list(random_queries(dataset, count=8, seed=3))
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
                    await service.ingest(batch)
                    await service.drain()
                    sharded.ingest(batch)
                    unsharded.ingest(batch)
                    low = service.low_watermark
                    assert low == batch.watermark == sharded.low_watermark
                    assert_methods_agree(
                        reference_evaluator(
                            prefix_network(dataset, THRESHOLD, through=low)
                        ),
                        {
                            "async": await collect_async_answers(service, workload),
                            "sharded": sharded.query,
                            "unsharded": unsharded.query,
                        },
                        workload,
                        check_earliest=True,
                        context=f"shards={shards}, watermark={low}",
                    )
                assert service.background_merges > 0
            return service.stats

        stats = run(scenario())
        assert stats.sharded.events == dataset.num_objects * dataset.num_instants

    @pytest.mark.parametrize("executor", EQUIVALENCE_MERGE_EXECUTORS)
    def test_equivalence_per_merge_executor(self, dataset, executor):
        """The merge-executor axis of the async contract: background merges
        built on a thread or process pool (instead of ``asyncio.to_thread``)
        must leave every awaited answer reference-identical at every cut."""

        async def scenario():
            service = make_async(
                dataset,
                2,
                merge_policy="elapsed-intervals",
                max_elapsed_intervals=2,
                batch_ticks=12,
                merge_executor=executor,
                merge_workers=2,
            )
            workload = list(random_queries(dataset, count=8, seed=19))
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
                    await service.ingest(batch)
                    await service.drain()
                    assert_methods_agree(
                        reference_evaluator(
                            prefix_network(
                                dataset, THRESHOLD, through=service.low_watermark
                            )
                        ),
                        {"async": await collect_async_answers(service, workload)},
                        workload,
                        check_earliest=True,
                        context=f"executor={executor}, wm={service.low_watermark}",
                    )
                assert service.background_merges > 0

        run(scenario())

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_equivalence_on_persistent_backends(self, dataset, backend):
        """The storage_backend axis of the async contract: background merges
        appending snapshot runs to a real device must leave every awaited
        answer bit-identical to the batch reference at each watermark."""

        async def scenario():
            service = make_async(
                dataset,
                shards=2,
                storage_config=backend_storage_config(backend),
                max_delta_contacts=16,
                batch_ticks=12,
            )
            workload = list(random_queries(dataset, count=8, seed=29))
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
                    await service.ingest(batch)
                    await service.drain()
                    low = service.low_watermark
                    assert_methods_agree(
                        reference_evaluator(
                            prefix_network(dataset, THRESHOLD, through=low)
                        ),
                        {
                            f"async-{backend}": await collect_async_answers(
                                service, workload
                            )
                        },
                        workload,
                        check_earliest=True,
                        context=f"backend={backend}, watermark={low}",
                    )
                assert service.background_merges > 0
            return service.stats

        stats = run(scenario())
        assert stats.sharded.events == dataset.num_objects * dataset.num_instants

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_aclose_persists_shard_state_durably(self, dataset, backend, tmp_path):
        """Regression: shutting the async front-end down must flush and close
        the per-shard storage systems — on a persistent backend every shard's
        overlay manifest has to reach the directory, or the data dies with
        the process's file buffers."""

        async def scenario():
            service = make_async(
                dataset,
                shards=2,
                storage_config=backend_storage_config(
                    backend, storage_dir=str(tmp_path)
                ),
                merge_policy="elapsed-intervals",
                max_elapsed_intervals=2,
                batch_ticks=12,
            )
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=12).batches():
                    await service.ingest(batch)
                await service.drain()
            return service.stats

        stats = run(scenario())
        assert stats.sharded.merges > 0
        overlay_manifests = [
            p
            for p in tmp_path.iterdir()
            if "-overlay" in p.name and p.name.endswith(".manifest")
        ]
        assert len(overlay_manifests) == 2, "one durable manifest per shard"

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_queries_while_merges_in_flight(self, dataset, shards):
        """Answers issued while background merges are building must already be
        correct, and stay correct after the merges adopt their snapshots."""

        async def scenario():
            # A threshold no stream reaches: merges happen only when forced,
            # so the in-flight window is under the test's control.
            service = make_async(
                dataset, shards, max_delta_contacts=1_000_000, batch_ticks=6
            )
            workload = list(random_queries(dataset, count=10, seed=7))
            reference = reference_evaluator(prefix_network(dataset, THRESHOLD))
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=6).batches():
                    await service.ingest(batch)
                await service.drain()
                assert service.background_merges == 0

                tasks = service.schedule_merge()
                assert tasks, "every started shard should have a merge to run"
                assert service.merges_in_flight == len(tasks)
                # The first await hands control to the merge tasks; these
                # queries run concurrently with the merge builds.
                assert_methods_agree(
                    reference,
                    {"async-inflight": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                    context=f"shards={shards}, merges in flight",
                )
                await asyncio.gather(*tasks, return_exceptions=True)
                await service.drain()
                assert service.merges_in_flight == 0
                assert service.background_merges == len(tasks)
                assert_methods_agree(
                    reference,
                    {"async-postmerge": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                    context=f"shards={shards}, merges adopted",
                )

        run(scenario())

    def test_replay_convenience_matches_reference(self, dataset):
        async def scenario():
            service = make_async(dataset, 2, max_delta_contacts=24, batch_ticks=8)
            async with service:
                stats = await service.replay(dataset)
                assert stats.events == dataset.num_objects * dataset.num_instants
                workload = list(random_queries(dataset, count=10, seed=11))
                assert_methods_agree(
                    reference_evaluator(prefix_network(dataset, THRESHOLD)),
                    {"async": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                )

        run(scenario())


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queues_suspend_ingest(self, dataset):
        """With depth-1 queues and stalled loops, a second ingest must block
        until the loops resume — that suspension is the backpressure."""

        async def scenario():
            service = make_async(
                dataset, 2, async_queue_depth=1, batch_ticks=6
            )
            batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
            async with service:
                service.pause_ingest()
                await service.ingest(batches[0])  # fills the depth-1 queues
                assert service.pending_batches > 0
                # Draining behind a pause can never finish: fail fast instead.
                with pytest.raises(StreamingError):
                    await service.drain()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(service.ingest(batches[1]), timeout=0.25)
                # The timed-out ingest may have enqueued a prefix of its
                # per-shard sub-batches; per-shard FIFO order is intact, so
                # the service stays correct — the laggard just bounds the
                # low-watermark.
                service.resume_ingest()
                await service.drain()
                assert service.pending_batches == 0
                assert service.low_watermark == batches[0].watermark

        run(scenario())

    def test_aclose_releases_a_forgotten_pause(self, dataset):
        """The context-manager exit must flush, not deadlock, when the body
        left ingest paused (including when it raises mid-pause)."""

        async def scenario():
            service = make_async(dataset, 2, batch_ticks=6)
            batch = next(DatasetReplaySource(dataset, batch_ticks=6).batches())
            async with service:
                service.pause_ingest()
                await service.ingest(batch)
                assert service.pending_batches > 0
            # aclose() resumed the loops and drained before stopping them.
            assert service.pending_batches == 0
            assert service.low_watermark == batch.watermark

        run(scenario())

    def test_config_validates_queue_depth(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(async_queue_depth=0)


# ----------------------------------------------------------------------
# drain completeness
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_flushes_queues_and_merges(self, dataset):
        async def scenario():
            service = make_async(
                dataset, 2, max_delta_contacts=12, batch_ticks=6, async_queue_depth=2
            )
            async with service:
                for batch in DatasetReplaySource(dataset, batch_ticks=6).batches():
                    await service.ingest(batch)
                stats = await service.drain()
                assert service.pending_batches == 0
                assert service.merges_in_flight == 0
                assert service.low_watermark == dataset.horizon.end
                assert stats.events == dataset.num_objects * dataset.num_instants
                assert stats.background_merges > 0, (
                    "a 12-contact delta threshold must have fired mid-stream"
                )

        run(scenario())

    def test_drain_before_start_is_a_noop(self, dataset):
        async def scenario():
            service = make_async(dataset, 2)
            stats = await service.drain()
            assert stats.events == 0 and stats.pending_batches == 0

        run(scenario())


# ----------------------------------------------------------------------
# cancellation mid-merge
# ----------------------------------------------------------------------
class TestMergeCancellation:
    def test_cancelled_merge_leaves_overlay_consistent(self, dataset):
        async def scenario():
            service = make_async(
                dataset, 2, max_delta_contacts=1_000_000, batch_ticks=6
            )
            workload = list(random_queries(dataset, count=10, seed=13))
            reference = reference_evaluator(prefix_network(dataset, THRESHOLD))
            async with service:
                await service.replay(dataset)
                marks_before = [
                    shard.overlay.snapshot_watermark
                    for shard in service.service.shard_services
                ]
                tasks = service.schedule_merge()
                cancelled = await service.cancel_in_flight_merges()
                assert cancelled == len(tasks) > 0
                assert service.cancelled_merges == cancelled
                assert service.background_merges == 0
                assert service.merges_in_flight == 0
                # Nothing was adopted: snapshots untouched, answers unchanged.
                marks_after = [
                    shard.overlay.snapshot_watermark
                    for shard in service.service.shard_services
                ]
                assert marks_after == marks_before
                assert_methods_agree(
                    reference,
                    {"async-cancelled": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                    context="after cancelled merges",
                )
                # A later merge proceeds normally from the same state.
                await asyncio.gather(
                    *service.schedule_merge(), return_exceptions=True
                )
                await service.drain()
                assert service.background_merges > 0
                assert_methods_agree(
                    reference,
                    {"async-remerged": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                    context="after re-running the cancelled merges",
                )

        run(scenario())


# ----------------------------------------------------------------------
# cache invalidation on snapshot swap
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_snapshot_swap_invalidates_query_cache(self, dataset):
        async def scenario():
            service = make_async(
                dataset, 2, max_delta_contacts=1_000_000, batch_ticks=6
            )
            async with service:
                await service.replay(dataset)
                cache = service.service.query_cache
                query = next(iter(random_queries(dataset, count=1, seed=2)))
                first = await service.query(query)
                again = await service.query(query)
                assert again == first and cache.hits >= 1
                generation = cache.generation
                await asyncio.gather(
                    *service.schedule_merge(), return_exceptions=True
                )
                await service.drain()
                assert cache.generation > generation, (
                    "adopting a background merge must invalidate the cache"
                )
                misses = cache.misses
                post = await service.query(query)
                assert cache.misses == misses + 1, (
                    "a post-swap query must recompute, not reuse a pre-swap entry"
                )
                assert post.reachable == first.reachable
                assert post.earliest_time == first.earliest_time

        run(scenario())


# ----------------------------------------------------------------------
# error propagation and lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_ingest_contract_errors_surface_on_next_call(self, dataset):
        async def scenario():
            service = make_async(dataset, 2, batch_ticks=6)
            batches = list(DatasetReplaySource(dataset, batch_ticks=6).batches())
            async with service:
                await service.ingest(batches[0])
                await service.ingest(batches[1])
                await service.drain()
                # Re-delivering batch 0 regresses the watermark; the shard
                # loops reject it atomically and the rejection surfaces on
                # the next awaited call.
                await service.ingest(batches[0])
                with pytest.raises(WatermarkRegressionError):
                    await service.drain()
                # The rejection left every shard unchanged: the stream can
                # continue and stays equivalent to the reference.
                for batch in batches[2:]:
                    await service.ingest(batch)
                await service.drain()
                assert service.low_watermark == dataset.horizon.end
                workload = list(random_queries(dataset, count=6, seed=19))
                assert_methods_agree(
                    reference_evaluator(prefix_network(dataset, THRESHOLD)),
                    {"async-recovered": await collect_async_answers(service, workload)},
                    workload,
                    check_earliest=True,
                    require_earliest=True,
                )

        run(scenario())

    def test_closed_service_rejects_use(self, dataset):
        async def scenario():
            service = make_async(dataset, 2, batch_ticks=6)
            batch = next(DatasetReplaySource(dataset, batch_ticks=6).batches())
            async with service:
                await service.ingest(batch)
            # the context manager exit ran aclose()
            with pytest.raises(StreamingError):
                await service.ingest(batch)
            with pytest.raises(StreamingError):
                await service.query(
                    next(iter(random_queries(dataset, count=1, seed=0)))
                )
            await service.aclose()  # idempotent

        run(scenario())

    def test_engine_dispatches_async_mode(self, dataset):
        engine = ReachabilityEngine(dataset, contact_config=CONTACTS)
        service = engine.streaming(async_mode=True, shards=2)
        assert isinstance(service, AsyncReachabilityService)
        assert service.num_shards == 2
        assert isinstance(engine.streaming(shards=2), ShardedReachabilityService)
        assert isinstance(engine.streaming(), StreamingReachabilityService)

    def test_queries_before_any_ingest(self, dataset):
        async def scenario():
            service = make_async(dataset, 2)
            async with service:
                query = next(iter(random_queries(dataset, count=1, seed=4)))
                assert not (await service.query(query)).reachable

        run(scenario())


# ----------------------------------------------------------------------
# the close/reopen axis (crash-consistent recovery)
# ----------------------------------------------------------------------
class TestAsyncCloseReopen:
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_reopen_after_aclose_matches_reference_at_every_cut(
        self, dataset, backend, tmp_path
    ):
        """aclose() at each batch cut, then reopen the on-device state: the
        restored service answers over the committed low-watermark prefix,
        bit-identically to the batch reference — merges fire throughout."""
        from equivalence import assert_reopened_matches_prefix

        batches = list(DatasetReplaySource(dataset, batch_ticks=20).batches())
        workload = random_queries(dataset, count=12, seed=59)
        for cut in range(1, len(batches) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            config = backend_storage_config(backend, storage_dir=str(directory))
            service = make_async(
                dataset, 2, storage_config=config,
                merge_policy="elapsed-intervals", max_elapsed_intervals=2,
            )

            async def scenario():
                async with service:
                    for batch in batches[:cut]:
                        await service.ingest(batch)
                    await service.drain()
                    return service.low_watermark

            low = run(scenario())
            reopened = AsyncReachabilityService.reopen(config, name=service.name)
            assert reopened.watermark == low
            assert_reopened_matches_prefix(
                reopened, dataset, THRESHOLD, workload,
                context=f"backend={backend}, cut={cut}",
            )
            reopened.close()
