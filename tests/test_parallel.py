"""Tests for true multi-core execution: merge executors and query workers.

The correctness bar mirrors the rest of the streaming matrix: *where* the
pure build phase of a merge runs (calling thread, thread pool, worker
process) and *who* answers a query (the owning thread or a process-pool
worker over a reopened snapshot) must never change an answer.  Every
equivalence test here compares against the batch ``reference`` evaluator
over the exact committed prefix, the same way ``test_streaming.py`` and
``test_sharding.py`` do for their axes.
"""

from __future__ import annotations

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    EQUIVALENCE_MERGE_EXECUTORS,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ConfigurationError,
    StreamingConfig,
    StreamingError,
)
from repro.core.engine import ReachabilityEngine
from repro.streaming import (
    DatasetReplaySource,
    InlineMergeExecutor,
    ParallelQueryService,
    PoolMergeExecutor,
    ShardedReachabilityService,
    StreamingReachabilityService,
    make_merge_executor,
)
from repro.testing import faults
from repro.testing.faults import SimulatedCrash
from repro.workloads.queries import random_queries

# The contact threshold of the shared tiny_* fixtures (see test_streaming.py
# for why it is repeated here instead of imported from conftest).
TINY_THRESHOLD = 30.0

assert EQUIVALENCE_MERGE_EXECUTORS == ("inline", "thread", "process")

#: Small delta bound so replays force several merges through the executor —
#: small enough that even a 3-way sharded split of the tiny dataset trips
#: every shard's policy more than once.
MERGY = dict(max_delta_contacts=20, batch_ticks=8)


def _service(dataset, contact_config, storage_config=None, **overrides):
    config = StreamingConfig(**{**MERGY, **overrides})
    cls = (
        ShardedReachabilityService
        if config.shards > 1
        else StreamingReachabilityService
    )
    return cls.for_dataset(
        dataset,
        contact_config=contact_config,
        streaming_config=config,
        storage_config=storage_config,
    )


# ----------------------------------------------------------------------
# construction and config wiring
# ----------------------------------------------------------------------
class TestExecutorConstruction:
    def test_make_merge_executor_dispatch(self):
        assert isinstance(make_merge_executor("inline"), InlineMergeExecutor)
        for kind in ("thread", "process"):
            executor = make_merge_executor(kind, workers=3)
            assert isinstance(executor, PoolMergeExecutor)
            assert executor.kind == kind and executor.workers == 3
            executor.close()

    def test_make_merge_executor_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="merge executor"):
            make_merge_executor("fibers")

    def test_pool_executor_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            PoolMergeExecutor("inline", workers=2)
        with pytest.raises(ConfigurationError):
            PoolMergeExecutor("thread", workers=0)

    def test_streaming_config_validates_executor(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(merge_executor="fibers")
        with pytest.raises(ConfigurationError):
            StreamingConfig(merge_workers=0)
        derived = StreamingConfig().with_merge_executor("process", 4)
        assert derived.merge_executor == "process" and derived.merge_workers == 4
        kept = StreamingConfig(merge_workers=3).with_merge_executor("thread")
        assert kept.merge_workers == 3, "workers survive when not overridden"

    def test_engine_streaming_wires_executor(self, tiny_dataset):
        engine = ReachabilityEngine(tiny_dataset)
        service = engine.streaming(merge_executor="thread", merge_workers=1)
        try:
            assert service.merge_executor.kind == "thread"
            assert service.merge_executor.workers == 1
        finally:
            service.close()

    def test_closed_pool_executor_rejects_submits(self):
        executor = make_merge_executor("thread", workers=1)
        executor.close()
        with pytest.raises(StreamingError):
            executor._ensure_pool()
        executor.close()  # idempotent


# ----------------------------------------------------------------------
# the merge-executor axis of the equivalence matrix
# ----------------------------------------------------------------------
class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", EQUIVALENCE_MERGE_EXECUTORS)
    @pytest.mark.parametrize("shards", (1, 3))
    def test_equivalence_at_every_watermark(
        self, executor, shards, tiny_dataset, tiny_contact_config
    ):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            shards=shards,
            merge_executor=executor,
            merge_workers=2,
        )
        workload = random_queries(tiny_dataset, count=10, seed=3)
        try:
            source = DatasetReplaySource(tiny_dataset, batch_ticks=8)
            for position, batch in enumerate(source.batches()):
                service.ingest(batch)
                if position % 5 != 4:
                    continue
                watermark = service.watermark
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(tiny_dataset, TINY_THRESHOLD, through=watermark)
                    ),
                    {"streaming": service.query},
                    workload,
                    context=f"executor={executor}, shards={shards}, wm={watermark}",
                )
            assert service.num_merges > 0, "the delta bound should force merges"
            service.merge()  # the executor also serves the forced tail merge
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                workload,
                check_earliest=True,
                context=f"executor={executor}, shards={shards}, post-merge",
            )
        finally:
            service.close()

    def test_process_executor_patches_the_graph(
        self, graph_labels, tiny_dataset, tiny_contact_config
    ):
        # Graph patches (and their label patches) built in a worker process
        # and applied on the owning thread keep the answers
        # reference-identical.
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            merge_executor="process",
            merge_workers=2,
            graph_labels=graph_labels,
        )
        try:
            service.drain(tiny_dataset)
            service.merge()
            assert service.num_merges > 1
            assert service.graph_rebuilds == 1
            index = service.overlay.snapshot_processor.index
            assert (index.labels is not None) == graph_labels
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                random_queries(tiny_dataset, count=10, seed=21),
                check_earliest=True,
                context=f"process executor, graph_labels={graph_labels}",
            )
        finally:
            service.close()

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_pool_executor_runs_every_build(
        self, executor, tiny_dataset, tiny_contact_config
    ):
        # Every merge — the first graph build as well as every patch — is
        # shipped to the pool; no build falls back to the owning thread.
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            merge_executor=executor,
            merge_workers=2,
        )
        try:
            service.drain(tiny_dataset)
            service.merge()
            pool = service.merge_executor
            timings = pool.timings.timings
            assert service.num_merges > 1
            assert len(timings) == service.num_merges
            assert pool.counters.get("merge.builds") == service.num_merges
            assert {timing.executor for timing in timings} == {executor}
            assert service.graph_rebuilds == 1
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                random_queries(tiny_dataset, count=10, seed=5),
                check_earliest=True,
                context=f"executor={executor}",
            )
        finally:
            service.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_process_executor_on_persistent_backends(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            storage_config=storage_config,
            merge_executor="process",
            merge_workers=2,
        )
        workload = random_queries(tiny_dataset, count=10, seed=7)
        try:
            service.drain(tiny_dataset)
            service.merge()
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                workload,
                check_earliest=True,
                context=f"process executor, backend={backend}",
            )
            name = service.name
        finally:
            service.close()
        # What a process-built merge adopted and flushed reopens identically.
        reopened = StreamingReachabilityService.open(storage_config, name=name)
        try:
            assert_reopened_matches_prefix(
                reopened,
                tiny_dataset,
                TINY_THRESHOLD,
                workload,
                context=f"reopen after process-built merges, backend={backend}",
            )
        finally:
            reopened.close()

    def test_mid_merge_crash_leaves_consistent_state(
        self, tiny_dataset, tiny_contact_config
    ):
        # The executor moves the *build*; the pre-adopt crash point still
        # fires on the owning thread, after the build future resolved and
        # before anything was adopted — so a crash there loses no answers.
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=10_000,
            merge_executor="thread",
            merge_workers=2,
        )
        workload = random_queries(tiny_dataset, count=10, seed=9)
        try:
            service.drain(tiny_dataset)
            before = service.num_merges
            faults.arm("merge-pre-adopt")
            with pytest.raises(SimulatedCrash):
                service.merge()
            assert service.num_merges == before, "nothing adopted"
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                workload,
                context="after aborted merge",
            )
            service.merge()  # disarmed: the executor path works again
            assert service.num_merges == before + 1
            assert_methods_agree(
                reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
                {"streaming": service.query},
                workload,
                check_earliest=True,
                context="after recovered merge",
            )
        finally:
            service.close()


# ----------------------------------------------------------------------
# executor bookkeeping: timings, overlap, counters
# ----------------------------------------------------------------------
class TestExecutorBookkeeping:
    def test_inline_builds_never_overlap(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config)
        try:
            service.drain(tiny_dataset)
            service.merge()
            summary = service.merge_executor.timings.summary()
            assert summary["builds"] == service.num_merges > 0
            assert summary["overlapped_builds"] == 0
            assert summary["total_build_seconds"] >= 0.0
        finally:
            service.close()

    def test_sharded_pool_builds_overlap(self, tiny_dataset, tiny_contact_config):
        # The coordinator submits every shard's build before adopting any,
        # so on a pool executor the per-shard builds mark each other as
        # overlapped — the observable witness that merges left the single
        # inline lane, even on a single-core host.
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            shards=3,
            merge_executor="thread",
            merge_workers=2,
        )
        try:
            service.drain(tiny_dataset)
            service.merge()
            executor = service.merge_executor
            assert executor.counters.get("merge.builds") == len(executor.timings)
            assert executor.counters.get("merge.overlapped_builds") > 0
            assert executor.in_flight == 0, "all builds settled"
        finally:
            service.close()

    def test_shards_share_one_executor(self, tiny_dataset, tiny_contact_config):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            shards=2,
            merge_executor="thread",
            merge_workers=1,
        )
        try:
            executors = {id(shard.merge_executor) for shard in service._shards}
            assert executors == {id(service.merge_executor)}
        finally:
            service.close()



# ----------------------------------------------------------------------
# read side: the process-pool query fleet
# ----------------------------------------------------------------------
class TestParallelQueryService:
    def test_rejects_sim_backend_and_bad_workers(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        from repro.core import StorageConfig

        with pytest.raises(StreamingError, match="persistent"):
            ParallelQueryService.open(StorageConfig(), "stream")  # sim backend
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            ParallelQueryService.open(storage_config, "stream", workers=0)
        with pytest.raises(StreamingError, match="for_service"):
            ParallelQueryService.for_service(object())

    def test_attached_fleet_matches_live_service(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=10_000,
            storage_config=storage_config,
        )
        workload = list(random_queries(tiny_dataset, count=8, seed=11))
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=30).batches())
        try:
            for batch in batches[:2]:
                service.ingest(batch)
            service.merge()
            with ParallelQueryService.for_service(service, workers=2) as fleet:
                assert fleet.watermark == service.watermark
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(
                            tiny_dataset, TINY_THRESHOLD, through=fleet.watermark
                        )
                    ),
                    {"live": service.query, "fleet": fleet.query},
                    workload,
                    context="attached fleet, first generation",
                )
                generation = fleet.generation

                # A newly adopted merge invalidates the fleet automatically.
                for batch in batches[2:]:
                    service.ingest(batch)
                service.merge()
                answers = fleet.query_many(workload)
                assert fleet.generation == generation + 1
                assert fleet.num_refreshes == 1
                assert [a.reachable for a in answers] == [
                    service.query(q).reachable for q in workload
                ]
                assert fleet.watermark == tiny_dataset.horizon.end
                assert fleet.num_queries == 2 * len(workload)
        finally:
            service.close()

    def test_open_mode_fleet_over_flushed_state(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset, tiny_contact_config, storage_config=storage_config
        )
        workload = list(random_queries(tiny_dataset, count=8, seed=13))
        try:
            service.drain(tiny_dataset)
            service.merge()
            name = service.name
        finally:
            service.close()
        fleet = ParallelQueryService.open(storage_config, name, workers=2)
        try:
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(tiny_dataset, TINY_THRESHOLD, through=fleet.watermark)
                ),
                {"fleet": fleet.query},
                workload,
                context="open-mode fleet",
            )
        finally:
            fleet.close()
        with pytest.raises(StreamingError):
            fleet.query(workload[0])
        fleet.close()  # idempotent

    def test_sharded_attached_fleet(self, tmp_path, tiny_dataset, tiny_contact_config):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            shards=3,
            storage_config=storage_config,
        )
        workload = list(random_queries(tiny_dataset, count=8, seed=17))
        try:
            service.drain(tiny_dataset)
            service.merge()
            with ParallelQueryService.for_service(service, workers=2) as fleet:
                assert fleet.watermark == service.watermark
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(
                            tiny_dataset, TINY_THRESHOLD, through=fleet.watermark
                        )
                    ),
                    {"live": service.query, "fleet": fleet.query},
                    workload,
                    context="sharded attached fleet",
                )
        finally:
            service.close()
