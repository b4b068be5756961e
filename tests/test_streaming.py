"""Tests for the streaming ingestion subsystem.

The correctness bar (set by the issue that introduced the subsystem): after
draining a replayed dataset, the streaming service must answer every query
exactly like the batch ``reference`` evaluator over the same data — at every
merge threshold, and also for queries issued mid-stream, where the answer
must reflect the ingested prefix.
"""

from __future__ import annotations

import pytest

import repro
import repro.core
import repro.streaming
from equivalence import (
    EQUIVALENCE_BACKENDS,
    CallCounter,
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ConfigurationError,
    Point,
    ReachabilityQuery,
    ReachGraphConfig,
    StorageConfig,
    StreamingConfig,
    StreamingError,
    TimeInterval,
    WatermarkRegressionError,
)
from repro.core.engine import ReachabilityEngine
from repro.storage import StorageSystem
from repro.streaming import (
    ContactEvent,
    ContactSnapshotStore,
    DatasetReplaySource,
    DeltaSizePolicy,
    GeneratorReplaySource,
    MergeContext,
    SampleEvent,
    SnapshotQueryService,
    StreamBatch,
    StreamIngestor,
    StreamingReachabilityService,
    build_merge,
    make_policy,
    replay,
    stream_replay,
)
from repro.generators import RandomWaypointGenerator
from repro.workloads.queries import random_queries

# The contact threshold of the shared tiny_* fixtures (importing it from
# tests/conftest.py would collide with benchmarks/conftest.py when the whole
# repo is collected in one pytest run).
TINY_THRESHOLD = 30.0


def rebuild_per_merge_cost(monkeypatch, dataset):
    """Tally what rebuilding the snapshot at every merge would have written.

    Wraps ``adopt_merge``: after each adoption, adds the complete contact
    count of the prefix through the merge's bound (a from-scratch snapshot
    rewrites every one) and the live index's vertex count (a from-scratch
    ReachGraph writes every vertex).  Returns the running totals.
    """
    cost = {"contacts": 0, "vertices": 0}
    real_adopt = StreamingReachabilityService.adopt_merge

    def adopt_merge(service, build, inputs):
        real_adopt(service, build, inputs)
        prefix = prefix_network(dataset, TINY_THRESHOLD, through=inputs.bound)
        cost["contacts"] += len(prefix.contacts)
        processor = service.overlay.snapshot_processor
        if processor is not None:
            cost["vertices"] += processor.index.num_vertices

    monkeypatch.setattr(StreamingReachabilityService, "adopt_merge", adopt_merge)
    return cost


# ----------------------------------------------------------------------
# events and sources
# ----------------------------------------------------------------------
class TestEvents:
    def test_batch_rejects_samples_beyond_watermark(self):
        sample = SampleEvent(1, 10, Point(0.0, 0.0))
        with pytest.raises(StreamingError):
            StreamBatch((sample,), watermark=5)

    def test_batch_of_defaults_watermark_to_latest_sample(self):
        batch = StreamBatch.of(
            [SampleEvent(1, 3, Point(0, 0)), SampleEvent(2, 7, Point(1, 1))]
        )
        assert batch.watermark == 7
        assert batch.num_events == 2

    def test_empty_batch_needs_explicit_watermark(self):
        with pytest.raises(StreamingError):
            StreamBatch.of([])
        assert StreamBatch.of([], watermark=4).watermark == 4

    def test_contact_event_roundtrip(self, tiny_network):
        contact = tiny_network.contacts[0]
        event = ContactEvent.from_contact(contact)
        assert event.to_contact() == contact

    def test_contact_event_requires_ordered_pair(self):
        with pytest.raises(StreamingError):
            ContactEvent(5, 2, TimeInterval(0, 1))


class TestSources:
    def test_dataset_replay_covers_every_sample(self, tiny_dataset):
        source = DatasetReplaySource(tiny_dataset, batch_ticks=7)
        batches = list(source.batches())
        total = sum(batch.num_events for batch in batches)
        assert total == source.num_events
        assert total == tiny_dataset.num_objects * tiny_dataset.num_instants
        watermarks = [batch.watermark for batch in batches]
        assert watermarks == sorted(watermarks)
        assert watermarks[-1] == tiny_dataset.horizon.end

    def test_generator_replay_materializes_lazily(self):
        generator = RandomWaypointGenerator(
            num_objects=5, horizon=20, environment_size=(100.0, 100.0), seed=3
        )
        source = GeneratorReplaySource(generator, batch_ticks=6)
        batches = list(source.batches())
        assert sum(len(batch) for batch in batches) == 5 * 20

    def test_replay_helper_dispatches(self, tiny_dataset):
        assert isinstance(replay(tiny_dataset), DatasetReplaySource)
        assert isinstance(replay("rwp-tiny"), DatasetReplaySource)
        with pytest.raises(StreamingError):
            replay(42)


# ----------------------------------------------------------------------
# ingestor
# ----------------------------------------------------------------------
class TestStreamIngestor:
    @pytest.fixture()
    def drained(self, tiny_dataset, tiny_contact_config):
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, contact_config=tiny_contact_config
        )
        ingestor.ingest_all(DatasetReplaySource(tiny_dataset, batch_ticks=9).batches())
        return ingestor

    def test_contacts_match_batch_join_up_to_splitting(self, drained, tiny_network):
        # Sum of per-(pair) covered instants must match the batch network
        # exactly: splitting validity intervals never loses coverage.
        def coverage(contacts):
            per_pair = {}
            for contact in contacts:
                key = (contact.first, contact.second)
                per_pair[key] = per_pair.get(key, 0) + contact.validity.length
            return per_pair

        assert coverage(drained.contacts_through_watermark()) == coverage(
            tiny_network.contacts
        )

    def test_prefix_domain_roundtrips(self, drained, tiny_dataset):
        domain = drained.prefix_domain()
        assert domain.object_ids == tuple(tiny_dataset.object_ids)
        assert domain.horizon == tiny_dataset.horizon

    def test_device_holds_only_the_journal(self, drained):
        """No sample outlives its tick's join: the ingestor's device holds
        the WAL and nothing else, and a flush leaves no live block."""
        storage = drained.storage
        assert storage.blockfile_names() == [f"{drained.name}-journal"]
        assert drained.journal_blocks == storage.live_blocks > 0
        drained.flush()
        assert storage.live_blocks == 0

    def test_watermark_regression_rejected(self, tiny_dataset, tiny_contact_config):
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, contact_config=tiny_contact_config
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=5).batches())
        ingestor.ingest(batches[1])
        with pytest.raises(WatermarkRegressionError) as excinfo:
            ingestor.ingest(batches[0])
        assert excinfo.value.batch_watermark == batches[0].watermark
        assert excinfo.value.current_watermark == batches[1].watermark
        # ... which is still a StreamingError, so old handlers keep working.
        assert isinstance(excinfo.value, StreamingError)

    def test_rejected_batch_leaves_state_untouched(
        self, tiny_dataset, tiny_contact_config
    ):
        """Regression: a batch rejected mid-validation must not corrupt the
        ingestor (earlier samples of the bad batch used to stay buffered,
        poisoning interval flushing and the dense-horizon invariant)."""
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, contact_config=tiny_contact_config
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=5).batches())
        ingestor.ingest(batches[0])
        events = ingestor.num_events
        watermark = ingestor.watermark
        journal = ingestor.journal_blocks
        # A batch whose *last* sample is late: everything before it is valid.
        good = list(batches[1].samples)
        poisoned = StreamBatch.of(
            tuple(good) + (SampleEvent(good[0].object_id, 0, Point(0.0, 0.0)),),
            watermark=batches[1].watermark,
        )
        with pytest.raises(StreamingError):
            ingestor.ingest(poisoned)
        assert ingestor.num_events == events
        assert ingestor.watermark == watermark
        assert ingestor.journal_blocks == journal
        # The corrected batch is accepted afterwards as if nothing happened.
        ingestor.ingest(batches[1])
        assert ingestor.watermark == batches[1].watermark

    def test_late_sample_rejected(self, tiny_dataset, tiny_contact_config):
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, contact_config=tiny_contact_config
        )
        ingestor.ingest(StreamBatch.of([SampleEvent(1, 0, Point(0, 0))]))
        with pytest.raises(StreamingError):
            ingestor.ingest(StreamBatch.of([SampleEvent(2, 0, Point(1, 1))], watermark=1))

    def test_dense_horizon_break_rejected_atomically(
        self, tiny_dataset, tiny_contact_config
    ):
        ingestor = StreamIngestor(
            tiny_dataset.environment_size, contact_config=tiny_contact_config
        )
        ingestor.ingest(StreamBatch.of([SampleEvent(1, 0, Point(0, 0))]))
        # Object 1 skips t=1: rejected, and the valid sample for object 2
        # that preceded it in the batch must not have been buffered.
        with pytest.raises(StreamingError):
            ingestor.ingest(
                StreamBatch.of(
                    [SampleEvent(2, 1, Point(1, 1)), SampleEvent(1, 2, Point(0, 0))],
                    watermark=2,
                )
            )
        assert ingestor.num_events == 1
        assert ingestor.watermark == 0


# ----------------------------------------------------------------------
# the merge policy
# ----------------------------------------------------------------------
class TestMergePolicies:
    def _context(self, **overrides):
        base = dict(delta_contacts=10, watermark=50, snapshot_watermark=20)
        base.update(overrides)
        return MergeContext(**base)

    def test_delta_size_policy(self):
        policy = DeltaSizePolicy(16)
        assert not policy.should_merge(self._context(delta_contacts=15))
        assert policy.should_merge(self._context(delta_contacts=16))

    def test_make_policy_respects_config(self):
        policy = make_policy(StreamingConfig(max_delta_contacts=7))
        assert isinstance(policy, DeltaSizePolicy)
        assert policy.max_delta_contacts == 7

    def test_streaming_config_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(max_delta_contacts=0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(batch_ticks=0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(query_cache_size=-1)


# ----------------------------------------------------------------------
# service: equivalence with the batch reference evaluator
# ----------------------------------------------------------------------
#: Merges a drain of the tiny dataset yields, by ``max_delta_contacts``: the
#: thresholds span frequent, occasional and single merges, so the
#: equivalence claim is exercised across merge cadences.
THRESHOLD_MERGES = {16: 7, 48: 2, 96: 1}


class TestStreamingEquivalence:
    @pytest.mark.parametrize("max_delta_contacts", sorted(THRESHOLD_MERGES))
    def test_drained_stream_matches_reference(
        self, max_delta_contacts, tiny_dataset, tiny_network, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=max_delta_contacts),
        )
        service.drain(tiny_dataset)
        assert service.num_merges == THRESHOLD_MERGES[max_delta_contacts]
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"streaming": service.query},
            random_queries(tiny_dataset, count=50, seed=17),
            check_earliest=True,
            context=f"max_delta={max_delta_contacts}, drained",
        )

    @pytest.mark.parametrize("max_delta_contacts", sorted(THRESHOLD_MERGES))
    def test_mid_stream_queries_answer_over_prefix(
        self, max_delta_contacts, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=max_delta_contacts),
        )
        workload = random_queries(tiny_dataset, count=12, seed=5)
        source = DatasetReplaySource(tiny_dataset, batch_ticks=8)
        for position, batch in enumerate(source.batches()):
            service.ingest(batch)
            if position % 4 != 2:
                continue
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(
                        tiny_dataset, TINY_THRESHOLD, through=service.watermark
                    )
                ),
                {"streaming": service.query},
                workload,
                context=f"max_delta={max_delta_contacts}, watermark={service.watermark}",
            )

    @pytest.mark.parametrize("max_delta_contacts", sorted(THRESHOLD_MERGES))
    def test_caller_driven_merges_match_auto_merge(
        self, max_delta_contacts, tiny_dataset, tiny_contact_config
    ):
        """A caller that consults ``make_policy(config)`` on
        ``merge_context()`` after each batch and runs the three merge phases
        itself merges at exactly the watermarks ``auto_merge`` does, and
        answers identically after each batch."""
        config = StreamingConfig(max_delta_contacts=max_delta_contacts)
        auto = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config, streaming_config=config
        )
        driven = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config, streaming_config=config
        )
        driven.auto_merge = False
        policy = make_policy(config)
        workload = random_queries(tiny_dataset, count=12, seed=29)
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=8).batches():
            auto.ingest(batch)
            driven.ingest(batch)
            context = driven.merge_context()
            assert context.delta_contacts == driven.overlay.delta_size
            assert context.watermark == driven.watermark
            assert context.snapshot_watermark == driven.overlay.snapshot_watermark
            if context.watermark != context.snapshot_watermark and (
                policy.should_merge(context)
            ):
                inputs = driven.prepare_merge()
                driven.adopt_merge(build_merge(inputs), inputs)
            assert driven.num_merges == auto.num_merges
            assert (
                driven.overlay.snapshot_watermark == auto.overlay.snapshot_watermark
            )
            assert driven.overlay.delta_size == auto.overlay.delta_size
            assert_methods_agree(
                auto.query,
                {"caller-driven": driven.query},
                workload,
                check_earliest=True,
                context=f"max_delta={max_delta_contacts}, watermark={driven.watermark}",
            )
        assert driven.num_merges == THRESHOLD_MERGES[max_delta_contacts]

    def test_queries_before_any_ingest(self, tiny_dataset, tiny_contact_config):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config
        )
        query = ReachabilityQuery(0, 1, TimeInterval(0, 10))
        assert not service.query(query).reachable
        same = ReachabilityQuery(3, 3, TimeInterval(0, 10))
        result = service.query(same)
        assert result.reachable and result.earliest_time == 0


class TestStreamingService:
    def test_cache_hits_and_invalidation(self, tiny_dataset, tiny_contact_config):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        service.ingest(batches[0])
        query = ReachabilityQuery(0, 1, TimeInterval(0, 50))
        service.query(query)
        service.query(query)
        assert service.stats.cache_hits == 1
        # Watermark advancement invalidates the cache.
        service.ingest(batches[1])
        service.query(query)
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 2

    def test_cache_capacity_zero_disables_caching(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(query_cache_size=0),
        )
        query = ReachabilityQuery(0, 1, TimeInterval(0, 20))
        service.query(query)
        service.query(query)
        assert service.stats.cache_hits == 0

    def test_ingest_accepts_bare_event_iterables(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config
        )
        events = [
            SampleEvent.from_sample(trajectory.sample_at(0))
            for trajectory in tiny_dataset
        ]
        assert service.ingest(events) == tiny_dataset.num_objects
        assert service.watermark == 0

    def test_regressed_batch_is_rejected_and_the_service_keeps_answering(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=24),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        for batch in batches[:4]:
            service.ingest(batch)
        watermark, stats = service.watermark, service.stats
        with pytest.raises(WatermarkRegressionError):
            service.ingest(batches[1])
        assert service.watermark == watermark
        assert service.stats == stats
        workload = random_queries(tiny_dataset, count=10, seed=37)
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, TINY_THRESHOLD, through=watermark)
            ),
            {"after-rejection": service.query},
            workload,
            check_earliest=True,
        )
        for batch in batches[4:]:
            service.ingest(batch)
        assert_methods_agree(
            reference_evaluator(prefix_network(tiny_dataset, TINY_THRESHOLD)),
            {"drained": service.query},
            workload,
            check_earliest=True,
        )

    def test_merge_requires_data(self, tiny_dataset, tiny_contact_config):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config
        )
        with pytest.raises(StreamingError):
            service.merge()

    def test_forced_merge_clears_delta_and_enables_fast_path(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=10_000),
        )
        service.drain(tiny_dataset)
        assert service.num_merges == 0
        service.merge()
        assert service.overlay.delta_size == 0
        assert service.overlay.has_reachgraph
        assert service.stats.snapshot_watermark == tiny_dataset.horizon.end

    def test_engine_streaming_wiring(self, tiny_dataset, tiny_contact_config):
        engine = ReachabilityEngine(tiny_dataset, contact_config=tiny_contact_config)
        service = engine.streaming()
        assert isinstance(service, StreamingReachabilityService)
        assert service.contact_config is engine.contact_config
        stats = service.drain(engine.dataset)
        assert stats.events == tiny_dataset.num_objects * tiny_dataset.num_instants


    def test_removed_mode_knobs_are_rejected(self, tiny_dataset):
        """Merges have one shape: the knobs that chose a rebuild per merge
        (and the label-patch bound) are gone and fail loudly instead of
        being silently ignored."""
        engine = ReachabilityEngine(tiny_dataset)
        with pytest.raises(TypeError):
            engine.streaming(graph_mode="rebuild")
        with pytest.raises(TypeError):
            StreamingConfig(snapshot_mode="rebuild")
        with pytest.raises(TypeError):
            StreamingConfig(graph_mode="incremental")
        assert not hasattr(StreamingConfig(), "with_graph_mode")
        # Labels are recomputed in full, never patched: no patch bound.
        with pytest.raises(TypeError):
            StreamingConfig(label_dirty_ratio=0.5)
        with pytest.raises(TypeError):
            ReachGraphConfig(label_dirty_ratio=0.5)
        # One service shape with one merge path: no shards, routers, async
        # queues or merge executors to select.
        for knob in (
            "shards", "router", "async_queue_depth", "merge_executor", "merge_workers"
        ):
            with pytest.raises(TypeError):
                StreamingConfig(**{knob: 2})
            with pytest.raises(TypeError):
                engine.streaming(**{knob: 2})
        with pytest.raises(TypeError):
            engine.streaming(async_mode=True)
        with pytest.raises(TypeError):
            ReachabilityEngine.reopen_streaming("file", ".", sharded=True)
        assert not hasattr(StreamingConfig(), "with_shards")
        assert not hasattr(StreamingConfig(), "with_merge_executor")
        # One graph mode, one merge policy, one reader: every merge builds or
        # patches the ReachGraph, the delta-size threshold is the only
        # trigger, and there is no process read fleet.
        for knob, value in (
            ("merge_policy", "delta-size"),
            ("max_elapsed_intervals", 4),
            ("max_amplification", 0.5),
            ("build_reachgraph_on_merge", False),
        ):
            with pytest.raises(TypeError):
                StreamingConfig(**{knob: value})
        assert not hasattr(StreamingConfig(), "with_merge_policy")
        assert not hasattr(repro.streaming, "ParallelQueryService")
        assert "ParallelQueryService" not in repro.streaming.__all__
        assert not hasattr(repro, "MERGE_POLICIES")
        assert "MERGE_POLICIES" not in repro.__all__
        assert not hasattr(repro.core, "MERGE_POLICIES")

class TestMergeEdgeCases:
    """Edge cases of the snapshot/delta merge path (delta.py + policy.py)."""

    def _drained_service(self, dataset, contact_config, **overrides):
        service = StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=10_000, **overrides),
        )
        service.drain(dataset)
        return service

    def test_zero_delta_merge_is_sound(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        """Merging with an empty delta (back-to-back merges at the same
        watermark) must leave the snapshot identical, not corrupt it."""
        service = self._drained_service(tiny_dataset, tiny_contact_config)
        service.merge()
        size_after_first = service.overlay.snapshot_size
        assert service.overlay.delta_size == 0
        service.merge()  # zero-delta merge
        assert service.overlay.snapshot_size == size_after_first
        assert service.overlay.snapshot_watermark == tiny_dataset.horizon.end
        assert service.num_merges == 2
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"post-zero-delta-merge": service.query},
            random_queries(tiny_dataset, count=20, seed=23),
            check_earliest=True,
        )

    def test_no_automerge_exactly_at_watermark_boundary(
        self, tiny_dataset, tiny_contact_config
    ):
        """Once the snapshot watermark equals the stream watermark there is
        nothing to fold: the policy must not be consulted again until the
        watermark moves (an empty batch at the same watermark is a no-op)."""
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            # A hair trigger that would fire on every batch if consulted.
            streaming_config=StreamingConfig(max_delta_contacts=1),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        service.ingest(batches[0])
        merges = service.num_merges
        assert service.overlay.snapshot_watermark == service.watermark
        service.ingest(StreamBatch.of([], watermark=service.watermark))
        assert service.num_merges == merges, "boundary batch must not re-merge"

    def test_closed_contacts_since_across_a_merge(
        self, tiny_dataset, tiny_contact_config
    ):
        """The closed-contact log is append-only: a merge must not shift the
        positions ``closed_contacts_since`` readers rely on."""
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=10_000),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=12).batches())
        midpoint = len(batches) // 2
        for batch in batches[:midpoint]:
            service.ingest(batch)
        ingestor = service.ingestor
        seen = ingestor.num_closed_contacts
        head = ingestor.closed_contacts_since(0)
        service.merge()
        # Positions survive the merge: the log head is unchanged and the
        # tail picks up exactly where the pre-merge count left off.
        assert ingestor.closed_contacts_since(0)[:seen] == head
        for batch in batches[midpoint:]:
            service.ingest(batch)
        tail = ingestor.closed_contacts_since(seen)
        assert len(tail) == ingestor.num_closed_contacts - seen
        assert ingestor.closed_contacts_since(0) == head + tail
        # The delta only ever holds coverage past the snapshot watermark.
        snapshot_watermark = service.overlay.snapshot_watermark
        for _, _, _, end in service.overlay.delta_records:
            assert end > snapshot_watermark


    @pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
    def test_adopt_of_a_patch_that_does_not_fit_raises_and_changes_nothing(
        self, backend, tiny_dataset, tiny_contact_config
    ):
        """Every merge patches the graph, so a patch that does not fit the
        overlay is a programming error: the adoption raises before the store,
        the delta or the watermark moves, on the simulated device and on
        both persistent ones.  A patch from nothing on an overlay that holds
        an index is stale; a patch of a live index on an overlay without one
        is refused too."""
        from repro.core import IndexConstructionError
        from repro.reachgraph import GraphFrontier, compute_graph_patch
        from repro.streaming import ReachGraphDeltaOverlay

        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=10_000),
            storage_config=backend_storage_config(backend),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=12).batches())
        midpoint = len(batches) // 2
        for batch in batches[:midpoint]:
            service.ingest(batch)
        service.merge()
        for batch in batches[midpoint:]:
            service.ingest(batch)
        overlay = service.overlay
        store = overlay.snapshot_store
        before = (
            store.num_runs,
            store.records_written,
            overlay.snapshot_watermark,
            list(overlay.delta_records),
        )
        assert before[3], "the delta must hold contacts the adoption could drop"
        inputs = service.prepare_merge()
        adopt = dict(
            origin=inputs.origin,
            temporal_resolution=inputs.temporal_resolution,
            graph_config=inputs.graph_config,
        )
        from_nothing = compute_graph_patch(
            GraphFrontier.empty(
                service.ingestor.prefix_domain().object_ids,
                inputs.origin,
                inputs.graph_config.sorted_resolutions,
            ),
            tuple(service.ingestor.contacts_through_watermark()),
            inputs.bound,
        )
        with pytest.raises(IndexConstructionError, match="stale patch"):
            overlay.adopt_increment(
                from_nothing, inputs.new_contacts, inputs.bound, **adopt
            )
        assert (
            store.num_runs,
            store.records_written,
            overlay.snapshot_watermark,
            list(overlay.delta_records),
        ) == before
        assert overlay.snapshot_store is store
        assert service.num_merges == 1

        bare = ReachGraphDeltaOverlay(StorageSystem())
        with pytest.raises(StreamingError, match="none exists"):
            bare.adopt_increment(
                build_merge(inputs), inputs.new_contacts, inputs.bound, **adopt
            )
        assert not bare.has_reachgraph
        assert bare.snapshot_store is None and bare.snapshot_watermark is None
        assert bare.storage.blockfile_names() == []
        service.close()


# ----------------------------------------------------------------------
# a device flushed without a graph still opens
# ----------------------------------------------------------------------
def flush_graphless_device(dataset, contact_config, storage_config, batches):
    """Leave on disk the state of a service whose merges built no graph.

    Older builds could merge without a ReachGraph: each merge appended one
    snapshot run and restaged the unfrozen contacts, and the flushed overlay
    manifest carried ``"graph": None``.  Two such merges are replayed here
    through the store and overlay restore hooks, then the service is closed.
    Returns the service name and the flushed watermark.
    """
    service = StreamingReachabilityService.for_dataset(
        dataset, contact_config=contact_config, storage_config=storage_config
    )
    service.auto_merge = False
    overlay, ingestor = service.overlay, service.ingestor
    store = None
    half = len(batches) // 2
    for chunk in (batches[: half // 2], batches[half // 2 : half]):
        for batch in chunk:
            service.ingest(batch)
        bound = service.watermark
        frozen = ingestor.contacts_through_watermark(after=overlay.snapshot_watermark)
        if store is None:
            store = ContactSnapshotStore(
                overlay.storage,
                origin=ingestor.origin,
                temporal_resolution=service.grid_config.temporal_resolution,
                name="snapshot-contacts-v1",
            )
        store.append_run(frozen)
        overlay.attach_snapshot_store(store, bound)
        overlay.restore_delta(())
        for contact in ingestor.closed_contacts:
            if contact.validity.end > bound:
                overlay.add_contact(contact)
    # One batch past the last merge, so the manifest carries a delta too.
    service.ingest(batches[half])
    watermark = service.watermark
    service.close()
    return service.name, watermark


class TestGraphlessDevice:
    """A device whose overlay manifest names no graph — written by an older
    build whose merges could skip the ReachGraph — keeps working: it reopens
    read-only through the union path, and a resumed service's first merge
    builds the graph over the whole prefix's domain and contacts."""

    @staticmethod
    def _flushed(backend, tmp_path, tiny_dataset, tiny_contact_config):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        name, watermark = flush_graphless_device(
            tiny_dataset, tiny_contact_config, storage_config, batches
        )
        return storage_config, batches, name, watermark

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_reopens_read_only_through_the_union_path(
        self, monkeypatch, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config, _, name, watermark = self._flushed(
            backend, tmp_path, tiny_dataset, tiny_contact_config
        )
        overlay_device = StorageSystem(storage_config, name=f"{name}-overlay")
        manifest = overlay_device.get_metadata("overlay-manifest")
        overlay_device.release()
        assert manifest["graph"] is None
        assert len(manifest["store"]["runs"]) == 2

        counter = CallCounter(monkeypatch, (ContactSnapshotStore, "read_overlapping"))
        reopened = SnapshotQueryService.open(storage_config, name)
        try:
            assert reopened.watermark == watermark
            assert not reopened.overlay.has_reachgraph
            assert reopened.overlay.snapshot_runs == 2
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(tiny_dataset, TINY_THRESHOLD, through=watermark)
                ),
                {"reopened": reopened.query},
                random_queries(tiny_dataset, count=20, seed=91),
                check_earliest=True,
                require_earliest=True,
                context=f"graph-less device, backend={backend}",
            )
        finally:
            reopened.close()
        assert counter.calls["ContactSnapshotStore.read_overlapping"] > 0

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_resumes_and_first_merge_builds_from_the_prefix(
        self, monkeypatch, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config, batches, name, watermark = self._flushed(
            backend, tmp_path, tiny_dataset, tiny_contact_config
        )
        counter = CallCounter(monkeypatch, (StreamIngestor, "prefix_domain"))
        resumed = StreamingReachabilityService.open(
            storage_config, name, streaming_config=StreamingConfig(max_delta_contacts=24)
        )
        try:
            assert resumed.watermark == watermark
            assert not resumed.overlay.has_reachgraph
            assert resumed.overlay.snapshot_runs == 2
            workload = random_queries(tiny_dataset, count=10, seed=93)
            resume_at = next(
                position
                for position, batch in enumerate(batches)
                if batch.watermark == watermark
            )
            for batch in batches[resume_at + 1 :]:
                resumed.ingest(batch)
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(
                            tiny_dataset, TINY_THRESHOLD, through=resumed.watermark
                        )
                    ),
                    {"resumed": resumed.query},
                    workload,
                    check_earliest=True,
                    context=f"backend={backend}, watermark={resumed.watermark}",
                )
            assert resumed.watermark == tiny_dataset.horizon.end
            assert resumed.num_merges > 1
            # The first merge captured the prefix's object ids once, for the
            # empty frontier it patched; every later one patched its result.
            assert counter.calls["StreamIngestor.prefix_domain"] == 1
            assert resumed.overlay.has_reachgraph
            index = resumed.overlay.snapshot_processor.index
            assert index.num_increments == resumed.num_merges - 1
        finally:
            resumed.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_flushes_before_the_first_merge_release_nothing(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """The first merge's patch replays every contact from the origin,
        so while the overlay has no graph a flush releases no closed contact
        — even though the snapshot store already holds some of them."""
        storage_config, batches, name, watermark = self._flushed(
            backend, tmp_path, tiny_dataset, tiny_contact_config
        )
        resumed = StreamingReachabilityService.open(
            storage_config, name, auto_merge=False
        )
        try:
            resume_at = next(
                position
                for position, batch in enumerate(batches)
                if batch.watermark == watermark
            )
            for batch in batches[resume_at + 1 : resume_at + 3]:
                resumed.ingest(batch)
                resumed.flush()
            assert resumed.ingestor.closed_floor == 0
            resumed.merge()
            assert resumed.overlay.has_reachgraph
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(tiny_dataset, TINY_THRESHOLD, through=resumed.watermark)
                ),
                {"resumed": resumed.query},
                random_queries(tiny_dataset, count=15, seed=95),
                check_earliest=True,
                context=f"backend={backend}, first merge after flushes",
            )
        finally:
            resumed.close()

# ----------------------------------------------------------------------
# storage-backend axis: file/mmap answers ≡ sim answers ≡ reference
# ----------------------------------------------------------------------
class TestStorageBackendEquivalence:
    """The acceptance contract of the pluggable-backend issue: a file- or
    mmap-backed service answers bit-identically to the simulated backend at
    every watermark, including after a close/reopen of the backing files."""

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_equivalence_at_every_watermark(
        self, backend, tiny_dataset, tiny_contact_config
    ):
        config = StreamingConfig(max_delta_contacts=48)
        simulated = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config, streaming_config=config
        )
        disk_backed = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=config,
            storage_config=backend_storage_config(backend),
        )
        workload = random_queries(tiny_dataset, count=10, seed=13)
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=12).batches():
            simulated.ingest(batch)
            disk_backed.ingest(batch)
            for query in workload:
                expected = simulated.query(query)
                actual = disk_backed.query(query)
                assert (actual.reachable, actual.earliest_time) == (
                    expected.reachable,
                    expected.earliest_time,
                ), (
                    f"backend={backend}, watermark={disk_backed.watermark}: "
                    f"{query} diverged from the simulated backend"
                )
        assert disk_backed.num_merges > 0, "merges must hit the real device"

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_close_reopen_answers_match_at_final_watermark(
        self, backend, tmp_path, tiny_dataset, tiny_network, tiny_contact_config
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=48),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.watermark == tiny_dataset.horizon.end
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {f"reopened-{backend}": reopened.query},
            random_queries(tiny_dataset, count=25, seed=19),
            check_earliest=True,
            require_earliest=True,
            context=f"backend={backend}, reopened",
        )
        reopened.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_close_reopen_mid_stream_answers_over_prefix(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=10_000),
            storage_config=storage_config,
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
        service.merge()  # part of the prefix frozen on the device...
        for batch in batches[len(batches) // 2 : len(batches) // 2 + 2]:
            service.ingest(batch)  # ...and a live delta tail on top
        watermark = service.watermark
        assert service.overlay.delta_size > 0 or service.ingestor.open_contacts()
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.watermark == watermark
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, TINY_THRESHOLD, through=watermark)
            ),
            {f"reopened-{backend}": reopened.query},
            random_queries(tiny_dataset, count=15, seed=31),
            check_earliest=True,
            require_earliest=True,
            context=f"backend={backend}, reopened mid-stream at {watermark}",
        )
        reopened.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_recreating_a_service_over_a_used_dir_starts_fresh(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Regression: a second service pointed at a directory a previous run
        wrote to must start from empty devices, not crash re-registering the
        previous run's cataloged block files."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=20).batches())
        first = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            storage_config=storage_config,
        )
        first.ingest(batches[0])
        first.merge()
        first.close()

        second = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            storage_config=storage_config,
        )
        assert second.watermark is None, "the rerun must not inherit old state"
        second.ingest(batches[0])
        second.merge()
        assert second.overlay.snapshot_size == first.overlay.snapshot_size
        second.close()

    def test_engine_rejects_storage_dir_on_sim_backend(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Regression: silently ignoring storage_dir on the in-memory backend
        would drop the persistence the caller asked for."""
        engine = ReachabilityEngine(tiny_dataset, contact_config=tiny_contact_config)
        with pytest.raises(ConfigurationError):
            engine.streaming(storage_dir=str(tmp_path))
        service = engine.streaming(
            storage_backend="file", storage_dir=str(tmp_path)
        )
        assert service.overlay.storage.config.backend == "file"
        service.close()

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_merges_keep_one_overlay_device(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Every merge appends to the overlay the service opened: no merge
        swaps the overlay or opens a second device, so no superseded file
        handle or backing file outlives a merge."""
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=48),
            storage_config=backend_storage_config(backend, storage_dir=str(tmp_path)),
        )
        overlay = service.overlay
        device = overlay.storage.disk
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=12).batches():
            service.ingest(batch)
            assert service.overlay is overlay, "a merge swapped the overlay"
            assert overlay.storage.disk is device, "a merge opened a second device"
        assert service.num_merges > 1
        assert overlay.has_reachgraph
        assert not device.closed
        # Only the grid device and the one overlay device live in the directory.
        overlay_files = [p for p in tmp_path.iterdir() if "overlay" in p.name]
        live = overlay.storage.path
        assert overlay_files and live is not None
        assert all(str(p).startswith(live) for p in overlay_files), overlay_files
        service.close()
        assert device.closed

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_open_with_wrong_name_neither_creates_files_nor_leaks(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Regression: a reopen probe with a bad name/dir is a read operation;
        it must not scatter fresh empty device files into the directory."""
        storage_config = backend_storage_config(backend, storage_dir=str(tmp_path))
        with pytest.raises(StreamingError):
            SnapshotQueryService.open(storage_config, name="no-such-service")
        assert list(tmp_path.iterdir()) == []

    def test_read_only_open_needs_a_persistent_directory(self, tmp_path):
        """A read-only open reads flushed files: the in-memory backend and a
        persistent backend without a directory have none to read."""
        with pytest.raises(StreamingError):
            SnapshotQueryService.open(
                StorageConfig(backend="sim", storage_dir=None), name="stream"
            )
        with pytest.raises(StreamingError):
            SnapshotQueryService.open(StorageConfig(backend="file"), name="stream")

    def test_closed_service_rejects_use(self, tiny_dataset, tiny_contact_config):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset, contact_config=tiny_contact_config
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=30).batches())
        service.ingest(batches[0])
        query = ReachabilityQuery(0, 1, TimeInterval(0, 20))
        service.query(query)  # populate the cache
        service.close()
        with pytest.raises(StreamingError):
            service.query(query)  # even the previously cached answer
        with pytest.raises(StreamingError):
            service.ingest(batches[1])
        with pytest.raises(StreamingError):
            service.merge()
        service.close()  # still idempotent

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_no_files_leak_outside_storage_dir(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_dir = tmp_path / "contained"
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            storage_config=backend_storage_config(backend, storage_dir=str(storage_dir)),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=20).batches())
        service.ingest(batches[0])
        service.merge()
        service.close()
        assert storage_dir.exists() and any(storage_dir.iterdir())
        stray = [p for p in tmp_path.iterdir() if p != storage_dir]
        assert stray == [], f"files escaped the storage dir: {stray}"


# ----------------------------------------------------------------------
# LSM snapshot compaction (the merge write path)
# ----------------------------------------------------------------------
class TestSnapshotCompaction:
    def _service(self, dataset, contact_config, **overrides):
        return StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=contact_config,
            streaming_config=StreamingConfig(**overrides),
        )

    def test_zero_delta_merge_is_a_store_noop(self, tiny_dataset, tiny_contact_config):
        service = self._service(
            tiny_dataset, tiny_contact_config, max_delta_contacts=10_000
        )
        service.drain(tiny_dataset)
        service.merge()
        store = service.overlay.snapshot_store
        written = store.records_written
        runs = store.num_runs
        blocks = store.num_blocks
        service.merge()  # zero-delta: nothing new to freeze
        assert store.records_written == written, "zero-delta merge wrote records"
        assert store.num_runs == runs
        assert store.num_blocks == blocks
        assert service.num_merges == 2

    def test_compaction_triggers_and_bounds_run_count(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        service = self._service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=16,
            compaction_max_runs=2,
        )
        service.drain(tiny_dataset)
        stats = service.stats
        assert stats.merges > 3, "workload must force several merges"
        assert stats.compactions >= 1, "run count should have crossed the bound"
        store = service.overlay.snapshot_store
        # The leveled invariant: no level holds more runs than the fanout, so
        # the total run count is bounded by fanout x occupied levels instead
        # of growing with the merge count.
        per_level = store.runs_per_level
        assert all(count <= 2 for count in per_level.values()), per_level
        assert stats.snapshot_runs <= 2 * len(per_level)
        assert store.superseded_blocks > 0
        # Folding runs must not change what the snapshot answers.
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"post-compaction": service.query},
            random_queries(tiny_dataset, count=25, seed=41),
            check_earliest=True,
        )

    def test_compaction_preserves_contact_views_across_merge(
        self, tiny_dataset, tiny_contact_config
    ):
        """``contacts_through_watermark`` coverage and the
        ``closed_contacts_since`` positions must be invariant under merges
        *and* compactions."""

        def coverage(contacts):
            per_pair = {}
            for contact in contacts:
                key = (contact.first, contact.second)
                per_pair[key] = per_pair.get(key, 0) + contact.validity.length
            return per_pair

        service = self._service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=16,
            compaction_max_runs=2,
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        midpoint = len(batches) // 2
        for batch in batches[:midpoint]:
            service.ingest(batch)
        ingestor = service.ingestor
        watermark = service.watermark

        def through_midpoint():
            clipped = (
                contact.clipped(ingestor.origin, watermark)
                for contact in ingestor.contacts_through_watermark()
            )
            return coverage(contact for contact in clipped if contact is not None)

        before = through_midpoint()
        seen = ingestor.num_closed_contacts
        head = ingestor.closed_contacts_since(0)
        service.merge()
        assert through_midpoint() == before
        assert ingestor.closed_contacts_since(0)[:seen] == head
        for batch in batches[midpoint:]:
            service.ingest(batch)
        # The second half must have folded runs at least once; the ingestor's
        # append-only views survive both the merges and the compactions.
        assert service.num_compactions >= 1, "workload must trigger a compaction"
        assert ingestor.closed_contacts_since(0)[:seen] == head
        final = service.watermark
        assert through_midpoint() == before
        assert coverage(ingestor.contacts_through_watermark()) == coverage(
            prefix_network(tiny_dataset, TINY_THRESHOLD, through=final).contacts
        )

    def test_lsm_write_amplification_below_rebuild_cost(
        self, monkeypatch, tiny_dataset, tiny_contact_config
    ):
        """The point of the LSM path: on a multi-merge workload it must write
        strictly fewer snapshot records than rewriting the whole prefix at
        every merge would."""
        cost = rebuild_per_merge_cost(monkeypatch, tiny_dataset)
        service = self._service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=16,
        )
        service.drain(tiny_dataset)
        assert service.num_merges > 3
        assert service.snapshot_records_written < cost["contacts"], cost


# ----------------------------------------------------------------------
# incremental ReachGraph maintenance vs a batch build
# ----------------------------------------------------------------------
class TestIncrementalGraphMaintenance:
    """Patching the reduced DAG at every merge must be invisible.

    The patched index must answer like the batch reference at every
    watermark and equal, structurally, an index the test builds from
    scratch; its write ledger must stay below what a rebuild per merge
    would pay.
    """

    @staticmethod
    def _service(dataset, contact_config, **overrides):
        overrides.setdefault("max_delta_contacts", 48)
        return StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=contact_config,
            streaming_config=StreamingConfig(**overrides),
        )

    def test_equivalence_at_every_watermark(
        self, graph_labels, tiny_dataset, tiny_contact_config
    ):
        service = self._service(
            tiny_dataset, tiny_contact_config, graph_labels=graph_labels
        )
        workload = random_queries(tiny_dataset, count=12, seed=23)
        for position, batch in enumerate(
            DatasetReplaySource(tiny_dataset, batch_ticks=8).batches()
        ):
            service.ingest(batch)
            if position % 3 != 1:
                continue
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(
                        tiny_dataset, TINY_THRESHOLD, through=service.watermark
                    )
                ),
                {"patched-graph": service.query},
                workload,
                context=f"graph_labels={graph_labels}, watermark={service.watermark}",
            )
        assert service.num_merges > 1, "the workload must exercise several merges"
        index = service.overlay.snapshot_processor.index
        assert index.num_increments == service.num_merges - 1
        assert (index.labels is not None) == graph_labels

    def test_incremental_patches_one_live_index(
        self, tiny_dataset, tiny_contact_config
    ):
        """Merges keep ONE index object and patch it in place."""
        service = self._service(tiny_dataset, tiny_contact_config)
        processors = set()
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=8).batches():
            service.ingest(batch)
            processor = service.overlay.snapshot_processor
            if processor is not None:
                processors.add(id(processor))
        assert service.num_merges > 1
        assert len(processors) == 1, "merges must not swap the processor"
        index = service.overlay.snapshot_processor.index
        assert index.num_increments == service.num_merges - 1
        assert index.dag.horizon.end == service.overlay.snapshot_watermark

    def test_incremental_index_equals_batch_rebuild(
        self, tiny_dataset, tiny_contact_config
    ):
        """After the merges, the patched index must be structurally identical
        to one built from scratch over the same prefix: same vertices (ids,
        intervals, members), same DN_1 edges, same long-edge layers, same
        assignment histories — partition placement is the only thing allowed
        to differ."""
        from repro.reachgraph import ReachGraphIndex

        service = self._service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()  # freeze the tail so the graph covers everything
        patched = service.overlay.snapshot_processor.index
        final = service.overlay.snapshot_watermark
        prefix = tiny_dataset.restricted(final - tiny_dataset.horizon.start + 1)
        rebuilt = ReachGraphIndex(
            prefix,
            contact_config=None,
            contact_network=prefix_network(prefix, TINY_THRESHOLD, through=final),
        ).build()
        assert patched.num_increments > 0, "the index must have been patched"
        assert patched.dag.num_nodes == rebuilt.dag.num_nodes
        for mine, theirs in zip(patched.dag.nodes, rebuilt.dag.nodes):
            assert mine.node_id == theirs.node_id
            assert mine.interval == theirs.interval
            assert mine.members == theirs.members
        assert patched.dag.forward == rebuilt.dag.forward
        assert patched.dag.backward == rebuilt.dag.backward
        assert patched.hypergraph.resolutions == rebuilt.hypergraph.resolutions
        for resolution in patched.hypergraph.resolutions:
            assert (
                patched.hypergraph.layer(resolution).forward
                == rebuilt.hypergraph.layer(resolution).forward
            ), f"long-edge layer {resolution} diverged"
        for object_id in tiny_dataset.object_ids:
            assert patched.find_vertex_id(
                object_id, patched.dag.horizon.end
            ) == rebuilt.find_vertex_id(object_id, rebuilt.dag.horizon.end)

    def test_graph_ledger_below_rebuild_cost(
        self, monkeypatch, tiny_dataset, tiny_network, tiny_contact_config
    ):
        cost = rebuild_per_merge_cost(monkeypatch, tiny_dataset)
        service = self._service(
            tiny_dataset, tiny_contact_config, max_delta_contacts=16
        )
        service.drain(tiny_dataset)
        assert service.num_merges > 3
        assert service.graph_records_written < cost["vertices"], cost
        assert service.snapshot_records_written < cost["contacts"], cost
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"patched-graph": service.query},
            random_queries(tiny_dataset, count=20, seed=29),
            check_earliest=True,
        )

    def test_forced_merge_at_same_bound_applies_empty_patch(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        service = self._service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        index = service.overlay.snapshot_processor.index
        vertices_before = index.num_vertices
        written_before = service.graph_records_written
        service.merge()  # zero new ticks
        assert index.num_vertices == vertices_before
        assert service.graph_records_written == written_before
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"post-noop-merge": service.query},
            random_queries(tiny_dataset, count=10, seed=31),
            check_earliest=True,
        )

    def test_stale_patch_is_rejected_without_side_effects(
        self, tiny_dataset, tiny_contact_config
    ):
        """A patch captured against an older frontier must be refused by
        adoption *before* any overlay state mutates: snapshot store, delta,
        watermark, and index are exactly as they were."""
        from repro.core import IndexConstructionError
        from repro.streaming.service import build_merge

        service = self._service(tiny_dataset, tiny_contact_config)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=8).batches())
        for batch in batches[:6]:
            service.ingest(batch)
        service.merge()
        # Capture a merge against the current frontier...
        for batch in batches[6:9]:
            service.ingest(batch)
        stale_inputs = service.prepare_merge()
        stale_build = build_merge(stale_inputs)
        # ...then advance the live index past it with a real merge.
        service.merge()
        overlay = service.overlay
        vertices = overlay.snapshot_processor.index.num_vertices
        snapshot_size = overlay.snapshot_size
        delta_size = overlay.delta_size
        watermark = overlay.snapshot_watermark
        with pytest.raises(IndexConstructionError):
            service.adopt_merge(stale_build, stale_inputs)
        assert overlay.snapshot_processor.index.num_vertices == vertices
        assert overlay.snapshot_size == snapshot_size
        assert overlay.delta_size == delta_size
        assert overlay.snapshot_watermark == watermark

    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    def test_close_reopen_answers_match(
        self, backend, graph_labels, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """The graph fast path is persisted with the overlay: closing and
        reopening a service whose graph was patched at every merge must
        answer identically, with or without its interval labels."""
        storage_config = backend_storage_config(backend, str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=48, graph_labels=graph_labels
            ),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        assert service.num_merges > 0
        final = service.watermark
        workload = random_queries(tiny_dataset, count=15, seed=37)
        live = {query: service.query(query).reachable for query in workload}
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        assert reopened.watermark == final
        assert reopened.overlay.has_reachgraph
        restored = reopened.overlay.snapshot_processor.index
        assert (restored.labels is not None) == graph_labels
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, TINY_THRESHOLD, through=final)
            ),
            {"reopened": reopened.query},
            workload,
            check_earliest=True,
            require_earliest=True,
            context=f"reopened, backend={backend}, graph_labels={graph_labels}",
        )
        for query in workload:
            assert bool(reopened.query(query).reachable) == bool(live[query])
        reopened.close()


class TestStreamExperiment:
    def test_stream_replay_driver_rows(self):
        result = stream_replay(
            dataset_names=("rwp-tiny",), num_queries=4, batch_ticks=16
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["events"] == 8000
        assert row["ingest_events_per_sec"] > 0
        assert row["premerge_matches"] == "4/4"
        assert row["postmerge_matches"] == "4/4"


class TestMergeRestageRegression:
    """Regression for the quadratic ``_finish_adopt`` restage.

    After a merge adopts, the rebuilt delta must contain only the closed
    contacts *past* the new snapshot watermark, each exactly once.  The old
    implementation restaged the ingestor's full closed-contact history on
    every merge — quadratic work that also re-added contacts the snapshot had
    already frozen, double-covering their validity ticks."""

    def test_no_duplicate_coverage_after_repeated_merges(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=16),
        )
        service.drain(tiny_dataset)
        assert service.stats.merges > 3, "workload must force several merges"
        horizon = tiny_dataset.horizon
        interval = TimeInterval(horizon.start, horizon.end)
        covered = set()
        overlay = service.overlay
        records = overlay.delta_records + overlay.snapshot_store.read_overlapping(interval)
        for first, second, start, end in records:
            pair = (first, second)
            for tick in range(start, end + 1):
                assert (pair, tick) not in covered, (
                    f"contact {pair} double-covered at tick {tick}: the merge "
                    f"restaged a contact the snapshot already holds"
                )
                covered.add((pair, tick))

    def test_delta_holds_only_contacts_past_the_snapshot_watermark(
        self, tiny_dataset, tiny_contact_config
    ):
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=16),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=10).batches())
        for batch in batches:
            service.ingest(batch)
            frozen = service.overlay.snapshot_watermark
            if frozen is None:
                continue
            # Every delta record starts past the watermark — what lets the
            # overlay route an interval ending by it without a delta scan.
            for record in service.overlay.delta_records:
                assert record[2] > frozen, (
                    f"delta holds {record} starting at or before the "
                    f"snapshot watermark {frozen}"
                )


# ----------------------------------------------------------------------
# a merge captures the increment, not the prefix (ISSUE 24)
# ----------------------------------------------------------------------
def whole_prefix_slice(ingestor, snapshot_watermark):
    """The frozen slice computed the whole-prefix way: every contact held
    through the watermark, clipped past the snapshot watermark.  (The
    contacts an ingestor has released all end by a committed snapshot's
    watermark, so they would clip away.)"""
    contacts = ingestor.contacts_through_watermark()
    if snapshot_watermark is None:
        return tuple(contacts)
    return tuple(
        clipped
        for clipped in (
            contact.clipped(snapshot_watermark + 1, contact.validity.end)
            for contact in contacts
        )
        if clipped is not None
    )


@pytest.fixture()
def checked_merges(monkeypatch):
    """Hold every merge made while the fixture is live to the whole-prefix slice.

    ``prepare_merge`` must capture it, and the same contacts in the same
    order must then reach ``compute_graph_patch`` and
    ``ContactSnapshotStore.append_run``.  Adoptions follow
    preparations in order, so two queues pair them up.  Returns the list of
    ``MergeInputs`` checked.
    """
    import collections

    import repro.reachgraph
    from repro.streaming.delta import ContactSnapshotStore

    checked = []
    awaiting_patch = collections.deque()
    awaiting_append = collections.deque()
    real_prepare = StreamingReachabilityService.prepare_merge
    real_patch = repro.reachgraph.compute_graph_patch
    real_append = ContactSnapshotStore.append_run

    def prepare_merge(service):
        service._sync_delta()
        expected = whole_prefix_slice(
            service.ingestor, service.overlay.snapshot_watermark
        )
        inputs = real_prepare(service)
        assert inputs.new_contacts == expected
        assert inputs.origin == service.ingestor.origin
        awaiting_patch.append(expected)
        awaiting_append.append(expected)
        checked.append(inputs)
        return inputs

    def compute_graph_patch(frontier, contacts, through):
        assert tuple(contacts) == awaiting_patch.popleft()
        return real_patch(frontier, contacts, through)

    def append_run(store, contacts):
        contacts = list(contacts)
        assert tuple(contacts) == awaiting_append.popleft()
        return real_append(store, contacts)

    monkeypatch.setattr(StreamingReachabilityService, "prepare_merge", prepare_merge)
    monkeypatch.setattr(repro.reachgraph, "compute_graph_patch", compute_graph_patch)
    monkeypatch.setattr(ContactSnapshotStore, "append_run", append_run)
    yield checked
    assert not awaiting_patch and not awaiting_append, "a prepared merge never adopted"


class TestMergeCapturesTheIncrement:
    def _service(self, dataset, contact_config, storage_config=None, **overrides):
        return StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=24, **overrides),
            storage_config=storage_config,
        )

    @pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
    def test_slice_equals_the_whole_prefix_slice_at_every_merge(
        self, backend, tmp_path, checked_merges, tiny_dataset, tiny_network,
        tiny_contact_config,
    ):
        service = self._service(
            tiny_dataset,
            tiny_contact_config,
            backend_storage_config(backend, storage_dir=str(tmp_path)),
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=6).batches())
        for position, batch in enumerate(batches):
            service.ingest(batch)
            if position == len(batches) // 2:
                service.merge()  # forced, between two policy merges
        service.merge()
        assert len(checked_merges) >= 6
        # Only the first merge patches the empty frontier.
        frontiers = [inputs.graph_frontier.reduction for inputs in checked_merges]
        assert [frontier.num_nodes == 0 for frontier in frontiers] == [True] + [
            False
        ] * (len(frontiers) - 1)
        assert frontiers[0].end == service.ingestor.origin - 1
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"service": service.query},
            random_queries(tiny_dataset, count=15, seed=3),
        )
        service.close()

    def test_first_merge_after_open(
        self, tmp_path, checked_merges, tiny_dataset, tiny_network, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = self._service(tiny_dataset, tiny_contact_config, storage_config)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=6).batches())
        half = len(batches) // 2
        for batch in batches[:half]:
            service.ingest(batch)
        assert service.overlay.delta_size > 0, "the close must leave an unfrozen tail"
        service.close()
        before = len(checked_merges)

        resumed = StreamingReachabilityService.open(
            storage_config,
            name=service.name,
            streaming_config=StreamingConfig(max_delta_contacts=24),
        )
        resumed.merge()
        first = checked_merges[before]
        assert first.graph_frontier.reduction.num_nodes > 0 and first.new_contacts
        for batch in batches[half:]:
            resumed.ingest(batch)
        resumed.merge()
        assert_methods_agree(
            reference_evaluator(tiny_network),
            {"resumed": resumed.query},
            random_queries(tiny_dataset, count=15, seed=5),
        )
        resumed.close()

    def test_patch_merge_touches_the_tail_not_the_prefix(
        self, monkeypatch, tiny_dataset, tiny_contact_config
    ):
        """Counts, not clocks: with a frontier to patch, ``prepare_merge``
        clips the contacts closed since the last merge plus the open runs —
        however long the prefix — and materialises no prefix domain; no
        merge, the first included, builds a contact network."""
        from repro.contacts.network import Contact, ContactNetwork
        from repro.streaming import build_merge

        service = self._service(tiny_dataset, tiny_contact_config)
        service.auto_merge = False
        counter = CallCounter(
            monkeypatch,
            (Contact, "clipped"),
            (ContactNetwork, "__init__"),
            (StreamIngestor, "prefix_domain"),
        )
        calls = counter.calls

        ingestor = service.ingestor
        frozen_before = 0
        merges = 0
        for position, batch in enumerate(
            DatasetReplaySource(tiny_dataset, batch_ticks=6).batches()
        ):
            service.ingest(batch)
            if position % 4 != 3:
                continue
            first = service.overlay.snapshot_watermark is None
            tail = ingestor.num_closed_contacts - service._restage_cursor
            budget = tail + len(ingestor.open_contacts())
            counter.reset()
            inputs = service.prepare_merge()
            build = build_merge(inputs)
            assert calls["ContactNetwork.__init__"] == 0
            if first:
                assert calls["StreamIngestor.prefix_domain"] == 1
            else:
                assert calls["Contact.clipped"] <= budget
                assert calls["StreamIngestor.prefix_domain"] == 0
                assert service._restage_cursor >= frozen_before
            frozen_before = service._restage_cursor
            service.adopt_merge(build, inputs)
            merges += 1
        assert merges >= 4
        # The budget is the increment's: a fraction of the closed history.
        assert service._restage_cursor > 0
        assert budget < ingestor.num_closed_contacts / 2
