"""Tests for the query fast path: interval labels, zone maps, partition cache.

Three pruning layers ride in front of the exact evaluators, and each is
one-sided — a positive pruning verdict must be *provably* exact, a negative
one falls through to the traversal that was always correct:

* :class:`~repro.reachgraph.ReachLabelIndex` — GRAIL-style interval labels
  over the reduced DAG, recomputed by every merge that adds a vertex;
* per-run zone maps on the LSM snapshot store (min/max contact time plus an
  object-id Bloom filter), skipping provably disjoint runs without IO;
* the cross-query :class:`~repro.reachgraph.PartitionCache`, shared by every
  query path and invalidated whenever the graph mutates.

The acceptance bar is the repo-wide one: with every layer on or off, in any
combination, answers are bit-identical to the batch reference at every
watermark — including after close/reopen and for queries issued between the
build and adopt phases of a merge.
"""

from __future__ import annotations

import pytest

from equivalence import (
    EQUIVALENCE_BACKENDS,
    EQUIVALENCE_LABEL_MODES,
    CallCounter,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from labels_reference import reference_labels
from repro.core import (
    ReachabilityQuery,
    StreamingConfig,
    TimeInterval,
)
from repro.contacts.network import Contact
from repro.reachgraph import (
    ContactDag,
    PartitionCache,
    ReachGraphQueryProcessor,
    ReachLabelIndex,
    reduce_contact_network,
)
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamIngestor,
    StreamingReachabilityService,
    build_merge,
)
from repro.streaming.delta import DeltaGraph, ObjectBloomFilter
from repro.workloads.queries import random_queries

TINY_THRESHOLD = 30.0

# The label axis itself is parametrized by tests/conftest.py's
# pytest_generate_tests (honouring --labels); assert the canned axis here so
# a drive-by edit to the tuple cannot silently drop a mode from CI.
assert EQUIVALENCE_LABEL_MODES == (True, False)


def exhaustive_reachability(dag: ContactDag) -> set:
    """Every reachable ``(source_id, target_id)`` pair of ``dag``, by DFS."""
    pairs = set()
    for source in range(dag.num_nodes):
        stack = [source]
        seen = {source}
        while stack:
            node = stack.pop()
            pairs.add((source, node))
            for child in dag.successors(node):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return pairs


def assert_rejections_exact(labels: ReachLabelIndex, dag: ContactDag) -> None:
    """A ``rejects`` verdict must never contradict exhaustive reachability."""
    reachable = exhaustive_reachability(dag)
    for source in range(dag.num_nodes):
        for target in range(dag.num_nodes):
            if labels.rejects(source, target):
                assert (source, target) not in reachable, (
                    f"labels rejected reachable pair {source}->{target}"
                )


def chain_dag(length: int) -> ContactDag:
    """A single path ``0 -> 1 -> ... -> length-1`` (ids are topological)."""
    dag = ContactDag(TimeInterval(0, length), num_objects=2)
    for position in range(length):
        dag.add_node(TimeInterval(position, position), frozenset({1, 2}))
        if position:
            dag.add_edge(position - 1, position)
    return dag


def labels_of(labels: ReachLabelIndex) -> list:
    """Every ``(low, rank)`` label, in vertex-id order."""
    return [labels.label(node_id) for node_id in range(labels.num_labels)]


# ----------------------------------------------------------------------
# interval labels (unit)
# ----------------------------------------------------------------------
class TestReachLabelIndex:
    def test_build_is_exact_on_figure1(self, figure1_dag):
        labels = ReachLabelIndex.build(figure1_dag)
        labels.check_consistency(figure1_dag)
        assert labels.num_labels == figure1_dag.num_nodes
        assert_rejections_exact(labels, figure1_dag)

    def test_build_is_exact_on_generated_dag(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        labels = ReachLabelIndex.build(dag)
        labels.check_consistency(dag)
        assert_rejections_exact(labels, dag)
        # The axis is useful, not vacuous: a real contact DAG has provably
        # unreachable pairs and the labels must find some of them for free.
        labels.rejections = 0
        reachable = exhaustive_reachability(dag)
        unreachable = dag.num_nodes * dag.num_nodes - len(reachable)
        assert unreachable > 0
        for source in range(dag.num_nodes):
            for target in range(dag.num_nodes):
                labels.rejects(source, target)
        assert 0 < labels.rejections <= unreachable

    def test_rejects_never_fires_on_identity(self, figure1_dag):
        labels = ReachLabelIndex.build(figure1_dag)
        for node_id in range(figure1_dag.num_nodes):
            assert not labels.rejects(node_id, node_id)

    def test_build_is_the_reference_postorder(self, figure1_dag, tiny_network):
        """Bit for bit the labels an older writer put in the graph catalog."""
        generated, _ = reduce_contact_network(tiny_network)
        for dag in (figure1_dag, generated):
            ranks, lows = reference_labels(dag)
            assert labels_of(ReachLabelIndex.build(dag)) == list(zip(lows, ranks))

    def test_successor_tuples_label_like_the_dag(self, tiny_network):
        """A restore labels the records' successor tuples, not a DAG."""
        dag, _ = reduce_contact_network(tiny_network)
        records = [tuple(dag.successors(node_id)) for node_id in range(dag.num_nodes)]
        assert labels_of(ReachLabelIndex(records)) == labels_of(
            ReachLabelIndex.build(dag)
        )

    def test_relabel_labels_the_grown_dag(self):
        dag = chain_dag(8)
        labels = ReachLabelIndex.build(dag)
        assert labels.full_relabels == 0, "the initial build is not a relabel"
        # Branch the tail so the growth carries real fan-out, not just a path.
        dag.add_node(TimeInterval(8, 8), frozenset({1, 2}))
        dag.add_node(TimeInterval(8, 9), frozenset({1, 2}))
        dag.add_edge(7, 8)
        dag.add_edge(7, 9)
        dag.add_node(TimeInterval(9, 9), frozenset({1, 2}))
        dag.add_edge(8, 10)
        labels.relabel(dag.forward)
        assert labels.full_relabels == 1
        assert labels_of(labels) == labels_of(ReachLabelIndex.build(dag))
        labels.check_consistency(dag)
        assert_rejections_exact(labels, dag)


# ----------------------------------------------------------------------
# interval labels (maintained through the streaming service)
# ----------------------------------------------------------------------
def _service(dataset, contact_config, storage_config=None, **overrides):
    overrides.setdefault("max_delta_contacts", 48)
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=contact_config,
        streaming_config=StreamingConfig(**overrides),
        storage_config=storage_config,
    )


class TestLabelsInService:
    def test_labels_are_recomputed_across_incremental_merges(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        assert service.num_merges > 1
        index = service.overlay.snapshot_processor.index
        labels = index.labels
        assert labels is not None
        assert labels_of(labels) == labels_of(ReachLabelIndex.build(index.dag))
        # Every increment of this stream adds vertices, and each one
        # relabels in full; nothing is ever patched.
        stats = service.stats
        assert stats.label_full_relabels == index.num_increments > 0
        assert stats.label_relabels == 0
        labels.check_consistency(index.dag)
        assert_rejections_exact(labels, index.dag)
        service.close()

    def test_merge_without_new_vertices_keeps_the_labels(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        index = service.overlay.snapshot_processor.index
        labels = index.labels
        relabels = labels.full_relabels
        increments = index.num_increments
        service.merge()  # zero new ticks
        assert index.num_increments == increments + 1, "an empty patch was applied"
        assert index.labels is labels
        assert labels.full_relabels == relabels
        assert labels_of(labels) == labels_of(ReachLabelIndex.build(index.dag))
        service.close()

    @pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
    def test_live_labels_equal_a_fresh_build_after_every_merge(
        self, backend, tmp_path, tiny_dataset, tiny_contact_config
    ):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            backend_storage_config(backend, storage_dir=str(tmp_path)),
        )
        merges_seen = 0
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=8).batches():
            service.ingest(batch)
            if service.num_merges == merges_seen:
                continue
            merges_seen = service.num_merges
            index = service.overlay.snapshot_processor.index
            assert labels_of(index.labels) == labels_of(
                ReachLabelIndex.build(index.dag)
            ), f"backend={backend}, merge {merges_seen}"
        assert merges_seen > 1, "the workload must exercise several merges"
        service.close()

    def test_labels_follow_frontier_repacks(self, tiny_dataset, tiny_contact_config):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            graph_repack_min_partitions=2,
        )
        generation_log = set()
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=8).batches():
            service.ingest(batch)
            generation_log.add(service.overlay.partition_cache.generation)
        service.merge()
        index = service.overlay.snapshot_processor.index
        if service.stats.graph_repacks:
            # A repack rewrites partition placement but not vertex identity:
            # the labels must still cover and satisfy the patched DAG.
            assert index.labels is not None
            index.labels.check_consistency(index.dag)
        assert len(generation_log) > 1, "merges must bump the cache generation"
        service.close()

    def test_disabling_labels_leaves_index_bare(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config, graph_labels=False)
        service.drain(tiny_dataset)
        service.merge()
        assert service.overlay.snapshot_processor.index.labels is None
        for query in random_queries(tiny_dataset, count=10, seed=3):
            service.query(query)
        stats = service.stats
        assert stats.label_rejections == 0
        assert stats.label_frontier_prunes == 0
        service.close()

    def test_labels_survive_close_reopen(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=48),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.merge()
        live = service.overlay.snapshot_processor.index.labels
        live_labels = [live.label(n) for n in range(live.num_labels)]
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        assert index.labels is not None
        assert index.labels.num_labels == index.dag.num_nodes
        assert [
            index.labels.label(n) for n in range(index.labels.num_labels)
        ] == live_labels, "restored labels must be bit-identical to the flushed ones"
        assert_reopened_matches_prefix(
            reopened,
            tiny_dataset,
            TINY_THRESHOLD,
            random_queries(tiny_dataset, count=20, seed=11),
            context="labels restored",
        )
        reopened.close()

    def test_resumed_service_counts_only_its_own_relabels(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """The relabel ledger starts at 0 on a reopen, as on a fresh build:
        a resumed writer reports the relabels it ran, not its predecessor's."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(tiny_dataset, tiny_contact_config, storage_config)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=8).batches())
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
        service.merge()
        assert service.stats.label_full_relabels > 0
        service.close()

        resumed = StreamingReachabilityService.open(
            storage_config, name=service.name, auto_merge=False
        )
        assert resumed.stats.label_full_relabels == 0
        vertices = resumed.overlay.snapshot_processor.index.num_vertices
        for batch in batches[len(batches) // 2 :]:
            resumed.ingest(batch)
        resumed.merge()
        index = resumed.overlay.snapshot_processor.index
        assert index.num_vertices > vertices, "the merge must add vertices"
        assert resumed.stats.label_full_relabels == 1
        assert labels_of(index.labels) == labels_of(ReachLabelIndex.build(index.dag))
        resumed.close()


# ----------------------------------------------------------------------
# zone maps: Bloom filters and run pruning
# ----------------------------------------------------------------------
class TestObjectBloomFilter:
    def test_no_false_negatives(self):
        bloom = ObjectBloomFilter.from_objects(range(0, 400, 3))
        for object_id in range(0, 400, 3):
            assert bloom.may_contain(object_id)

    def test_rejects_most_absent_ids(self):
        bloom = ObjectBloomFilter.from_objects(range(64))
        false_positives = sum(
            1 for object_id in range(10_000, 11_000) if bloom.may_contain(object_id)
        )
        # 10 bits/object with k=4 gives ~1% theoretical FP; leave headroom.
        assert false_positives < 100

    def test_deterministic_across_instances(self):
        first = ObjectBloomFilter.from_objects([5, 9, 1_000_003])
        second = ObjectBloomFilter.from_objects([1_000_003, 9, 5])
        assert first.bits == second.bits

    def test_manifest_roundtrip(self):
        bloom = ObjectBloomFilter.from_objects(range(17))
        restored = ObjectBloomFilter.from_manifest(bloom.to_manifest())
        assert restored.bits == bloom.bits
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes


class TestRunPruning:
    @staticmethod
    def _multi_run_service(dataset, contact_config):
        """A service whose snapshot holds several time-disjoint runs."""
        service = _service(
            dataset,
            contact_config,
            max_delta_contacts=10_000,
            compaction_max_runs=64,  # keep the runs separate for the test
        )
        for batch in DatasetReplaySource(dataset, batch_ticks=20).batches():
            service.ingest(batch)
            service.merge()
        return service

    def test_read_overlapping_skips_disjoint_runs(
        self, tiny_dataset, tiny_contact_config
    ):
        """Regression: a narrow-interval read used to load every run's blocks;
        the zone maps must now skip runs whose whole span misses the query."""
        service = self._multi_run_service(tiny_dataset, tiny_contact_config)
        store = service.overlay.snapshot_store
        assert store.num_runs > 1, "the workload must produce several runs"
        horizon = tiny_dataset.horizon
        everything = store.read_overlapping(horizon)
        skipped_runs_before = store.runs_skipped
        skipped_blocks_before = store.blocks_skipped
        narrow = TimeInterval(horizon.start, horizon.start + 10)
        pruned = store.read_overlapping(narrow)
        assert store.runs_skipped > skipped_runs_before
        assert store.blocks_skipped > skipped_blocks_before
        expected = [r for r in everything if r[2] <= narrow.end and r[3] >= narrow.start]
        assert sorted(pruned) == sorted(expected), (
            "pruning must never change the records a read returns"
        )
        service.close()

    def test_zone_maps_survive_close_reopen(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=10_000, compaction_max_runs=64
            ),
            storage_config=storage_config,
        )
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=20).batches():
            service.ingest(batch)
            service.merge()
        live_store = service.overlay.snapshot_store
        assert live_store.num_runs > 1
        missing = max(tiny_dataset.object_ids) + 1_000
        assert not live_store.may_contain(missing)
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        store = reopened.overlay.snapshot_store
        assert store.num_runs == live_store.num_runs
        # The restored zone maps answer identically: absent objects stay
        # provably absent, and narrow reads still skip disjoint runs.
        assert not store.may_contain(missing)
        for object_id in tiny_dataset.object_ids:
            assert store.may_contain(object_id) == live_store.may_contain(object_id)
        narrow = TimeInterval(
            tiny_dataset.horizon.start, tiny_dataset.horizon.start + 10
        )
        store.read_overlapping(narrow)
        assert store.runs_skipped > 0
        reopened.close()

    def test_bloom_rejection_answers_without_io(
        self, tiny_dataset, tiny_contact_config
    ):
        service = self._multi_run_service(tiny_dataset, tiny_contact_config)
        missing = max(tiny_dataset.object_ids) + 1_000
        known = tiny_dataset.object_ids[0]
        result = service.query(
            ReachabilityQuery(missing, known, TimeInterval(0, tiny_dataset.horizon.end))
        )
        assert not result.reachable
        assert result.io == 0.0
        assert service.stats.bloom_rejections > 0
        service.close()


# ----------------------------------------------------------------------
# the cross-query partition cache
# ----------------------------------------------------------------------
class TestPartitionCache:
    def test_lru_eviction_order(self):
        cache = PartitionCache(capacity=2)
        cache.insert(1, ())
        cache.insert(2, ())
        assert cache.lookup(1) is not None  # 1 is now the most recent
        cache.insert(3, ())  # evicts 2, the least recent
        assert cache.lookup(2) is None
        assert cache.lookup(1) is not None
        assert cache.lookup(3) is not None
        assert len(cache) == 2

    def test_capacity_zero_disables_caching(self):
        cache = PartitionCache(capacity=0)
        cache.insert(1, ())
        assert cache.lookup(1) is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            PartitionCache(capacity=-1)

    def test_invalidate_clears_and_bumps_generation(self):
        cache = PartitionCache(capacity=4)
        cache.insert(1, ())
        generation = cache.generation
        cache.invalidate()
        assert cache.generation == generation + 1
        assert cache.lookup(1) is None

    def test_service_queries_share_one_cache(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        for query in random_queries(tiny_dataset, count=30, seed=7):
            service.query(query)
        stats = service.stats
        assert stats.partition_cache_hits > 0, (
            "a varied workload over one graph must re-touch partitions"
        )
        assert stats.partition_cache_misses > 0
        service.close()

    def test_cache_size_zero_disables_sharing(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config, partition_cache_size=0)
        service.drain(tiny_dataset)
        service.merge()
        for query in random_queries(tiny_dataset, count=30, seed=7):
            service.query(query)
        assert service.stats.partition_cache_hits == 0
        service.close()

    def test_mutation_invalidates_the_cache(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config, max_delta_contacts=10_000)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=20).batches())
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
        service.merge()
        generation = service.overlay.partition_cache.generation
        for batch in batches[len(batches) // 2 :]:
            service.ingest(batch)
        service.merge()
        assert service.overlay.partition_cache.generation > generation, (
            "adopting a merge mutates the graph and must invalidate the cache"
        )
        service.close()


# ----------------------------------------------------------------------
# whole-path equivalence (the graph_labels axis)
# ----------------------------------------------------------------------
class TestFastPathEquivalence:
    @pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
    def test_equivalence_at_every_watermark(
        self, backend, graph_labels, tmp_path, tiny_dataset, tiny_contact_config
    ):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            backend_storage_config(backend, storage_dir=str(tmp_path)),
            graph_labels=graph_labels,
        )
        workload = random_queries(tiny_dataset, count=12, seed=29)
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
                {f"labels-{graph_labels}": service.query},
                workload,
                context=(
                    f"backend={backend}, graph_labels={graph_labels}, "
                    f"watermark={service.watermark}"
                ),
            )
        assert service.num_merges > 1
        service.close()

    def test_mid_merge_queries_stay_exact(
        self, graph_labels, tiny_dataset, tiny_contact_config
    ):
        """Queries issued between a merge's build and adopt phases see the old
        snapshot plus the live delta — with or without labels, answers must
        match the reference over the full ingested prefix throughout."""
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            graph_labels=graph_labels,
            max_delta_contacts=10_000,
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=12).batches())
        for batch in batches[: len(batches) - 2]:
            service.ingest(batch)
        service.merge()
        for batch in batches[len(batches) - 2 :]:
            service.ingest(batch)
        workload = random_queries(tiny_dataset, count=12, seed=41)
        reference = reference_evaluator(
            prefix_network(tiny_dataset, TINY_THRESHOLD, through=service.watermark)
        )
        inputs = service.prepare_merge()
        build = build_merge(inputs)
        assert_methods_agree(
            reference,
            {"mid-merge": service.query},
            workload,
            context=f"graph_labels={graph_labels}, between build and adopt",
        )
        service.adopt_merge(build, inputs)
        assert_methods_agree(
            reference,
            {"post-adopt": service.query},
            workload,
            check_earliest=True,
            context=f"graph_labels={graph_labels}, after adopt",
        )
        service.close()

    def test_close_reopen_with_and_without_labels(
        self, graph_labels, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=48, graph_labels=graph_labels
            ),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.merge()
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        assert (index.labels is not None) == graph_labels
        assert_reopened_matches_prefix(
            reopened,
            tiny_dataset,
            TINY_THRESHOLD,
            random_queries(tiny_dataset, count=20, seed=47),
            context=f"graph_labels={graph_labels}, reopened",
        )
        reopened.close()

    def test_negative_heavy_mix_rejects_and_matches_reference(
        self, tiny_dataset, tiny_contact_config
    ):
        """The point of the fast path: on a negative-heavy mix the pruning
        layers must actually fire — and never flip an answer doing so."""
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        objects = tiny_dataset.object_ids
        horizon = tiny_dataset.horizon
        workload = [
            # Tight one-tick windows: most pairs cannot meet in time.
            ReachabilityQuery(
                objects[i % len(objects)],
                objects[(i * 7 + 3) % len(objects)],
                TimeInterval(start, start + 1),
            )
            for i, start in enumerate(range(horizon.start, horizon.end - 1, 7))
        ] + [
            # Unknown endpoints: the Bloom layer's bread and butter.
            ReachabilityQuery(max(objects) + 50, objects[0], horizon),
            ReachabilityQuery(objects[1], max(objects) + 51, horizon),
        ]
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, TINY_THRESHOLD, through=horizon.end)
            ),
            {"negative-heavy": service.query},
            workload,
            context="negative-heavy mix",
        )
        stats = service.stats
        assert stats.bloom_rejections > 0
        assert stats.label_rejections + stats.label_frontier_prunes > 0, (
            "the label layer must prune something on a negative-heavy mix"
        )
        service.close()


# ----------------------------------------------------------------------
# the union path's count gates (calls and IOs, never clocks)
# ----------------------------------------------------------------------
#: ``(visited, random_ios, sequential_ios)`` of every query of
#: :func:`_union_workload` on the drained tiny stream (no final merge), as
#: the union path read them when it still built a ``Contact`` per record:
#: moving it to plain records must read exactly the same blocks.
UNION_PATH_GOLDEN = [
    (10, 0, 0), (20, 0, 0), (29, 0, 0), (35, 1, 1),
    (48, 1, 1), (56, 1, 3), (67, 1, 3), (78, 1, 3),
    (83, 1, 4), (90, 1, 4), (99, 2, 4), (109, 2, 5),
    (113, 2, 5), (120, 2, 5), (128, 2, 7), (136, 2, 7),
]

def _union_workload(dataset, watermark):
    """Queries ending at ``watermark``, their starts spread back over the stream."""
    return [
        ReachabilityQuery(
            query.source, query.destination, TimeInterval(watermark - 3 - 7 * i, watermark)
        )
        for i, query in enumerate(random_queries(dataset, count=16, seed=61))
    ]


class TestUnionPathCounts:
    @staticmethod
    def _drained(dataset, contact_config, graph_labels):
        service = _service(dataset, contact_config, graph_labels=graph_labels)
        service.drain(dataset)  # no final merge: the tail stays in delta/open
        assert service.watermark > service.overlay.snapshot_watermark
        return service

    def test_union_path_builds_nothing_per_record(
        self, monkeypatch, graph_labels, tiny_dataset, tiny_contact_config
    ):
        """A union-path query reading N snapshot records builds no
        ``TimeInterval`` and no ``Contact`` per record."""
        service = self._drained(tiny_dataset, tiny_contact_config, graph_labels)
        counter = CallCounter(
            monkeypatch,
            (TimeInterval, "__post_init__"),
            (Contact, "__post_init__"),
            (ReachGraphQueryProcessor, "evaluate"),
        )
        for query in _union_workload(tiny_dataset, service.watermark):
            counter.reset()
            result = service.query(query)
            built = (
                counter.calls["TimeInterval.__post_init__"]
                + counter.calls["Contact.__post_init__"]
            )
            assert counter.calls["ReachGraphQueryProcessor.evaluate"] == 0
            assert built <= 1, (
                f"{query}: {built} intervals/contacts built for "
                f"{result.visited} records"
            )
        assert result.visited > 100, "the widest query must read many records"
        service.close()

    def test_watermark_route_scans_nothing_recent(
        self, monkeypatch, graph_labels, tiny_dataset, tiny_contact_config
    ):
        """An interval ending at or before the snapshot watermark goes
        straight to BM-BFS: no open-run view, no delta filter."""
        service = self._drained(tiny_dataset, tiny_contact_config, graph_labels)
        frozen = service.overlay.snapshot_watermark
        counter = CallCounter(
            monkeypatch,
            (StreamIngestor, "open_contacts"),
            (StreamIngestor, "open_runs"),
            (DeltaGraph, "records_overlapping"),
            (ReachGraphQueryProcessor, "evaluate"),
        )
        early = [
            ReachabilityQuery(
                query.source, query.destination, TimeInterval(2 * i, frozen - i)
            )
            for i, query in enumerate(random_queries(tiny_dataset, count=12, seed=73))
        ]
        for query in early:
            service.query(query)
        assert counter.calls == {
            "StreamIngestor.open_contacts": 0,
            "StreamIngestor.open_runs": 0,
            "DeltaGraph.records_overlapping": 0,
            "ReachGraphQueryProcessor.evaluate": len(early),
        }
        # One tick past the watermark the recent records are scanned, once.
        counter.reset()
        source, destination = early[0].source, early[0].destination
        service.query(ReachabilityQuery(source, destination, TimeInterval(0, frozen + 1)))
        assert counter.calls["StreamIngestor.open_runs"] == 1
        assert counter.calls["DeltaGraph.records_overlapping"] == 1
        assert counter.calls["StreamIngestor.open_contacts"] == 0
        service.close()

    def test_union_path_reads_match_golden(
        self, graph_labels, tiny_dataset, tiny_contact_config
    ):
        service = self._drained(tiny_dataset, tiny_contact_config, graph_labels)
        workload = _union_workload(tiny_dataset, service.watermark)
        assert [
            (r.visited, r.random_ios, r.sequential_ios)
            for r in map(service.query, workload)
        ] == UNION_PATH_GOLDEN
        service.close()
