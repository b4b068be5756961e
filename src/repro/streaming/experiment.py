"""Experiment driver: streaming ingest vs the batch reference evaluator.

Not a figure of the paper — the paper builds its indexes offline — but the
natural online extension of its evaluation: replay a canned dataset through
the streaming service, then compare per-query IO in the two regimes the delta
overlay creates (queries answered while the delta is live vs queries answered
after a merge folded everything into frozen indexes), alongside ingest
throughput and a ground-truth equivalence count against the batch
``reference`` evaluator.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..baselines.reference import evaluate_reachability
from ..contacts.join import build_contact_network
from ..core.config import STORAGE_BACKENDS, StorageConfig, StreamingConfig
from ..core.types import QueryResult, ReachabilityQuery, TimeInterval
from ..experiments.harness import ExperimentResult, run_workload
from ..workloads.datasets import DATASETS
from ..workloads.queries import random_queries
from .service import SnapshotQueryService, StreamingReachabilityService
from .source import DatasetReplaySource

__all__ = [
    "stream_replay",
    "disk_backend_replay",
    "space_replay",
    "query_latency_replay",
]


def _make_service(dataset, spec, streaming_config, storage_config=None):
    """A streaming service for ``dataset`` configured from its spec."""
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=spec.contact_config,
        grid_config=spec.grid_config,
        streaming_config=streaming_config,
        storage_config=storage_config,
    )


def _storage_config(storage_backend: Optional[str]) -> Optional[StorageConfig]:
    """A storage config for ``storage_backend`` (``None``/"sim" → defaults).

    Persistent backends run in anonymous scratch directories here — the
    drivers measure behaviour, not durability; the close/reopen cycle is
    exercised by :func:`disk_backend_replay` with a real directory.
    """
    if storage_backend is None or storage_backend == "sim":
        return None
    return StorageConfig(backend=storage_backend)


def stream_replay(
    dataset_names: Sequence[str] = ("rwp-small", "vn-small"),
    batch_ticks: int = 8,
    num_queries: int = 20,
    seed: int = 0,
    storage_backend: str = "sim",
) -> ExperimentResult:
    """Streaming ingestion: throughput, and delta-query vs post-merge IO."""
    result = ExperimentResult(
        experiment="stream",
        description="Streaming ingest throughput and delta vs post-merge query IO",
    )
    for name in dataset_names:
        spec = DATASETS[name]
        dataset = spec.generate()
        streaming_config = StreamingConfig(batch_ticks=batch_ticks)
        service = _make_service(
            dataset, spec, streaming_config, _storage_config(storage_backend)
        )
        source = DatasetReplaySource(dataset, batch_ticks=batch_ticks)
        stats = service.drain(source)

        workload = random_queries(dataset, count=num_queries, seed=seed)
        network = build_contact_network(dataset, spec.contact_threshold)
        truth = {
            query: evaluate_reachability(network, query).reachable
            for query in workload
        }

        # Regime 1: the delta overlay is still live (no forced merge).
        pre_results = {query: service.query(query) for query in workload}
        pre_aggregate = run_workload(
            pre_results.__getitem__, workload, method="pre-merge"
        )
        pre_matches = sum(
            1 for query in workload if pre_results[query].reachable == truth[query]
        )

        # Regime 2: everything folded into frozen snapshot indexes.
        service.merge()
        post_results = {query: service.query(query) for query in workload}
        post_aggregate = run_workload(
            post_results.__getitem__, workload, method="post-merge"
        )
        post_matches = sum(
            1 for query in workload if post_results[query].reachable == truth[query]
        )

        result.add_row(
            dataset=name,
            events=stats.events,
            ingest_events_per_sec=round(stats.events_per_second, 1),
            merges=service.num_merges,
            premerge_mean_io=round(pre_aggregate.mean_io, 3),
            postmerge_mean_io=round(post_aggregate.mean_io, 3),
            premerge_matches=f"{pre_matches}/{num_queries}",
            postmerge_matches=f"{post_matches}/{num_queries}",
        )
        service.close()
    result.add_note(
        "pre-merge queries consult the frozen snapshot plus the in-memory "
        "delta graph, post-merge queries run on the merged ReachGraph alone."
    )
    result.add_note(
        "matches count agreement with the batch reference evaluator over the "
        "same data; both columns should always equal the workload size."
    )
    if storage_backend != "sim":
        result.add_note(f"storage backend: {storage_backend}.")
    return result


# ----------------------------------------------------------------------
# storage-backend comparison (sim vs file vs mmap)
# ----------------------------------------------------------------------
def disk_backend_replay(
    dataset_names: Sequence[str] = ("rwp-small",),
    backends: Sequence[str] = STORAGE_BACKENDS,
    batch_ticks: int = 8,
    num_queries: int = 20,
    seed: int = 0,
) -> ExperimentResult:
    """Storage backends: ingest/query cost and reopen fidelity per backend."""
    result = ExperimentResult(
        experiment="stream-disk",
        description=(
            "Streaming replay per storage backend: throughput, query IO, "
            "snapshot write amplification, and close/reopen fidelity"
        ),
    )
    for name in dataset_names:
        spec = DATASETS[name]
        dataset = spec.generate()
        workload = list(random_queries(dataset, count=num_queries, seed=seed))
        network = build_contact_network(dataset, spec.contact_threshold)
        truth = {
            query: evaluate_reachability(network, query) for query in workload
        }
        for backend in backends:
            with tempfile.TemporaryDirectory(prefix="repro-stream-disk-") as scratch:
                streaming_config = StreamingConfig(batch_ticks=batch_ticks)
                storage_config = (
                    None
                    if backend == "sim"
                    else StorageConfig(backend=backend, storage_dir=scratch)
                )
                service = _make_service(
                    dataset, spec, streaming_config, storage_config
                )
                stats = service.drain(
                    DatasetReplaySource(dataset, batch_ticks=batch_ticks)
                )
                live = {query: service.query(query) for query in workload}
                aggregate = run_workload(
                    live.__getitem__, workload, method=f"backend-{backend}"
                )
                matches = sum(
                    1
                    for query in workload
                    if live[query].reachable == truth[query].reachable
                )
                reopen_matches = "n/a"
                if storage_config is not None:
                    service.close()
                    reopened = SnapshotQueryService.open(
                        storage_config, name=service.name
                    )
                    agree = sum(
                        1
                        for query in workload
                        if reopened.query(query).reachable
                        == truth[query].reachable
                    )
                    reopened.close()
                    reopen_matches = f"{agree}/{num_queries}"
                service_stats = service.stats
                result.add_row(
                    dataset=name,
                    backend=backend,
                    events=stats.events,
                    ingest_events_per_sec=round(stats.events_per_second, 1),
                    merges=service.num_merges,
                    snapshot_records_written=service_stats.snapshot_records_written,
                    superseded_blocks=service_stats.superseded_blocks,
                    compactions=service_stats.compactions,
                    graph_records_written=service_stats.graph_records_written,
                    graph_superseded_blocks=service_stats.graph_superseded_blocks,
                    mean_query_io=round(aggregate.mean_io, 3),
                    mean_query_ms=round(aggregate.mean_cpu_seconds * 1000.0, 3),
                    matches=f"{matches}/{num_queries}",
                    reopen_matches=reopen_matches,
                )
    result.add_note(
        "every backend drains the same replayed stream behind the same "
        "StorageSystem interface, so IO counts are directly comparable; "
        "snapshot_records_written / graph_records_written are the LSM and "
        "ReachGraph write-amplification ledgers, and the superseded_blocks "
        "columns count on-device garbage left by compactions and partition "
        "rewrites — the baseline any space-reclamation work must shrink."
    )
    result.add_note(
        "reopen_matches re-answers the workload after close() through a "
        "SnapshotQueryService reopened from the backing files (persistent "
        "backends only); it should always equal the workload size."
    )
    return result


# ----------------------------------------------------------------------
# space reclamation: live bytes vs device bytes under GC
# ----------------------------------------------------------------------
def space_replay(
    dataset_names: Sequence[str] = ("rwp-small",),
    backends: Sequence[str] = STORAGE_BACKENDS,
    batch_ticks: int = 8,
    num_queries: int = 20,
    gc_trigger_ratio: float = 0.35,
    max_delta_contacts: int = 96,
    seed: int = 0,
) -> ExperimentResult:
    """Space reclamation: device footprint converging onto live bytes.

    Drains one multi-merge stream per backend with the whole space pipeline
    armed — leveled compaction, frontier repack, WAL truncation, and the
    ``gc_trigger_ratio`` policy that fires copy-forward device GC after
    merges — then runs one final explicit :meth:`reclaim` and reports the
    device's live/garbage ledger before and after it.  The claim the rows
    support: with GC on, device blocks track live blocks (the final ratio
    stays near 1.0 instead of growing with merge count), queries still agree
    with the batch reference, and the ingest journal stays bounded.
    """
    result = ExperimentResult(
        experiment="stream-space",
        description=(
            "Streaming replay per storage backend with GC, compaction, "
            "repack, and WAL truncation armed: live vs device blocks "
            "before/after reclaim"
        ),
    )
    for name in dataset_names:
        spec = DATASETS[name]
        dataset = spec.generate()
        workload = list(random_queries(dataset, count=num_queries, seed=seed))
        network = build_contact_network(dataset, spec.contact_threshold)
        truth = {
            query: evaluate_reachability(network, query) for query in workload
        }
        for backend in backends:
            with tempfile.TemporaryDirectory(
                prefix="repro-stream-space-"
            ) as scratch:
                streaming_config = StreamingConfig(
                    batch_ticks=batch_ticks,
                    max_delta_contacts=max_delta_contacts,
                    gc_trigger_ratio=gc_trigger_ratio,
                    graph_repack_min_partitions=2,
                )
                storage_config = (
                    None
                    if backend == "sim"
                    else StorageConfig(backend=backend, storage_dir=scratch)
                )
                service = StreamingReachabilityService.for_dataset(
                    dataset,
                    contact_config=spec.contact_config,
                    grid_config=spec.grid_config,
                    streaming_config=streaming_config,
                    storage_config=storage_config,
                )
                stats = service.drain(
                    DatasetReplaySource(dataset, batch_ticks=batch_ticks)
                )
                overlay_disk = service.overlay.storage
                ingest_disk = service.ingestor.storage
                device_before = (
                    overlay_disk.disk.num_blocks + ingest_disk.disk.num_blocks
                )
                garbage_before = (
                    overlay_disk.garbage_blocks + ingest_disk.garbage_blocks
                )
                freed = service.reclaim()
                live = overlay_disk.live_blocks + ingest_disk.live_blocks
                device = (
                    overlay_disk.disk.num_blocks + ingest_disk.disk.num_blocks
                )
                matches = sum(
                    1
                    for query in workload
                    if service.query(query).reachable == truth[query].reachable
                )
                service_stats = service.stats
                result.add_row(
                    dataset=name,
                    backend=backend,
                    events=stats.events,
                    merges=service.num_merges,
                    compactions=service_stats.compactions,
                    graph_repacks=service_stats.graph_repacks,
                    reclaims=service_stats.reclaims,
                    reclaimed_blocks=service_stats.reclaimed_blocks,
                    device_blocks_before=device_before,
                    garbage_before=garbage_before,
                    final_reclaim_freed=freed,
                    live_blocks=live,
                    device_blocks=device,
                    device_over_live=round(device / live, 3) if live else 0.0,
                    journal_blocks=service.ingestor.journal_blocks,
                    matches=f"{matches}/{num_queries}",
                )
                service.close()
    result.add_note(
        f"gc_trigger_ratio={gc_trigger_ratio}: merges fire copy-forward GC "
        "whenever either device's garbage ratio passes the knob; the "
        "before-columns show the residual ledger at drain end, the "
        "after-columns follow one explicit reclaim() (flush + device GC on "
        "both systems).  device_over_live is the headline: the device "
        "footprint divided by the blocks live structures reference — it must "
        "stay near 1.0 instead of growing with merge count."
    )
    result.add_note(
        "journal_blocks is the ingest WAL's device footprint after the final "
        "flush — with truncation it holds only the unflushed tail, never the "
        "whole stream; matches re-answers the workload after GC against the "
        "batch reference evaluator (reclaim must move blocks, not answers)."
    )
    return result


# ----------------------------------------------------------------------
# the query fast path: interval labels, zone maps, partition cache
# ----------------------------------------------------------------------
def _negative_heavy_workload(dataset, count: int) -> List[ReachabilityQuery]:
    """Mostly-unreachable queries: tight windows plus unknown endpoints.

    Tight one-tick windows leave almost no time for a temporal path, so most
    pairs are unreachable (the interval labels' best case); two queries name
    object ids outside the dataset entirely (the Bloom layer's best case).
    """
    objects = dataset.object_ids
    horizon = dataset.horizon
    workload = [
        ReachabilityQuery(
            objects[position % len(objects)],
            objects[(position * 7 + 3) % len(objects)],
            TimeInterval(start, min(start + 1, horizon.end)),
        )
        for position, start in enumerate(
            range(horizon.start, horizon.end, max(1, (horizon.end or 1) // count))
        )
    ][: max(1, count - 2)]
    workload.append(ReachabilityQuery(max(objects) + 50, objects[0], horizon))
    workload.append(ReachabilityQuery(objects[-1], max(objects) + 51, horizon))
    return workload


def query_latency_replay(
    dataset_names: Sequence[str] = ("rwp-small",),
    batch_ticks: int = 8,
    num_queries: int = 30,
    max_delta_contacts: int = 64,
    seed: int = 0,
    storage_backend: str = "sim",
) -> ExperimentResult:
    """Query fast path: interval labels on/off, cold vs warm partition cache."""
    result = ExperimentResult(
        experiment="stream-query",
        description=(
            "Query fast path: per-mix latency and IO with the interval labels "
            "on vs off, cold vs warm partition cache, plus the zone-map skip "
            "ledgers of the LSM snapshot store"
        ),
    )
    for name in dataset_names:
        spec = DATASETS[name]
        dataset = spec.generate()
        network = build_contact_network(dataset, spec.contact_threshold)
        service = StreamingReachabilityService.for_dataset(
            dataset,
            contact_config=spec.contact_config,
            grid_config=spec.grid_config,
            streaming_config=StreamingConfig(
                batch_ticks=batch_ticks, max_delta_contacts=max_delta_contacts
            ),
            storage_config=_storage_config(storage_backend),
        )
        service.drain(DatasetReplaySource(dataset, batch_ticks=batch_ticks))
        service.merge()  # freeze the tail: every query runs on the fast path
        overlay = service.overlay
        processor = overlay.snapshot_processor
        mixes = {
            "positive-heavy": list(
                random_queries(dataset, count=num_queries, seed=seed)
            ),
            "negative-heavy": _negative_heavy_workload(dataset, num_queries),
        }
        for mix, workload in mixes.items():
            truth = {
                query: evaluate_reachability(network, query).reachable
                for query in workload
            }
            for use_labels in (True, False):
                if processor is not None:
                    processor.use_labels = use_labels
                cache = overlay.partition_cache
                cache.invalidate()  # the cold pass starts from an empty cache
                rejections = overlay.label_rejections
                prunes = overlay.label_frontier_prunes
                blooms = overlay.bloom_rejections
                hits, misses = cache.hits, cache.misses
                answers: Dict[ReachabilityQuery, QueryResult] = {}
                started = time.perf_counter()
                for query in workload:
                    answers[query] = overlay.evaluate(query)
                cold_seconds = time.perf_counter() - started
                started = time.perf_counter()
                for query in workload:
                    overlay.evaluate(query)
                warm_seconds = time.perf_counter() - started
                aggregate = run_workload(
                    answers.__getitem__,
                    workload,
                    method=f"labels-{'on' if use_labels else 'off'}",
                )
                matches = sum(
                    1
                    for query in workload
                    if bool(answers[query].reachable) == truth[query]
                )
                probed = (cache.hits - hits) + (cache.misses - misses)
                result.add_row(
                    dataset=name,
                    mix=mix,
                    labels="on" if use_labels else "off",
                    cold_ms=round(1_000 * cold_seconds / len(workload), 4),
                    warm_ms=round(1_000 * warm_seconds / len(workload), 4),
                    mean_io=round(aggregate.mean_io, 3),
                    mean_visited=round(aggregate.mean_visited, 2),
                    label_rejections=overlay.label_rejections - rejections,
                    frontier_prunes=overlay.label_frontier_prunes - prunes,
                    bloom_rejections=overlay.bloom_rejections - blooms,
                    cache_hit_rate=(
                        round((cache.hits - hits) / probed, 3) if probed else 0.0
                    ),
                    matches=f"{matches}/{len(workload)}",
                )
            if processor is not None:
                processor.use_labels = True
        # The graph fast path rarely touches the snapshot store, so probe the
        # zone maps directly: narrow window reads across the horizon must
        # skip every run whose time span provably misses the window.
        store = overlay.snapshot_store
        if store is not None:
            runs_skipped = store.runs_skipped
            blocks_skipped = store.blocks_skipped
            horizon = dataset.horizon
            probes = 0
            records = 0
            started = time.perf_counter()
            for start in range(horizon.start, horizon.end, max(1, batch_ticks)):
                records += len(
                    store.read_overlapping(
                        TimeInterval(start, min(start + 1, horizon.end))
                    )
                )
                probes += 1
            probe_seconds = time.perf_counter() - started
            result.add_note(
                f"{name}: zone-map probe — {probes} one-tick reads over "
                f"{store.num_runs} snapshot run(s) returned {records} "
                f"record(s) and skipped "
                f"{store.runs_skipped - runs_skipped} run(s) / "
                f"{store.blocks_skipped - blocks_skipped} block(s) without IO "
                f"({1_000 * probe_seconds / probes:.3f} ms/read)."
            )
        service.close()
    result.add_note(
        "Labels are a one-sided filter: 'matches' must equal the workload "
        "size in every row — on and off may only differ in latency, IO, and "
        "visited counts (the negative-heavy mix is where the rejections and "
        "frontier prunes pay)."
    )
    result.add_note(
        "cold_ms runs against a freshly invalidated partition cache, warm_ms "
        "repeats the same workload against the populated cache; the Bloom "
        "rejections answer unknown-endpoint queries with zero IO in either "
        "pass."
    )
    if storage_backend != "sim":
        result.add_note(f"storage backend: {storage_backend}.")
    return result
