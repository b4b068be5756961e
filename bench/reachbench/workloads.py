"""The four workloads, each one *round* of fixed work driven through the public API.

A round is a single-threaded closed loop with one client: the service is an
embedded library, so a caller waits for each reply before the next call.  The
runner repeats rounds for the requested number of seconds, over the same world
and a cycle of query samples; a round's counts are a function of its inputs
alone, so they repeat exactly and only timings vary.

Every layer is measured from outside: by timing calls into its public
functions and by reading the counters it already exposes
(``service.stats``, ``StorageSystem.stats``, ``QueryResult``).
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ReachabilityEngine
from repro.core.config import StorageConfig, StreamingConfig
from repro.core.types import QueryResult, ReachabilityQuery
from repro.reachgraph import (
    ReachLabelIndex,
    augment_dag,
    partition_hypergraph,
    reduce_contact_network,
)
from repro.storage import StorageSystem
from repro.streaming import (
    SnapshotQueryService,
    StreamIngestor,
    StreamingReachabilityService,
    build_merge,
    make_policy,
)
from repro.testing.faults import simulate_kill

from .hostspeed import HostSpeed
from .inputs import Inputs, TaggedQuery
from .trace import Record, Span, Tracer

__all__ = [
    "ROOT_SPAN",
    "WORKLOADS",
    "Round",
    "Workload",
    "check_answers",
    "percentile",
    "run_round",
    "timings",
]

#: The span every timed section runs under; layer shares are relative to it.
ROOT_SPAN = "bench:round"

#: Which layer a query class is expected to exercise (README interaction table).
_QUERY_LAYER = {
    "default": "reachgraph.query",
    "short": "reachgraph.query",
    "historical": "reachgraph.query",
    "hot": "reachgraph.query",
    "uniform": "reachgraph.query",
    "long": "reachgraph.query",
    "grid": "reachgrid.query",
    "recent": "streaming.delta",
    "edge": "streaming.delta",
    "unknown": "streaming.delta",
    "repeat": "streaming.service",
}

#: ingest-durable flushes after every this many batches.
_FLUSH_EVERY = 8


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timings(ops: Dict[str, List[float]], events: int) -> Dict[str, float]:
    """The end-to-end timing metrics of one round's operation series.

    p95 is the highest percentile with at least ten samples beyond it in
    every series it is taken of (300 queries or more, 200 ingest calls or more).
    """
    values = {"round_s": sum(sum(series) for series in ops.values())}
    millis = [seconds * 1e3 for seconds in ops["query"]]
    values["query_mean_ms"] = statistics.fmean(millis)
    values["query_p50_ms"] = percentile(millis, 0.50)
    values["query_p95_ms"] = percentile(millis, 0.95)
    if "build" in ops:
        values["build_s"] = sum(ops["build"])
        values["ingest_events_per_s"] = events / values["build_s"]
        values["grid_query_p50_ms"] = percentile(ops["grid_query"], 0.50) * 1e3
    if "ingest" in ops:
        busy = sum(ops["ingest"]) + sum(ops.get("flush", ()))
        values["ingest_events_per_s"] = events / busy
        values["ingest_stall_p95_ms"] = percentile(ops["ingest"], 0.95) * 1e3
    if "flush" in ops:
        values["flush_p50_ms"] = percentile(ops["flush"], 0.50) * 1e3
    if "recovery" in ops:
        values["recovery_s"] = statistics.median(ops["recovery"])
    return values


@dataclass
class Round:
    """What one round of a workload measured."""

    wall_s: float
    #: Seconds of every timed operation at the reference host speed, by
    #: series (``query``, ``ingest``, ``flush`` ...), in the order issued.
    ops: Dict[str, List[float]]
    #: All of them summed as measured, and the host-speed kernel's median time.
    raw_round_s: float
    kernel_s: float
    #: Events handed to the library in the timed section.
    events: int
    #: End-to-end counts of this round (IOs per query, write amplification ...).
    e2e: Dict[str, float]
    #: Per-layer counts (exact: a function of the round's inputs alone).
    counts: Dict[str, float]
    #: Per-layer timings that are not span sums: per-class query p50s, probes.
    times: Dict[str, float]
    #: Every answer given, for the correctness check outside the timed section.
    answers: List[Tuple[str, ReachabilityQuery, bool]]
    attempted: int
    failed: int = 0
    #: Spans of the round (traced runs only), probes included.
    records: List[Record] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One round of a workload and its optional set-up (BENCHMARK.json says why)."""

    run: Callable[[Inputs, Any, Tracer, str], Round]
    #: Extra set-up beyond input generation (serve-reopen's pre-ingest).
    prepare: Optional[Callable[[Inputs, str], Any]] = None


class _Ops:
    """When every timed operation of a round ran, by series."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[Tuple[float, float]]] = {}
        self.speed = HostSpeed()
        self.speed.tick()

    def add(self, series: str, span: Span) -> None:
        """Record a finished operation; the gap after it may time the kernel."""
        self.spans.setdefault(series, []).append((span.start, span.end))
        self.speed.tick()

    def count(self, *series: str) -> int:
        return sum(len(self.spans.get(name, ())) for name in series)

    def finish(self, root: Span, **fields: Any) -> "Round":
        """The round, with the kernel's time taken out of its wall-clock."""
        return Round(
            wall_s=root.seconds - self.speed.spent_s,
            ops={name: self.speed.corrected(spans) for name, spans in self.spans.items()},
            raw_round_s=sum(
                end - start for spans in self.spans.values() for start, end in spans
            ),
            kernel_s=self.speed.kernel_s(),
            **fields,
        )


class _QueryLog:
    """Answer and IO of every query of a round, by class; timed into ``series``."""

    def __init__(self, ops: _Ops, series: str = "query") -> None:
        self.ops = ops
        self.series = series
        self.entries: List[Tuple[str, ReachabilityQuery, float, QueryResult]] = []

    def ask(
        self,
        tracer: Tracer,
        evaluate: Callable[[ReachabilityQuery], QueryResult],
        tagged: TaggedQuery,
        ident: int,
    ) -> None:
        kind, query = tagged
        with tracer.span(f"{_QUERY_LAYER[kind]}:query", ident) as span:
            result = evaluate(query)
        self.ops.add(self.series, span)
        self.entries.append((kind, query, span.seconds, result))

    def answers(self) -> List[Tuple[str, ReachabilityQuery, bool]]:
        return [(kind, query, result.reachable) for kind, query, _, result in self.entries]

    @staticmethod
    def _io(kind: str, result: QueryResult) -> float:
        # A repeat is answered by the result cache, which hands back the
        # first evaluation's QueryResult; it reads no block itself.
        return 0.0 if kind == "repeat" else result.io

    def io_mean(self) -> float:
        """Normalized IOs per query (random + sequential / 20)."""
        return statistics.fmean(self._io(kind, result) for kind, _, _, result in self.entries)

    def _by_class(self) -> Dict[str, List[Tuple[float, QueryResult]]]:
        by_kind: Dict[str, List[Tuple[float, QueryResult]]] = {}
        for kind, _, seconds, result in self.entries:
            if kind not in ("default", "short", "grid"):
                # batch-paper's classes are its end-to-end metrics
                by_kind.setdefault(kind, []).append((seconds, result))
        return by_kind

    def class_p50s(self) -> Dict[str, float]:
        """``query.<class>.p50_ms``, as measured."""
        return {
            f"query.{kind}.p50_ms": percentile([s * 1e3 for s, _ in rows], 0.5)
            for kind, rows in self._by_class().items()
        }

    def layer_counts(self) -> Dict[str, float]:
        """Per-class IO mean, and the IO/visited sums of each query layer."""
        counts = {
            f"query.{kind}.io_mean": statistics.fmean(self._io(kind, r) for _, r in rows)
            for kind, rows in self._by_class().items()
        }
        for layer in ("reachgraph.query", "reachgrid.query"):
            rows = [r for kind, _, _, r in self.entries if _QUERY_LAYER[kind] == layer]
            counts[f"{layer}.random_ios"] = sum(r.random_ios for r in rows)
            counts[f"{layer}.sequential_ios"] = sum(r.sequential_ios for r in rows)
            counts[f"{layer}.visited"] = sum(r.visited for r in rows)
        return counts

    def negatives(self) -> int:
        return sum(1 for _, _, _, result in self.entries if not result.reachable)


# ----------------------------------------------------------------------
# counters read from the public surface
# ----------------------------------------------------------------------
def _device_counts(device: str, storage: StorageSystem) -> Dict[str, float]:
    stats = storage.stats
    return {
        f"storage.{device}.random_reads": stats.random_reads,
        f"storage.{device}.sequential_reads": stats.sequential_reads,
        f"storage.{device}.writes": stats.writes,
        f"storage.{device}.buffer_hits": stats.buffer_hits,
        f"storage.{device}.live_blocks": storage.live_blocks,
        f"storage.{device}.garbage_blocks": storage.garbage_blocks,
        f"storage.{device}.reclaimed_blocks": storage.reclaimed_blocks,
    }


def _service_counts(service: StreamingReachabilityService) -> Dict[str, float]:
    stats = service.stats
    processor = service.overlay.snapshot_processor
    counts = {
        "streaming.ingest.events": stats.events,
        "streaming.ingest.closed_contacts": service.ingestor.num_closed_contacts,
        "streaming.ingest.journal_blocks": service.ingestor.journal_blocks,
        "streaming.service.merges": stats.merges,
        "streaming.service.reclaims": stats.reclaims,
        "streaming.service.query_cache_hits": stats.cache_hits,
        "streaming.service.query_cache_misses": stats.cache_misses,
        "streaming.delta.snapshot_runs": stats.snapshot_runs,
        "streaming.delta.snapshot_records_written": stats.snapshot_records_written,
        "streaming.delta.compactions": stats.compactions,
        "streaming.delta.runs_skipped": stats.snapshot_runs_skipped,
        "streaming.delta.blocks_skipped": stats.snapshot_blocks_skipped,
        "streaming.delta.bloom_rejections": stats.bloom_rejections,
        "reachgraph.index.records_written": stats.graph_records_written,
        "reachgraph.index.superseded_blocks": stats.graph_superseded_blocks,
        "reachgraph.index.repacks": stats.graph_repacks,
        "reachgraph.index.num_partitions": (
            processor.index.num_partitions if processor is not None else 0
        ),
        "reachgraph.labels.rejections": stats.label_rejections,
        "reachgraph.labels.frontier_prunes": stats.label_frontier_prunes,
        "reachgraph.labels.relabels": stats.label_relabels,
        "reachgraph.labels.full_relabels": stats.label_full_relabels,
        "reachgraph.query.partition_cache_hits": stats.partition_cache_hits,
        "reachgraph.query.partition_cache_misses": stats.partition_cache_misses,
    }
    counts.update(_device_counts("overlay", service.overlay.storage))
    counts.update(_device_counts("grid", service.ingestor.storage))
    return counts


#: Counters of ``_service_counts`` that describe state, not lifetime totals:
#: after a kill the resumed service's value stands alone, the rest add up.
_STATE_COUNTS = (
    "streaming.ingest.events",
    "streaming.ingest.closed_contacts",
    "streaming.ingest.journal_blocks",
    "streaming.delta.snapshot_runs",
    "reachgraph.index.superseded_blocks",
    "reachgraph.index.num_partitions",
    "storage.overlay.live_blocks",
    "storage.overlay.garbage_blocks",
    "storage.grid.live_blocks",
    "storage.grid.garbage_blocks",
)


def _finish_counts(counts: Dict[str, float], log: _QueryLog) -> Dict[str, float]:
    """Add the query-side counts and the ratios derived from raw counts."""
    counts.update(log.layer_counts())

    def ratio(part: str, *whole: str) -> float:
        total = sum(counts.get(name, 0) for name in whole)
        return counts.get(part, 0) / total if total else 0.0

    hits, misses = (
        "reachgraph.query.partition_cache_hits",
        "reachgraph.query.partition_cache_misses",
    )
    counts["reachgraph.query.partition_cache_hit_ratio"] = ratio(hits, hits, misses)
    for device in ("overlay", "grid"):
        reads = (f"storage.{device}.random_reads", f"storage.{device}.sequential_reads")
        buffered = f"storage.{device}.buffer_hits"
        counts[f"storage.{device}.buffer_hit_ratio"] = ratio(buffered, buffered, *reads)
    negatives = log.negatives()
    counts["reachgraph.labels.reject_ratio"] = (
        counts.get("reachgraph.labels.rejections", 0) / negatives if negatives else 0.0
    )
    return counts


def _directory_bytes(directory: str) -> Tuple[int, int]:
    """(all bytes, manifest bytes) of the device files in ``directory``."""
    total = manifests = 0
    for name in os.listdir(directory):
        size = os.path.getsize(os.path.join(directory, name))
        total += size
        if name.endswith(".manifest"):
            manifests += size
    return total, manifests


def _backend_probe(
    tracer: Tracer, storage_config: StorageConfig, name: str, scratch: str
) -> Dict[str, float]:
    """``storage.backends`` probe: decode every live block, write it elsewhere.

    Reads each block of the closed overlay device through the backend's public
    ``read``, then writes the payloads to a scratch device of the same backend
    and flushes it.  Runs after the timed section, on traced runs only.
    """
    device = StorageSystem(storage_config, name=f"{name}-overlay")
    try:
        blocks = device.disk.num_blocks
        with tracer.span("storage.backends:decode_probe") as decode:
            payloads = [device.disk.read(block) for block in range(blocks)]
    finally:
        device.release()
    copy = StorageSystem(
        StorageConfig(backend=storage_config.backend, storage_dir=scratch),
        name="probe",
        attach=False,
    )
    try:
        with tracer.span("storage.backends:write_probe") as write:
            for payload in payloads:
                copy.disk.allocate(payload)
            copy.disk.flush()
    finally:
        copy.destroy()
    per_block = 1e6 / max(1, blocks)
    return {
        "storage.backends.decode_us_per_block": decode.seconds * per_block,
        "storage.backends.write_us_per_block": write.seconds * per_block,
    }


def _restore_probe(tracer: Tracer, storage_config: StorageConfig, name: str) -> None:
    """``streaming.ingest`` probe: restore the ingestor from its flushed device."""
    with tracer.span("streaming.ingest:restore_probe"):
        ingestor = StreamIngestor.restore(storage_config, name)
    ingestor.storage.release()  # a pure read; a flush would rewrite the manifest


# ----------------------------------------------------------------------
# batch-paper
# ----------------------------------------------------------------------
def _batch_paper(inputs: Inputs, state: Any, tracer: Tracer, directory: str) -> Round:
    spec = inputs.spec
    ops = _Ops()
    log = _QueryLog(ops)
    grid_log = _QueryLog(ops, "grid_query")
    with tracer.span(ROOT_SPAN) as root:
        engine = ReachabilityEngine(
            inputs.dataset, contact_config=spec.contact_config, storage_config=StorageConfig()
        )
        with tracer.span("contacts.join:build") as join:
            network = engine.contact_network
        ops.add("build", join)
        with tracer.span("reachgrid.index:build") as grid_build:
            grid = engine.build_reachgrid(spec.grid_config)
        ops.add("build", grid_build)
        with tracer.span("reachgraph.index:build") as graph_build:
            graph = engine.build_reachgraph()
        ops.add("build", graph_build)
        for ident, tagged in enumerate(inputs.graph_queries):
            log.ask(tracer, lambda q: engine.evaluate(q, "reachgraph"), tagged, ident)
        for ident, tagged in enumerate(inputs.grid_queries):
            grid_log.ask(tracer, lambda q: engine.evaluate(q, "reachgrid"), tagged, ident)

    e2e = {"query_io_mean": log.io_mean(), "grid_query_io_mean": grid_log.io_mean()}

    report = graph.build_report
    labels = graph.labels
    # A label rejection answers "unreachable" before visiting any vertex.
    rejections = sum(
        1
        for _, query, _, result in log.entries
        if not result.reachable and result.visited == 0 and query.source != query.destination
    )
    counts: Dict[str, float] = {
        "contacts.join.contacts": network.num_contacts,
        "reachgrid.index.write_ios": grid.build_report.write_ios,
        "reachgraph.reduction.vertices": report.reduction.dag_vertices,
        "reachgraph.augmentation.long_edges": report.augmentation.total_long_edges,
        "reachgraph.partition.partitions": report.num_partitions,
        "reachgraph.index.records_written": graph.records_written,
        "reachgraph.index.superseded_blocks": graph.superseded_blocks,
        "reachgraph.index.repacks": graph.num_repacks,
        "reachgraph.index.num_partitions": graph.num_partitions,
        "reachgraph.labels.rejections": rejections,
        "reachgraph.labels.frontier_prunes": (
            labels.rejections - rejections if labels is not None else 0
        ),
    }
    log.entries.extend(grid_log.entries)
    _finish_counts(counts, log)

    if tracer.enabled:
        # The ReachGraph build phases, timed by calling them directly.
        with tracer.span("reachgraph.reduction:probe"):
            dag, _ = reduce_contact_network(network)
        with tracer.span("reachgraph.augmentation:probe"):
            hypergraph, _ = augment_dag(dag, graph.config.sorted_resolutions)
        with tracer.span("reachgraph.partition:probe"):
            partition_hypergraph(hypergraph, graph.config.partition_depth)
        with tracer.span("reachgraph.labels:probe"):
            ReachLabelIndex.build(dag, dirty_ratio=graph.config.label_dirty_ratio)

    return ops.finish(
        root,
        events=inputs.events,
        e2e=e2e,
        counts=counts,
        times={},
        answers=log.answers(),
        attempted=3 + len(log.entries),
    )


# ----------------------------------------------------------------------
# streaming helpers
# ----------------------------------------------------------------------
def _instrument(tracer: Tracer, service: StreamingReachabilityService) -> None:
    """Traced runs: span the public calls the service makes on our behalf."""
    tracer.wrap(service, "flush", "streaming.service:flush")
    tracer.wrap(service, "reclaim", "streaming.service:reclaim")
    tracer.wrap(service.ingestor, "flush", "streaming.ingest:flush")
    tracer.wrap(service.overlay.storage, "flush", "storage.overlay:flush")
    tracer.wrap(service.overlay.storage, "reclaim", "storage.overlay:reclaim")
    tracer.wrap(service.ingestor.storage, "flush", "storage.grid:flush")
    tracer.wrap(service.ingestor.storage, "reclaim", "storage.grid:reclaim")


def _new_service(
    inputs: Inputs, config: StreamingConfig, storage_config: StorageConfig, tracer: Tracer
) -> StreamingReachabilityService:
    service = StreamingReachabilityService.for_dataset(
        inputs.dataset,
        contact_config=inputs.spec.contact_config,
        grid_config=inputs.spec.grid_config,
        streaming_config=config,
        storage_config=storage_config,
    )
    # A traced run schedules the three merge phases itself (see _ingest_step).
    service.auto_merge = not tracer.enabled
    _instrument(tracer, service)
    return service


class _IngestLoop:
    """Feeds batches to a service, timing each step as the caller sees it."""

    def __init__(
        self, tracer: Tracer, ops: _Ops, config: StreamingConfig, storage_config: StorageConfig
    ) -> None:
        self.tracer = tracer
        self.ops = ops
        self.storage_config = storage_config
        self.policy = make_policy(config)
        self.events = 0
        self.delta_contacts_max = 0

    def step(self, service: StreamingReachabilityService, batch: Any, ident: int) -> None:
        tracer = self.tracer
        with tracer.span("bench:ingest_step", ident) as step:
            if not tracer.enabled:
                self.events += service.ingest(batch)
            else:
                # What ingest() does with auto_merge on, phase by phase.
                with tracer.span("streaming.ingest:ingest", ident):
                    self.events += service.ingest(batch)
                context = service.merge_context()
                self.delta_contacts_max = max(
                    self.delta_contacts_max, context.delta_contacts
                )
                if (
                    context.watermark is not None
                    and context.watermark != context.snapshot_watermark
                    and self.policy.should_merge(context)
                ):
                    with tracer.span("streaming.service:merge_prepare", ident):
                        merge_inputs = service.prepare_merge()
                    with tracer.span("streaming.service:merge_build", ident):
                        build = build_merge(merge_inputs, self.storage_config)
                    with tracer.span("streaming.service:merge_adopt", ident):
                        service.adopt_merge(build, merge_inputs)
        self.ops.add("ingest", step)


def _write_amp(counts: Dict[str, float], frozen: int) -> float:
    """Records written by merges, compactions and repacks per contact frozen."""
    written = (
        counts["streaming.delta.snapshot_records_written"]
        + counts["reachgraph.index.records_written"]
    )
    return written / frozen


def _bytes_per_contact(counts: Dict[str, float], directory: str, closed: float) -> float:
    """Bytes the closed service left in ``directory`` per closed contact."""
    device_bytes, manifest_bytes = _directory_bytes(directory)
    counts["storage.backends.device_bytes"] = device_bytes
    counts["storage.backends.manifest_bytes"] = manifest_bytes
    return device_bytes / closed


# ----------------------------------------------------------------------
# stream-mixed
# ----------------------------------------------------------------------
def _stream_mixed(inputs: Inputs, state: Any, tracer: Tracer, directory: str) -> Round:
    config = StreamingConfig(batch_ticks=2)
    storage_config = StorageConfig(backend="file", storage_dir=directory)
    ops = _Ops()
    log = _QueryLog(ops)
    loop = _IngestLoop(tracer, ops, config, storage_config)
    with tracer.span(ROOT_SPAN) as root:
        service = _new_service(inputs, config, storage_config, tracer)
        ident = 0
        for index, batch in enumerate(inputs.batches):
            loop.step(service, batch, index)
            for tagged in inputs.stream_queries[index]:
                log.ask(tracer, service.query, tagged, ident)
                ident += 1
        counts = _service_counts(service)
        frozen = service.stats.snapshot_contacts
        with tracer.span("bench:close") as close:
            service.close()
        ops.add("close", close)

    e2e = {"query_io_mean": log.io_mean(), "write_amp": _write_amp(counts, frozen)}
    e2e["device_bytes_per_contact"] = _bytes_per_contact(
        counts, directory, counts["streaming.ingest.closed_contacts"]
    )
    counts["streaming.delta.delta_contacts_max"] = loop.delta_contacts_max
    _finish_counts(counts, log)
    times = log.class_p50s()
    if tracer.enabled:
        times.update(
            _backend_probe(tracer, storage_config, service.name, directory + "-probe")
        )
        _restore_probe(tracer, storage_config, service.name)
    return ops.finish(
        root,
        events=loop.events,
        e2e=e2e,
        counts=counts,
        times=times,
        answers=log.answers(),
        attempted=len(inputs.batches) + len(log.entries) + 1,
    )


# ----------------------------------------------------------------------
# serve-reopen
# ----------------------------------------------------------------------
@dataclass
class _ServeState:
    storage_config: StorageConfig
    name: str
    watermark: int
    closed_contacts: int


def _serve_prepare(inputs: Inputs, directory: str) -> _ServeState:
    """Set-up: drain the stream on the mmap backend, merge, close."""
    storage_config = StorageConfig(backend="mmap", storage_dir=directory)
    service = _new_service(inputs, StreamingConfig(), storage_config, Tracer())
    for batch in inputs.batches:
        service.ingest(batch)
    service.merge()
    state = _ServeState(
        storage_config,
        service.name,
        service.watermark,
        service.ingestor.num_closed_contacts,
    )
    service.close()
    return state


def _serve_reopen(inputs: Inputs, state: _ServeState, tracer: Tracer, directory: str) -> Round:
    ops = _Ops()
    log = _QueryLog(ops)
    first = inputs.serve_queries[0]
    answers: List[Tuple[str, ReachabilityQuery, bool]] = []
    with tracer.span(ROOT_SPAN) as root:
        # Cold reopen to first answer, three times; the last one keeps serving.
        for attempt in range(3):
            with tracer.span("bench:recovery", attempt) as recovery:
                with tracer.span("streaming.service:open", attempt):
                    service = SnapshotQueryService.open(state.storage_config, state.name)
                with tracer.span(f"{_QUERY_LAYER[first[0]]}:query", attempt):
                    answer = service.query(first[1])
            ops.add("recovery", recovery)
            answers.append((first[0], first[1], answer.reachable))
            if attempt < 2:
                service.close()
        for ident, tagged in enumerate(inputs.serve_queries):
            log.ask(tracer, service.query, tagged, ident)
        overlay = service.overlay
        counts: Dict[str, float] = {}
        counts.update(
            {
                "streaming.delta.snapshot_runs": overlay.snapshot_runs,
                "streaming.delta.runs_skipped": overlay.snapshot_runs_skipped,
                "streaming.delta.blocks_skipped": overlay.snapshot_blocks_skipped,
                "streaming.delta.bloom_rejections": overlay.bloom_rejections,
                "reachgraph.labels.rejections": overlay.label_rejections,
                "reachgraph.labels.frontier_prunes": overlay.label_frontier_prunes,
                "reachgraph.query.partition_cache_hits": overlay.partition_cache.hits,
                "reachgraph.query.partition_cache_misses": overlay.partition_cache.misses,
            }
        )
        processor = overlay.snapshot_processor
        if processor is not None:
            counts["reachgraph.index.num_partitions"] = processor.index.num_partitions
        counts.update(_device_counts("overlay", service.storage))
        failed = 0 if service.watermark == state.watermark else 1
        service.close()

    e2e = {"query_io_mean": log.io_mean()}
    e2e["device_bytes_per_contact"] = _bytes_per_contact(
        counts, state.storage_config.storage_dir, state.closed_contacts
    )
    _finish_counts(counts, log)
    times = log.class_p50s()
    if tracer.enabled:
        times.update(
            _backend_probe(tracer, state.storage_config, state.name, directory + "-probe")
        )
        _restore_probe(tracer, state.storage_config, state.name)
    return ops.finish(
        root,
        events=0,
        e2e=e2e,
        counts=counts,
        times=times,
        answers=answers + log.answers(),
        attempted=3 + len(answers) + len(log.entries),
        failed=failed,
    )


# ----------------------------------------------------------------------
# ingest-durable
# ----------------------------------------------------------------------
def _ingest_durable(inputs: Inputs, state: Any, tracer: Tracer, directory: str) -> Round:
    config = StreamingConfig(
        batch_ticks=2,
        max_delta_contacts=128,
        gc_trigger_ratio=0.3,
        graph_repack_min_partitions=4,
    )
    storage_config = StorageConfig(backend="file", storage_dir=directory)
    batches = inputs.batches
    # Kill at ~90 % of the stream, six batches past the last flush.
    kill_at = int(0.9 * len(batches)) // _FLUSH_EVERY * _FLUSH_EVERY + 6
    kill_at = min(kill_at, len(batches) - 1)
    first = inputs.serve_queries[0]
    ops = _Ops()
    log = _QueryLog(ops)
    loop = _IngestLoop(tracer, ops, config, storage_config)
    failed = 0

    def flush(service: StreamingReachabilityService, ident: int) -> None:
        with tracer.span("bench:flush", ident) as span:
            service.flush()
        ops.add("flush", span)

    with tracer.span(ROOT_SPAN) as root:
        service = _new_service(inputs, config, storage_config, tracer)
        flushed_watermark = None
        for index, batch in enumerate(batches[:kill_at]):
            loop.step(service, batch, index)
            if (index + 1) % _FLUSH_EVERY == 0:
                flush(service, index)
                flushed_watermark = service.watermark
        killed = _service_counts(service)
        simulate_kill(service.overlay.storage, service.ingestor.storage)

        # Full resume from only the flushed bytes, to the first answer.
        with tracer.span("bench:recovery") as recovery:
            with tracer.span("streaming.service:open"):
                service = StreamingReachabilityService.open(
                    storage_config,
                    name=service.name,
                    streaming_config=config,
                    auto_merge=not tracer.enabled,
                )
            _instrument(tracer, service)
            with tracer.span(f"{_QUERY_LAYER[first[0]]}:query"):
                service.query(first[1])
        ops.add("recovery", recovery)
        recovered = service.watermark
        if recovered is None or flushed_watermark is None or recovered < flushed_watermark:
            failed += 1  # a flushed batch did not survive the kill

        # Re-ingest the lost tail and the rest of the stream.
        resumed = [
            (index, batch)
            for index, batch in enumerate(batches)
            if recovered is None or batch.watermark > recovered
        ]
        for index, batch in resumed:
            loop.step(service, batch, index)
            if (index + 1) % _FLUSH_EVERY == 0:
                flush(service, index)
        flush(service, len(batches))
        for ident, tagged in enumerate(inputs.serve_queries):
            log.ask(tracer, service.query, tagged, ident)
        counts = _service_counts(service)
        frozen = service.stats.snapshot_contacts
        final_watermark = service.watermark
        with tracer.span("bench:close") as close:
            service.close()
        ops.add("close", close)

    if final_watermark != batches[-1].watermark:
        failed += 1
    for name, value in killed.items():
        if name not in _STATE_COUNTS:
            counts[name] += value
    e2e = {"query_io_mean": log.io_mean(), "write_amp": _write_amp(counts, frozen)}
    e2e["device_bytes_per_contact"] = _bytes_per_contact(
        counts, directory, counts["streaming.ingest.closed_contacts"]
    )
    counts["streaming.delta.delta_contacts_max"] = loop.delta_contacts_max
    _finish_counts(counts, log)
    times = log.class_p50s()
    if tracer.enabled:
        times.update(
            _backend_probe(tracer, storage_config, service.name, directory + "-probe")
        )
        _restore_probe(tracer, storage_config, service.name)
    return ops.finish(
        root,
        events=loop.events,
        e2e=e2e,
        counts=counts,
        times=times,
        answers=log.answers(),
        attempted=ops.count("ingest", "flush") + 2 + len(log.entries) + 1,
        failed=failed,
    )


WORKLOADS: Dict[str, Workload] = {
    "batch-paper": Workload(run=_batch_paper),
    "stream-mixed": Workload(run=_stream_mixed),
    "serve-reopen": Workload(run=_serve_reopen, prepare=_serve_prepare),
    "ingest-durable": Workload(run=_ingest_durable),
}


def run_round(
    workload: Workload, inputs: Inputs, state: Any, traced: bool, directory: str
) -> Round:
    """One round in a fresh storage directory, removed afterwards even on failure."""
    tracer = Tracer(enabled=traced)
    os.makedirs(directory, exist_ok=True)
    # The cyclic collector runs between rounds, not inside them (as ``timeit``
    # does): a full collection walks every live object, the harness's dataset
    # and oracle included, and lands its 50-100 ms on whichever operation
    # happens to allocate next, which differs from one query sample to another.
    gc.collect()
    gc.disable()
    try:
        result = workload.run(inputs, state, tracer, directory)
    finally:
        gc.enable()
        shutil.rmtree(directory, ignore_errors=True)
        shutil.rmtree(directory + "-probe", ignore_errors=True)
    result.records = tracer.records
    return result


def check_answers(inputs: Inputs, result: Round) -> int:
    """Wrong answers of a round against the reference evaluator (not timed)."""
    wrong = 0
    for kind, query, reachable in result.answers:
        expected = inputs.oracle.reachable(query)
        if kind == "unknown" and (reachable or expected):
            wrong += 1  # an endpoint never seen must be unreachable
        elif reachable != expected:
            wrong += 1
    return wrong
