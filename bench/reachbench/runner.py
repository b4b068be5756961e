"""Runs one workload for a number of seconds and reduces its rounds to metrics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from typing import Any, Dict, List, Tuple

from . import trace
from .hostspeed import NEIGHBOURS, HostSpeed
from .inputs import Scale, make_inputs, with_queries
from .workloads import ROOT_SPAN, WORKLOADS, Round, check_answers, run_round, timings

__all__ = ["measure"]

#: Set-up is repeated so that ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3

#: Query samples a run cycles through: round ``i`` asks sample ``i % SAMPLES``.
#: One sample of 600 queries moves IOs per query by up to 12 % from seed to
#: seed; an untraced run makes at least this many rounds and reports counts as
#: means over all the samples.  More samples would cost more of the run's
#: time in the reference evaluator, which checks every distinct query once.
SAMPLES = 6

#: Layer time metrics and the span each one sums (traced rounds).
_SPAN_METRICS = {
    "contacts.join.busy_s": "contacts.join:build",
    "reachgrid.index.build_s": "reachgrid.index:build",
    "reachgrid.query.busy_s": "reachgrid.query:query",
    "reachgraph.index.build_s": "reachgraph.index:build",
    "reachgraph.reduction.busy_s": "reachgraph.reduction:probe",
    "reachgraph.augmentation.busy_s": "reachgraph.augmentation:probe",
    "reachgraph.partition.busy_s": "reachgraph.partition:probe",
    "reachgraph.labels.build_s": "reachgraph.labels:probe",
    "reachgraph.query.busy_s": "reachgraph.query:query",
    "streaming.ingest.busy_s": "streaming.ingest:ingest",
    "streaming.ingest.flush_s": "streaming.ingest:flush",
    "streaming.ingest.restore_s": "streaming.ingest:restore_probe",
    "streaming.service.merge_prepare_s": "streaming.service:merge_prepare",
    "streaming.service.merge_build_s": "streaming.service:merge_build",
    "streaming.service.merge_adopt_s": "streaming.service:merge_adopt",
    "streaming.service.flush_s": "streaming.service:flush",
    "streaming.service.reclaim_s": "streaming.service:reclaim",
    "streaming.service.open_s": "streaming.service:open",
    "storage.overlay.flush_s": "storage.overlay:flush",
    "storage.grid.flush_s": "storage.grid:flush",
}

#: Layers whose share of the timed section is reported (``<layer>.share``).
_SHARE_LAYERS = (
    "contacts.join",
    "reachgrid.index",
    "reachgrid.query",
    "reachgraph.index",
    "reachgraph.query",
    "streaming.ingest",
    "streaming.service",
    "streaming.delta",
    "storage.overlay",
    "storage.grid",
)


def _layer_times(result: Round) -> Dict[str, float]:
    """Span sums, self-time shares and the attributed share of one traced round."""
    records = result.records
    values = {
        metric: trace.busy_seconds(records, span) for metric, span in _SPAN_METRICS.items()
    }
    selves = trace.self_seconds_by_layer(records, ROOT_SPAN)
    for layer in _SHARE_LAYERS:
        values[f"{layer}.share"] = selves.get(layer, 0.0) / result.wall_s
    attributed = sum(seconds for layer, seconds in selves.items() if layer != "bench")
    values["trace.attributed_share"] = attributed / result.wall_s
    values["trace.round_s"] = result.wall_s
    return values


def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """One value per name for a run: the median over its rounds."""
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: Scale,
    scratch: str,
    trace_path: str | None = None,
) -> Dict[str, Any]:
    """Set up ``workload_name`` from ``seed``, run rounds for ``seconds``, check, reduce.

    ``scratch`` is a directory of this run's own, removed before returning.
    An untraced run makes at least ``SAMPLES`` rounds; its timings are medians
    over all rounds and its counts means over the first ``SAMPLES``, so they
    depend on the seed alone.  A traced run asks every sample twice, untraced
    then traced, so that the tracing overhead is measured within the run; its
    per-layer times are medians over the traced rounds, its end-to-end timings
    medians over the untraced ones, and its counts those of sample 0.
    """
    began = time.perf_counter()
    workload = WORKLOADS[workload_name]
    try:
        # Set-up, timed like an operation of a round: the host-speed kernel
        # runs before and after each repeat.
        speed = HostSpeed(every_s=0.0)
        spans: List[Tuple[float, float]] = []
        state = None
        for repeat in range(SETUP_REPEATS):
            for _ in range(NEIGHBOURS):
                speed.tick()
            started = time.perf_counter()
            inputs = make_inputs(workload_name, seed, scale)
            if workload.prepare is not None:
                directory = os.path.join(scratch, f"setup-{repeat}")
                state = workload.prepare(inputs, directory)
            spans.append((started, time.perf_counter()))
            if repeat + 1 < SETUP_REPEATS:
                shutil.rmtree(os.path.join(scratch, f"setup-{repeat}"), ignore_errors=True)
        for _ in range(NEIGHBOURS):
            speed.tick()
        setups = speed.corrected(spans)

        plain: List[Round] = []
        spanned: List[Round] = []
        started = time.perf_counter()
        while True:
            index = len(plain) + len(spanned)
            mode = traced and index % 2 == 1
            sample = (index // 2 if traced else index) % SAMPLES
            directory = os.path.join(scratch, f"round-{index}")
            result = run_round(workload, with_queries(inputs, sample), state, mode, directory)
            (spanned if mode else plain).append(result)
            enough = index + 1 >= (2 if traced else SAMPLES)
            if enough and time.perf_counter() - started >= seconds:
                break

        # Correctness, outside the timed sections: the first round of every
        # sample against the reference evaluator, the others against that one
        # (spanned[i] of a traced run asks what plain[i] asked).
        failed = sum(result.failed for result in plain + spanned)
        for index, result in enumerate(plain):
            if index < SAMPLES:
                failed += check_answers(inputs, result)
            elif result.answers != plain[index % SAMPLES].answers:
                failed += 1
        failed += sum(1 for mine, twin in zip(spanned, plain) if mine.answers != twin.answers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rows = [timings(result.ops, result.events) for result in plain]
    exact = plain[: 1 if traced else SAMPLES]
    e2e = _medians(rows)
    for name in exact[0].e2e:
        e2e[name] = statistics.fmean(result.e2e[name] for result in exact)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "rounds": len(plain) + len(spanned),
        "wall_s": 0.0,
        "attempted": sum(result.attempted for result in plain + spanned),
        "failed": failed,
        "e2e": e2e,
    }
    if traced:
        layers = dict(
            spanned[0].counts,
            **_medians([dict(_layer_times(result), **result.times) for result in spanned]),
        )
        layers["trace.overhead_share"] = (
            statistics.median(
                timings(result.ops, result.events)["round_s"] for result in spanned
            )
            / e2e["round_s"]
            - 1.0
        )
        # What the host-speed correction did to this run's untraced rounds.
        layers["host.kernel_ms"] = statistics.median(r.kernel_s for r in plain) * 1e3
        layers["host.round_raw_s"] = statistics.median(r.raw_round_s for r in plain)
        report["layers"] = layers
        if trace_path is not None:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            trace.dump(
                trace_path,
                {"workload": workload_name, "seed": seed, "root": ROOT_SPAN},
                [result.records for result in spanned],
            )
    report["wall_s"] = time.perf_counter() - began
    return report
