"""Smoke test of the benchmark itself (collected by tier-1, runs in seconds).

At ``--smoke`` size (40 objects x 200 ticks) it checks that all four workloads
run and answer correctly, that every metric BENCHMARK.json names comes out
with its unit, that two runs of one seed give bit-identical count metrics, and
that another seed changes the generated queries.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [spec["name"] for spec in CONTRACT["workloads"]]

#: Units of metrics that are timings (or shares of a timing); everything else
#: is a count the program makes and must repeat exactly.
TIMING_UNITS = {"s", "ms", "us", "share", "MiB", "events/s"}


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, nth: int = 0) -> dict:
    """The ``nth`` driver-style run of these arguments; its last line, parsed."""
    command = CONTRACT["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--smoke",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in TIMING_UNITS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_and_repeats_exactly(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        first = run(workload, 7, trace)
        second = run(workload, 7, trace, nth=1)
        assert set(first) == {"correct", "attempted", "failed", "metrics"}
        assert first["correct"] is True and first["failed"] == 0
        assert first["attempted"] >= 1
        expected = {spec["name"]: spec["unit"] for spec in CONTRACT[group]}
        assert {n: m["unit"] for n, m in first["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in first["metrics"].values())
        if trace == 0:
            assert all(m["value"] > 0 for m in first["metrics"].values())
        assert exact(first) and exact(first) == exact(second)


def test_every_layer_metric_is_live_on_some_workload():
    """A per-layer name no workload ever fills would be dead weight."""
    live = set()
    for workload in WORKLOADS:
        result = run(workload, 7, 1)
        live |= {name for name, metric in result["metrics"].items() if metric["value"]}
    quiet = {
        # At this size every unknown-endpoint query is rejected by the Bloom
        # filters before any block is read.
        "query.unknown.io_mean",
        # The smoke stream is too short for a leveled compaction, and on these
        # append-only streams every merge relabels in full, at any size.
        "streaming.delta.compactions",
        "reachgraph.labels.relabels",
    }
    missing = {spec["name"] for spec in CONTRACT["per_layer"]} - live - quiet
    assert not missing, sorted(missing)


def test_seed_changes_the_generated_queries():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    try:
        from reachbench.inputs import SMOKE, make_inputs
    finally:
        sys.path.remove(BENCH_DIR)
        sys.path.remove(os.path.join(ROOT, "src"))
    for workload in WORKLOADS:
        def generated(seed):
            inputs = make_inputs(workload, seed, SMOKE)
            return (
                inputs.graph_queries, inputs.grid_queries,
                inputs.stream_queries, inputs.serve_queries,
            )  # fmt: skip
        assert generated(7) == generated(7)
        assert generated(7) != generated(8)
