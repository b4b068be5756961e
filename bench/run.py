#!/usr/bin/env python3
"""The repo's benchmark.  Two ways to run it, both from the repository root.

One workload, one process (what the driver calls; the last line of standard
output is one JSON object)::

    python3 bench/run.py --workload stream-mixed --seed 7 --seconds 15 --trace 0

Everything (every workload, ``--repeats`` times, interleaved, each run in its
own process; prints every metric by name with its unit and writes
``bench/out/result-seed<seed>.json`` for ``bench/compare.py``)::

    python3 bench/run.py --seed 7 [--repeats 3] [--traced] [--smoke]

See ``bench/README.md`` for the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# The library is used from source; the benchmark installs nothing.
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

#: End-to-end metrics defined on some workloads only.  The driver requires
#: every ``end_to_end`` metric of BENCHMARK.json on every workload, so these
#: are listed there under ``per_layer`` as ``section.<name>`` (0 where a
#: workload does not define them); the full run prints them beside the rest.
SECTION_PREFIX = "section."


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_line(report: Dict[str, Any], contract: Dict[str, Any]) -> Dict[str, Any]:
    """The one JSON object the driver reads: the metrics BENCHMARK.json names."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if not report["traced"]:
        for spec in contract["end_to_end"]:
            metrics[spec["name"]] = {"value": report["e2e"][spec["name"]], "unit": spec["unit"]}
    else:
        for spec in contract["per_layer"]:
            name = spec["name"]
            if name.startswith(SECTION_PREFIX):
                value = report["e2e"].get(name[len(SECTION_PREFIX):], 0.0)
            else:
                value = report["layers"].get(name, 0.0)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process."""
    from reachbench.inputs import FULL, SMOKE
    from reachbench.runner import measure

    contract = load_contract()
    scratch = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{os.getpid()}")
    trace_path = None
    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
    report = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        SMOKE if args.smoke else FULL,
        scratch,
        trace_path,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    print(
        f"# {args.workload} seed={args.seed} rounds={report['rounds']} "
        f"wall={report['wall_s']:.1f}s failed={report['failed']}/{report['attempted']}"
    )
    print(json.dumps(result_line(report, contract)))
    return 0 if report["failed"] == 0 else 1


# ----------------------------------------------------------------------
# the full run
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(args: argparse.Namespace, workload: str, traced: bool, seconds: float) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    report_path = os.path.join(OUT_DIR, f"report-{os.getpid()}.json")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
        "--report", report_path,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if not os.path.exists(report_path):
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{workload}: run failed with exit code {done.returncode}")
        with open(report_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        if os.path.exists(report_path):
            os.remove(report_path)


def _units(contract: Dict[str, Any]) -> Dict[str, str]:
    units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"]}
    for spec in contract["per_layer"]:
        name = spec["name"]
        units[name] = spec["unit"]
        if name.startswith(SECTION_PREFIX):
            units[name[len(SECTION_PREFIX):]] = spec["unit"]
    return units


def run_all(args: argparse.Namespace) -> int:
    """Every workload, ``--repeats`` times, interleaved A,B,C,D,A,..."""
    began = time.perf_counter()
    contract = load_contract()
    units = _units(contract)
    names = [spec["name"] for spec in contract["workloads"]]
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    for repeat in range(args.repeats):
        for name in names:
            report = _child(args, name, False, seconds)
            runs[name].append(report)
            print(
                f"# repeat {repeat + 1}/{args.repeats} {name}: {report['rounds']} rounds, "
                f"{report['wall_s']:.1f} s, failed {report['failed']}/{report['attempted']}",
                flush=True,
            )
    if args.traced:
        for name in names:
            traced[name] = _child(args, name, True, seconds)
            print(f"# traced {name}: {traced[name]['wall_s']:.1f} s", flush=True)

    result: Dict[str, Any] = {
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
        "smoke": args.smoke,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    failed = 0
    for name in names:
        reports = runs[name]
        attempted = sum(report["attempted"] for report in reports)
        wrong = sum(report["failed"] for report in reports)
        if name in traced:
            wrong += traced[name]["failed"]
            attempted += traced[name]["attempted"]
        failed += wrong
        values = {
            metric: [report["e2e"][metric] for report in reports]
            for metric in reports[0]["e2e"]
        }
        values["failed_share"] = [report["failed"] / report["attempted"] for report in reports]
        entry: Dict[str, Any] = {
            "wall_s": sum(report["wall_s"] for report in reports),
            "attempted": attempted,
            "failed": wrong,
            "end_to_end": {
                metric: {"median": statistics.median(samples), "repeats": samples}
                for metric, samples in values.items()
            },
        }
        print(f"\n== {name}  (median of {args.repeats} runs)")
        for metric in sorted(values):
            unit = units.get(metric, "share")
            print(f"  {metric:<28} {entry['end_to_end'][metric]['median']:>14.4f} {unit}")
        if name in traced:
            layers = traced[name]["layers"]
            entry["per_layer"] = layers
            entry["traced_wall_s"] = traced[name]["wall_s"]
            print(f"  -- per layer (traced run, {traced[name]['rounds']} rounds)")
            for metric in sorted(layers):
                if layers[metric]:
                    print(f"  {metric:<44} {layers[metric]:>14.4f} {units.get(metric, '')}")
        result["workloads"][name] = entry
    result["wall_s"] = time.perf_counter() - began
    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.output or os.path.join(OUT_DIR, f"result-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"\n# wrote {os.path.relpath(path, ROOT)}; whole run {result['wall_s']:.1f} s")
    if failed:
        print(f"# FAILED: {failed} wrong, raised or refused operations")
    return 1 if failed else 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="40 objects x 200 ticks")
    parser.add_argument("--report", help="(one workload) also write the full report here")
    parser.add_argument("--repeats", type=int, default=3, help="(full run) runs per workload")
    parser.add_argument("--traced", action="store_true", help="(full run) add a traced pass")
    parser.add_argument("--output", help="(full run) result path")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # e.g. a directory holding only BENCHMARK.json and bench/
        sys.exit("bench/run.py: src/repro not found; run it from a full checkout")
    names = [spec["name"] for spec in load_contract()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose one of {names}")
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
