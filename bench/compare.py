#!/usr/bin/env python3
"""Compare two full-run results of ``bench/run.py``::

    python3 bench/compare.py bench/out/parent.json bench/out/change.json

Prints one row per (workload, end-to-end metric): both medians, the relative
difference, the metric's bound and a verdict.

* ``same``: the medians differ by no more than the bound;
* ``better`` / ``worse``: they differ by more, in that direction;
* ``unresolved``: the spread across one side's repeats is wider than the
  bound, so the difference cannot be told from noise -- unless every run of B
  lies on one side of every run of A, which settles it.

Exits non-zero on any ``worse`` and on any change in ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Bounds of the end-to-end metrics that only some workloads define (in
#: BENCHMARK.json they sit under ``per_layer`` as ``section.<name>``, which
#: carries no bound).
SECTION_BOUNDS = {
    "query_p95_ms": 0.25,
    "build_s": 0.15,
    "grid_query_p50_ms": 0.25,
    "grid_query_io_mean": 0.10,
    "ingest_events_per_s": 0.20,
    "ingest_stall_p95_ms": 0.25,
    "flush_p50_ms": 0.25,
    "recovery_s": 0.25,
    "device_bytes_per_contact": 0.10,
    "write_amp": 0.10,
}

#: Counts the program makes: with one client and no timers they repeat
#: exactly, so between two results of the same seed any difference is real.
EXACT = (
    "query_io_mean",
    "grid_query_io_mean",
    "write_amp",
    "device_bytes_per_contact",
)


def _metric_table() -> Dict[str, Tuple[str, float]]:
    """name -> (better, bound) for every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    table = {
        spec["name"]: (spec["better"], spec["bound"]) for spec in contract["end_to_end"]
    }
    for spec in contract["per_layer"]:
        name = spec["name"].removeprefix("section.")
        if name in SECTION_BOUNDS:
            table[name] = (spec["better"], SECTION_BOUNDS[name])
    return table


def _spread(samples: List[float], median: float) -> float:
    return (max(samples) - min(samples)) / abs(median) if median else 0.0


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[float, str]:
    """(relative difference of B against A, verdict)."""
    med_a, med_b = a["median"], b["median"]
    if med_a == med_b:
        return 0.0, "same"
    relative = (med_b - med_a) / abs(med_a) if med_a else float("inf")
    worse_by = relative if better == "lower" else -relative
    if abs(worse_by) <= bound:
        direction = "same"
    else:
        direction = "worse" if worse_by > 0 else "better"
    noisy = max(_spread(a["repeats"], med_a), _spread(b["repeats"], med_b)) > bound
    if noisy:
        runs_a, runs_b = a["repeats"], b["repeats"]
        apart = max(runs_b) < min(runs_a) or min(runs_b) > max(runs_a)
        if direction == "same" or not apart:
            return relative, "unresolved"
    return relative, direction


def compare(result_a: Dict[str, Any], result_b: Dict[str, Any]) -> int:
    table = _metric_table()
    same_seed = result_a["seed"] == result_b["seed"]
    bad = 0
    print(
        f"{'workload':<15} {'metric':<26} {'A':>14} {'B':>14} {'diff':>9} {'bound':>6}  verdict"
    )
    for workload, entry_a in result_a["workloads"].items():
        entry_b = result_b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload:<15} missing from B")
            bad += 1
            continue
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"].get(metric)
            if b is None:
                continue
            if metric == "failed_share":
                changed = a["median"] != b["median"] or a["repeats"] != b["repeats"]
                word = "CHANGED" if changed else "same"
                bad += changed
                print(
                    f"{workload:<15} {metric:<26} {a['median']:>14.6f} {b['median']:>14.6f} "
                    f"{'':>9} {'0':>6}  {word}"
                )
                continue
            better, bound = table[metric]
            if same_seed and metric in EXACT:
                bound = 0.0
            relative, word = verdict(a, b, better, bound)
            bad += word == "worse"
            print(
                f"{workload:<15} {metric:<26} {a['median']:>14.4f} {b['median']:>14.4f} "
                f"{relative:>+9.2%} {bound:>6.2f}  {word}"
            )
    print("# any worse or failed_share change: " + ("YES" if bad else "no"))
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    return compare(*results)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
