"""Benchmark: Table 4 — average long-edge degree per resolution."""

from __future__ import annotations

from repro.experiments.figures import table4_average_degree

from conftest import run_experiment


#: Long edges per resolution (2, 4, 8, 16, 32), captured before augmentation
#: became a per-window sweep (ISSUE 19): the build may get faster, never different.
LONG_EDGES = {
    "rwp-small": [22391, 21405, 21367, 24581, 39626],
    "vn-small": [7431, 6954, 6752, 7507, 9131],
    "vnr": [3862, 3603, 3374, 3469, 3865],
}


def test_table4_average_degree(benchmark):
    result = run_experiment(
        benchmark,
        table4_average_degree,
        dataset_names=("rwp-small", "vn-small", "vnr"),
        resolutions=(2, 4, 8, 16, 32),
    )
    # Degree grows with resolution for every dataset (Table 4's trend).
    for name in ("rwp-small", "vn-small", "vnr"):
        degrees = [row["average_degree"] for row in result.rows if row["dataset"] == name]
        assert degrees[0] <= degrees[-1]
        long_edges = [row["long_edges"] for row in result.rows if row["dataset"] == name]
        assert long_edges == LONG_EDGES[name]
