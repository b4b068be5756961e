"""Tests for the benchmark regression gate and the CLI plumbing.

``benchmarks/check_regression.py`` is CI's last line of defense against
performance regressions; these tests pin its contract: distillation of full
pytest-benchmark documents, the >threshold failure, the missing-benchmark
failure, tolerance of new benchmarks, and ``--normalize`` cancelling a
uniform machine-speed factor while still catching relative regressions.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import _STORAGE_BACKEND_KWARGS, build_parser, main
from repro.experiments.figures import EXPERIMENTS


def _load_checker():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def write_json(tmp_path: Path, name: str, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def full_document(medians):
    """A minimal pytest-benchmark ``--benchmark-json`` document."""
    return {
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }


class TestLoadMedians:
    def test_distills_full_benchmark_document(self, tmp_path):
        path = write_json(tmp_path, "full.json", full_document({"a": 1.5, "b": 0.25}))
        assert checker.load_medians(path) == {"a": 1.5, "b": 0.25}

    def test_accepts_distilled_baseline(self, tmp_path):
        path = write_json(tmp_path, "base.json", {"a": 1.5})
        assert checker.load_medians(path) == {"a": 1.5}

    def test_rejects_garbage(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"a": "fast"})
        with pytest.raises(SystemExit):
            checker.load_medians(path)


class TestGate:
    def run(self, tmp_path, fresh, baseline, *extra):
        fresh_path = write_json(tmp_path, "fresh.json", full_document(fresh))
        base_path = write_json(tmp_path, "base.json", baseline)
        return checker.main([str(fresh_path), "--baseline", str(base_path), *extra])

    def test_within_threshold_passes(self, tmp_path):
        assert self.run(tmp_path, {"a": 1.2, "b": 1.0}, {"a": 1.0, "b": 1.0}) == 0

    def test_slowdown_past_threshold_fails(self, tmp_path):
        assert self.run(tmp_path, {"a": 1.4, "b": 1.0}, {"a": 1.0, "b": 1.0}) == 1

    def test_custom_threshold(self, tmp_path):
        assert (
            self.run(tmp_path, {"a": 1.4}, {"a": 1.0}, "--threshold", "0.5") == 0
        )

    def test_missing_benchmark_fails(self, tmp_path):
        assert self.run(tmp_path, {"a": 1.0}, {"a": 1.0, "gone": 1.0}) == 1

    def test_new_benchmark_is_reported_not_gated(self, tmp_path):
        assert self.run(tmp_path, {"a": 1.0, "new": 9.0}, {"a": 1.0}) == 0

    def test_normalize_cancels_uniform_machine_factor(self, tmp_path):
        # Everything 2x slower: raw gating fails, normalized gating passes.
        fresh = {"a": 2.0, "b": 2.0, "c": 2.0}
        base = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert self.run(tmp_path, fresh, base) == 1
        assert self.run(tmp_path, fresh, base, "--normalize") == 0

    def test_normalize_still_catches_relative_regression(self, tmp_path):
        # One benchmark 4x slower against a 2x-slower machine: still a fail.
        fresh = {"a": 2.0, "b": 2.0, "c": 8.0}
        base = {"a": 1.0, "b": 1.0, "c": 2.0}
        assert self.run(tmp_path, fresh, base, "--normalize") == 1

    def test_normalize_does_not_dilute_a_single_regression(self, tmp_path):
        # Median factor: a 45% regression in one of three benchmarks must
        # fail even though it would drag a mean-based machine factor up to
        # 1.13x (which would have adjusted it under the 30% threshold).
        fresh = {"a": 1.45, "b": 1.0, "c": 1.0}
        base = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert self.run(tmp_path, fresh, base, "--normalize") == 1

    def test_normalize_speedup_does_not_poison_other_benchmarks(self, tmp_path):
        # A legitimate 2x optimization of one benchmark must not drag the
        # machine factor down and flag the untouched benchmarks as slower.
        fresh = {"a": 0.5, "b": 1.0, "c": 1.0}
        base = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert self.run(tmp_path, fresh, base, "--normalize") == 0

    def test_normalize_machine_factor_cap_catches_broad_regression(self, tmp_path):
        # All benchmarks share the streaming hot path, so a regression there
        # shifts every ratio uniformly; past the cap the gate must fail
        # rather than absorb it as "a slower machine".
        fresh = {"a": 2.5, "b": 2.5, "c": 2.5}
        base = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert self.run(tmp_path, fresh, base, "--normalize") == 1
        assert (
            self.run(
                tmp_path, fresh, base, "--normalize", "--max-machine-factor", "3.0"
            )
            == 0
        )

    def test_update_writes_distilled_baseline(self, tmp_path):
        fresh_path = write_json(tmp_path, "fresh.json", full_document({"a": 1.5}))
        base_path = tmp_path / "base.json"
        assert (
            checker.main(
                [str(fresh_path), "--baseline", str(base_path), "--update"]
            )
            == 0
        )
        assert json.loads(base_path.read_text()) == {"a": 1.5}
        # An update round-trips: gating the same fresh run passes.
        assert checker.main([str(fresh_path), "--baseline", str(base_path)]) == 0

    def test_committed_baseline_covers_streaming_benchmarks(self):
        baseline = checker.load_medians(checker.DEFAULT_BASELINE)
        assert set(baseline) == {
            "test_streaming_ingest_and_query",
            "test_storage_backend_comparison",
            "test_space_reclamation",
            "test_query_latency",
        }


class TestCliPlumbing:
    def test_removed_service_shape_flags_are_rejected(self):
        # One service shape: the flags that picked shards, concurrent async
        # queries, merge executors or a sharded reopen fail loudly.
        for flags in (
            ["stream", "--shards", "2"],
            ["stream-async", "--concurrency", "8"],
            ["stream", "--merge-executor", "process"],
            ["stream", "--merge-workers", "2"],
            ["recover", "--storage-dir", ".", "--sharded"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(flags)
        for name in ("stream-sharded", "stream-async", "stream-parallel"):
            assert name not in EXPERIMENTS

    def test_graph_mode_flag_and_stream_graph_are_rejected(self):
        # Merges have one shape: the flag that picked a rebuild per merge and
        # the experiment comparing the two fail loudly instead of being ignored.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--graph-mode", "rebuild"])
        with pytest.raises(SystemExit):
            main(["stream-graph"])
        assert "stream-graph" not in EXPERIMENTS

    def test_injection_tables_reference_known_experiments(self):
        assert set(_STORAGE_BACKEND_KWARGS) <= set(EXPERIMENTS)
