"""Benchmark: streaming ingestion vs post-merge querying, backends, GC, queries.

Replays a canned dataset through the streaming service and reports ingest
throughput (events/sec) plus per-query IO in the two regimes the delta
overlay creates: queries answered while the delta is live versus queries
answered after a merge folded everything into the frozen ReachGraph.  The
other benchmarks drain the same stream per storage backend, with space
reclamation armed, and through the query fast path's layers.

The committed ``BENCH_streaming.json`` pins the expected medians of this
module; CI reruns it with ``--benchmark-json`` and
``benchmarks/check_regression.py`` fails the build on a >30% per-benchmark
median slowdown.
"""

from __future__ import annotations

from repro.streaming.experiment import (
    disk_backend_replay,
    query_latency_replay,
    space_replay,
    stream_replay,
)

from conftest import run_experiment


def test_streaming_ingest_and_query(benchmark):
    result = run_experiment(
        benchmark,
        stream_replay,
        dataset_names=("rwp-small",),
        batch_ticks=8,
        num_queries=12,
    )
    row = result.rows[0]
    assert row["events"] > 0
    assert row["ingest_events_per_sec"] > 0
    assert row["premerge_mean_io"] > 0
    assert row["postmerge_mean_io"] > 0
    # Streaming must agree with the batch reference evaluator in both regimes.
    assert row["premerge_matches"] == "12/12"
    assert row["postmerge_matches"] == "12/12"


def test_storage_backend_comparison(benchmark):
    """The ``stream-disk`` benchmark: sim vs file vs mmap on one stream.

    Every backend drains the identical replayed stream behind the same
    ``StorageSystem`` interface, so the IO columns are directly comparable;
    the persistent rows additionally close, reopen, and re-answer the
    workload from the backing files.
    """
    result = run_experiment(
        benchmark,
        disk_backend_replay,
        dataset_names=("rwp-small",),
        backends=("sim", "file", "mmap"),
        batch_ticks=8,
        num_queries=12,
    )
    assert [row["backend"] for row in result.rows] == ["sim", "file", "mmap"]
    by_backend = {row["backend"]: row for row in result.rows}
    ios = {row["backend"]: row["mean_query_io"] for row in result.rows}
    # Normalized IO is a property of layout + access pattern, not of the
    # device implementation: all three backends must charge identically.
    assert len(set(ios.values())) == 1, ios
    for row in result.rows:
        assert row["ingest_events_per_sec"] > 0
        assert row["matches"] == "12/12"
    assert by_backend["sim"]["reopen_matches"] == "n/a"
    for backend in ("file", "mmap"):
        assert by_backend[backend]["reopen_matches"] == "12/12"


def test_space_reclamation(benchmark):
    """The ``stream-space`` benchmark: GC cost and the live/device bound.

    Drains one multi-merge stream per backend with the full reclamation
    pipeline armed — leveled compaction, frontier repacks, WAL truncation,
    and policy-triggered copy-forward GC — then runs one explicit reclaim.
    The rows must show the space contract: policy GC actually fired during
    the drain, the device footprint converged onto the live block set
    (device_over_live within the 1.5x acceptance bound), the WAL is empty
    after the final flush, and answers still match the batch reference.
    The benchmark median is the cost of the whole drain *including* its GC
    passes, so a reclamation slowdown trips the regression gate.
    """
    result = run_experiment(
        benchmark,
        space_replay,
        dataset_names=("rwp-small",),
        backends=("sim", "file", "mmap"),
        batch_ticks=8,
        num_queries=12,
        gc_trigger_ratio=0.35,
        max_delta_contacts=96,
    )
    assert [row["backend"] for row in result.rows] == ["sim", "file", "mmap"]
    for row in result.rows:
        assert row["merges"] > 3, "the workload must force a multi-merge stream"
        assert row["reclaims"] > 0, "policy GC must fire during the drain"
        assert row["reclaimed_blocks"] > 0
        assert row["live_blocks"] > 0
        assert row["device_blocks"] <= 1.5 * row["live_blocks"], row
        assert row["journal_blocks"] == 0, "flush must truncate the WAL"
        assert row["matches"] == "12/12"
    # The layout is backend-independent, so the post-GC footprint is too.
    assert len({row["device_blocks"] for row in result.rows}) == 1


def test_query_latency(benchmark):
    """The ``stream-query`` benchmark: the query fast path's three layers.

    Runs positive- and negative-heavy mixes with the interval labels on and
    off, each as a cold-cache pass followed by a warm-cache repeat.  The
    acceptance bar of the fast-path issue: on the negative-heavy mix the
    labels must *measurably* beat the traversal-only configuration (fewer
    vertices visited, no more IO), the Bloom/zone-map layer must skip work
    (rejections and the probe's skipped blocks), the partition cache must
    show hits — and no layer may ever change an answer.
    """
    result = run_experiment(
        benchmark,
        query_latency_replay,
        dataset_names=("rwp-small",),
        batch_ticks=8,
        num_queries=24,
        max_delta_contacts=64,
    )
    by_cell = {(row["mix"], row["labels"]): row for row in result.rows}
    assert set(by_cell) == {
        ("positive-heavy", "on"),
        ("positive-heavy", "off"),
        ("negative-heavy", "on"),
        ("negative-heavy", "off"),
    }
    for row in result.rows:
        # The one-sided-filter contract: every cell matches the reference.
        assert row["matches"] == f"{24}/{24}"
        assert row["cold_ms"] > 0 and row["warm_ms"] > 0
    negative_on = by_cell[("negative-heavy", "on")]
    negative_off = by_cell[("negative-heavy", "off")]
    # Label fast path beats traversal-only on the negative-heavy mix: O(1)
    # rejections and frontier pruning must show up as strictly less traversal
    # work and no more IO.
    assert negative_on["label_rejections"] + negative_on["frontier_prunes"] > 0
    assert negative_on["mean_visited"] < negative_off["mean_visited"]
    assert negative_on["mean_io"] <= negative_off["mean_io"]
    assert negative_off["label_rejections"] == 0
    assert negative_off["frontier_prunes"] == 0
    # The Bloom layer answers unknown-endpoint queries regardless of labels.
    assert negative_on["bloom_rejections"] > 0
    assert negative_off["bloom_rejections"] > 0
    # The shared partition cache pays across queries within a pass — where
    # queries traverse.  A negative-heavy query answered by the traversal
    # alone reads its two endpoint partitions and little else (a rejected
    # DN_1 neighbour costs no read), too few for any to repeat.
    for labels in ("on", "off"):
        assert by_cell[("positive-heavy", labels)]["cache_hit_rate"] > 0
    # The zone-map probe must have skipped disjoint runs without IO.
    probe_notes = [note for note in result.notes if "zone-map probe" in note]
    assert probe_notes and "skipped 0 run(s)" not in probe_notes[0]
