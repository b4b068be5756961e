"""The query fast path: interval labels, zone maps, and the partition cache.

Run with::

    python examples/query_fast_path.py

Three pruning layers answer (or shrink) queries before the exact traversal
pays its IO, and each is one-sided — a pruning verdict is provably exact, so
answers never change:

* GRAIL-style **interval labels** over the reduced DAG reject provably
  unreachable pairs in O(1) and prune hopeless branches of the BM-BFS
  frontier; they are recomputed whenever a streaming merge adds vertices
  to the graph.
* Per-run **zone maps** (min/max contact time plus an object-id Bloom
  filter) let the LSM snapshot store skip whole runs on narrow reads, and
  let the overlay answer unknown-endpoint queries with zero IO.
* A cross-query **partition cache** shares hot ReachGraph partitions across
  queries, invalidated whenever a merge or repack mutates the graph.

The example drains a small stream, runs a negative-heavy workload with the
labels on and off, and verifies every answer against the batch ``reference``
evaluator — exiting non-zero on any disagreement.
"""

from __future__ import annotations

from repro import ReachabilityEngine, StreamingConfig
from repro.baselines.reference import evaluate_reachability
from repro.contacts import build_contact_network
from repro.core import ReachabilityQuery, TimeInterval
from repro.streaming import replay
from repro.workloads import random_queries


def main() -> None:
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset
    service = engine.streaming(
        streaming_config=StreamingConfig(max_delta_contacts=24)
    )
    for batch in replay(dataset, batch_ticks=8).batches():
        service.ingest(batch)
    service.merge()  # freeze the tail so every query runs on the fast path

    objects = dataset.object_ids
    horizon = dataset.horizon
    workload = list(random_queries(dataset, count=15, seed=3))
    # A negative-heavy tail: tight windows plus two unknown endpoints.
    workload += [
        ReachabilityQuery(
            objects[i % len(objects)],
            objects[(i * 7 + 3) % len(objects)],
            TimeInterval(start, start + 1),
        )
        for i, start in enumerate(range(horizon.start, horizon.end - 1, 11))
    ]
    workload.append(ReachabilityQuery(max(objects) + 50, objects[0], horizon))

    network = build_contact_network(
        dataset, engine.contact_config.distance_threshold
    )
    truth = [
        bool(evaluate_reachability(network, query).reachable) for query in workload
    ]

    processor = service.overlay.snapshot_processor
    answers = {}
    for labels_on in (True, False):
        processor.use_labels = labels_on
        service.overlay.partition_cache.invalidate()
        visited = 0
        for query in workload:
            result = service.overlay.evaluate(query)
            answers.setdefault(labels_on, []).append(bool(result.reachable))
            visited += result.visited
        stats = service.stats
        print(
            f"labels {'on ' if labels_on else 'off'}: {visited} vertices visited — "
            f"{stats.label_rejections} label rejections, "
            f"{stats.label_frontier_prunes} frontier prunes, "
            f"{stats.bloom_rejections} bloom rejections, "
            f"partition cache {stats.partition_cache_hits} hits / "
            f"{stats.partition_cache_misses} misses"
        )

    assert answers[True] == truth, "labels-on answers must match the reference"
    assert answers[False] == truth, "labels-off answers must match the reference"
    store = service.overlay.snapshot_store
    records = store.read_overlapping(TimeInterval(horizon.start, horizon.start + 2))
    print(
        f"zone maps: a one-tick read over {store.num_runs} run(s) returned "
        f"{len(records)} (first, second, start, end) record(s) and skipped "
        f"{store.runs_skipped} run(s) / {store.blocks_skipped} block(s) "
        "without touching the device"
    )
    print(f"all {len(workload)} queries matched the batch reference, twice")
    service.close()


if __name__ == "__main__":
    main()
