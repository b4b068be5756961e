"""Streaming ingestion: keep reachability queryable while samples arrive.

Run with::

    python examples/streaming_ingest.py

The example replays a small random-waypoint dataset as a timestamped stream,
ingests it batch by batch through the :class:`StreamingReachabilityService`,
and issues the same reachability query at several watermarks — showing how
the answer can flip from unreachable to reachable as the contact path's edges
arrive.  At the end it verifies the drained stream agrees with the batch
reference evaluator.
"""

from __future__ import annotations

from repro import ReachabilityEngine, ReachabilityQuery, StreamingConfig
from repro.baselines.reference import evaluate_reachability
from repro.streaming import replay
from repro.workloads import random_queries


def main() -> None:
    # 1. An engine provides the dataset and the matching streaming service.
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset
    service = engine.streaming(
        streaming_config=StreamingConfig(max_delta_contacts=64)
    )
    print(f"dataset: {dataset.name} — {dataset.num_objects} objects, "
          f"{dataset.num_instants} time instances")

    # 2. Ingest the replayed stream, probing one query as data arrives.
    probe = ReachabilityQuery(source=0, destination=7, interval=dataset.horizon)
    for batch in replay(dataset, batch_ticks=20).batches():
        service.ingest(batch)
        result = service.query(probe)
        print(f"watermark={service.watermark:>4}  reachable={bool(result)!s:<5}  "
              f"delta={service.overlay.delta_size:>3} contacts  "
              f"merges={service.num_merges}")

    # 3. After draining, streaming answers equal the batch ground truth.
    mismatches = 0
    for query in random_queries(dataset, count=30, seed=1):
        expected = evaluate_reachability(engine.contact_network, query)
        if service.query(query).reachable != expected.reachable:
            mismatches += 1
    stats = service.stats
    print(f"\ningested {stats.events} events at "
          f"{stats.events_per_second:,.0f} events/sec, "
          f"{stats.merges} merges, {mismatches} mismatches vs reference")


if __name__ == "__main__":
    main()
