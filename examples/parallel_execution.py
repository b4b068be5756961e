"""A query worker fleet over one disk-backed writer.

Run with::

    python examples/parallel_execution.py

One streaming service ingests and merges; a
:class:`~repro.streaming.parallel.ParallelQueryService` attached to it
answers queries on worker *processes*, each of which reopens the flushed
state read-only.  When the writer adopts a new merge, the fleet notices the
merge counter move, flushes, and bumps the snapshot generation — every
worker recycles its snapshot on its next task, with no process restarted.

Answers are checked two ways: mid-stream the fleet must agree bit-for-bit
with the live service it mirrors, and after the full drain both must agree
with the batch reference evaluator.
"""

from __future__ import annotations

import tempfile

from repro import ReachabilityEngine, StreamingConfig
from repro.baselines.reference import evaluate_reachability
from repro.streaming import ParallelQueryService, replay
from repro.workloads import random_queries


def main() -> None:
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset
    workload = list(random_queries(dataset, count=12, seed=5))

    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as storage_dir:
        # 1. One writer, disk-backed so the read fleet has a committed state
        #    to reopen.
        service = engine.streaming(
            streaming_config=StreamingConfig(
                merge_policy="delta-size", max_delta_contacts=24
            ),
            storage_backend="file",
            storage_dir=storage_dir,
        )
        print(
            f"dataset: {dataset.name} — {dataset.num_objects} objects, "
            f"{dataset.num_instants} time instances"
        )

        batches = list(replay(dataset, batch_ticks=30).batches())
        try:
            # 2. Ingest half the stream; the merge policy fires as it goes.
            for batch in batches[: len(batches) // 2]:
                service.ingest(batch)
            service.merge()

            # 3. Attach the read fleet and answer the workload on worker
            #    processes; mid-stream every answer must match the live
            #    service exactly.
            with ParallelQueryService.for_service(service, workers=2) as fleet:
                answers = fleet.query_many(workload)
                live = [service.query(query) for query in workload]
                assert [a.reachable for a in answers] == [a.reachable for a in live]
                print(
                    f"mid-stream: generation {fleet.generation}, "
                    f"watermark {fleet.watermark}, "
                    f"{len(answers)} fleet answers match the live service"
                )

                # 4. Drain the rest; the adopted merges invalidate the fleet
                #    automatically (generation bump, workers recycle).
                generation = fleet.generation
                for batch in batches[len(batches) // 2 :]:
                    service.ingest(batch)
                service.merge()
                answers = fleet.query_many(workload)
                assert fleet.generation > generation
                print(
                    f"after drain: generation {fleet.generation} "
                    f"({fleet.num_refreshes} refresh), watermark {fleet.watermark}"
                )

                # 5. Final answers agree with the batch reference evaluator.
                for query, answer in zip(workload, answers):
                    expected = evaluate_reachability(engine.contact_network, query)
                    assert answer.reachable == expected.reachable
                print(f"all {len(workload)} answers match the batch reference")
                print(f"writer merges: {service.num_merges}")
        finally:
            service.close()


if __name__ == "__main__":
    main()
