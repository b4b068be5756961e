"""Crash recovery: kill a streaming service mid-flush and get everything back.

Run with::

    python examples/crash_recovery.py

The example arms one of the named fault points compiled into the service's
flush protocol (``repro.testing.faults``), so the flush dies *between* making
its dependents durable and committing the manifest — exactly where a real
``kill -9`` could land.  ``simulate_kill`` then drops every buffered write
the way the kernel drops a dead process's page cache.  Recovery happens
twice:

* ``SnapshotQueryService.open`` restores the **committed** prefix read-only —
  the manifest is the commit point, so the reopened watermark is the last
  *completed* flush, and every answer matches the batch reference over that
  prefix;
* ``StreamingReachabilityService.open`` replays the ingest journal past the
  manifest and **resumes ingesting** — the batches that were never flushed at
  all are re-fed, and the resumed service reaches the same final state the
  crashed one was heading for.
"""

from __future__ import annotations

import tempfile

from repro import ReachabilityEngine, StreamingConfig
from repro.core import StorageConfig
from repro.streaming import (
    SnapshotQueryService,
    StreamingReachabilityService,
    replay,
)
from repro.testing import faults
from repro.testing.faults import SimulatedCrash, simulate_kill
from repro.workloads import random_queries


def main() -> None:
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset

    with tempfile.TemporaryDirectory(prefix="repro-crash-recovery-") as storage_dir:
        service = engine.streaming(
            streaming_config=StreamingConfig(max_delta_contacts=64),
            storage_backend="file",
            storage_dir=storage_dir,
        )
        batches = list(replay(dataset, batch_ticks=20).batches())

        # 1. Ingest a prefix and flush it — this is the durable point.
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
        service.flush()
        committed = service.watermark
        print(f"flushed through tick {committed} (the committed prefix)")

        # 2. Keep ingesting, then die inside the next flush: the fault point
        #    sits after the WAL/extents are durable but before the manifest
        #    commits, and simulate_kill drops everything still buffered.
        for batch in batches[len(batches) // 2 :]:
            service.ingest(batch)
        faults.arm("flush-post-ingestor")
        try:
            service.flush()
        except SimulatedCrash as crash:
            print(f"simulated kill -9 at fault point {crash.point!r}")
        simulate_kill(service.overlay.storage, service.ingestor.storage)

        # 3. Read-only recovery: only the committed manifest is served.
        config = StorageConfig(backend="file", storage_dir=storage_dir)
        readonly = SnapshotQueryService.open(config, name=service.name)
        print(f"read-only reopen at watermark {readonly.watermark} "
              f"(the last completed flush)")
        workload = list(random_queries(dataset, count=20, seed=7))
        answered = sum(1 for query in workload if readonly.query(query) is not None)
        print(f"answered {answered} queries over the committed prefix")
        readonly.close()

        # 4. Full recovery: the journaled WAL tail past the manifest comes
        #    back too, and ingestion resumes from the recovered watermark.
        resumed = StreamingReachabilityService.open(config, name=service.name)
        print(f"resumed ingesting at watermark {resumed.watermark} "
              f"(WAL tail replayed past the manifest)")
        for batch in batches:
            if batch.watermark > resumed.watermark:
                resumed.ingest(batch)
        resumed.merge()
        print(f"caught up to tick {resumed.watermark} "
              f"({resumed.stats.events} total events survived the crash)")
        resumed.close()


if __name__ == "__main__":
    main()
