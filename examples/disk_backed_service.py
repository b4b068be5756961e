"""Disk-backed streaming: ingest → merge → close → reopen → query.

Run with::

    python examples/disk_backed_service.py

The example runs the streaming service on the real ``file`` backend instead
of the in-memory simulated disk: snapshot contact runs land in an append-only
block file under a real directory, merges append LSM runs instead of
rewriting the snapshot, and ``close()`` makes the queryable state durable
(fsync + manifest).  A :class:`SnapshotQueryService` then reopens the backing
files — as another process would after a restart — and answers the same
queries bit-identically to the service that was closed.
"""

from __future__ import annotations

import tempfile

from repro import ReachabilityEngine, StreamingConfig
from repro.streaming import SnapshotQueryService, replay
from repro.workloads import random_queries


def main() -> None:
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset

    with tempfile.TemporaryDirectory(prefix="repro-disk-backed-") as storage_dir:
        # 1. A file-backed service: same API, real files under storage_dir.
        service = engine.streaming(
            streaming_config=StreamingConfig(max_delta_contacts=64),
            storage_backend="file",
            storage_dir=storage_dir,
        )
        for batch in replay(dataset, batch_ticks=20).batches():
            service.ingest(batch)
        service.merge()  # freeze the full prefix onto the device
        stats = service.stats
        print(f"ingested {stats.events} events, {stats.merges} merges, "
              f"{stats.snapshot_runs} snapshot run(s), "
              f"{stats.snapshot_records_written} contact records written")

        # 2. Remember a few answers, then close: fsync + durable manifest.
        workload = list(random_queries(dataset, count=20, seed=7))
        before = {query: service.query(query) for query in workload}
        storage_config = service.overlay.storage.config
        print(f"closing; backing files live under {storage_dir}")
        service.close()

        # 3. Reopen from the files alone (no ingestor state survives — only
        #    the queryable snapshot + delta + open-contact manifest).
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        print(f"reopened at watermark {reopened.watermark}, "
              f"snapshot={reopened.overlay.snapshot_size} contacts")

        mismatches = 0
        total_io = 0.0
        for query in workload:
            result = reopened.query(query)
            total_io += result.io
            expected = before[query]
            # Both sides may answer through the ReachGraph fast path (the
            # reopened service restores the persisted index), and a
            # bidirectional traversal may omit the earliest reach time.  The
            # verdicts must agree exactly, earliest times wherever both sides
            # report one.
            if bool(result.reachable) != bool(expected.reachable) or (
                expected.earliest_time is not None
                and result.earliest_time is not None
                and result.earliest_time != expected.earliest_time
            ):
                mismatches += 1
        reopened.close()
        print(f"re-answered {len(workload)} queries from disk: "
              f"{mismatches} mismatches vs the pre-close answers, "
              f"{total_io / len(workload):.2f} normalized IOs per query")


if __name__ == "__main__":
    main()
