"""Streaming ingestion with incremental ReachGrid/ReachGraph maintenance.

The paper's indexes are built offline over a frozen trajectory dataset, but
its target scenarios (contact tracing, vehicle surveillance) are online.  This
subpackage keeps the indexes queryable *while* data arrives:

* :mod:`~repro.streaming.events` / :mod:`~repro.streaming.source` — the
  timestamped event model (samples, closed contacts, watermarked batches) and
  replay sources that turn any dataset or generator into a stream;
* :mod:`~repro.streaming.ingest` — tail-append of samples into the current
  temporal interval's grid cells plus the incremental contact join;
* :mod:`~repro.streaming.delta` / :mod:`~repro.streaming.policy` — the
  snapshot + delta overlay consulted at query time, and the policies deciding
  when the delta is merged into a fresh snapshot;
* :mod:`~repro.streaming.service` — the
  :class:`~repro.streaming.service.StreamingReachabilityService` facade
  (``ingest`` / ``query`` with an LRU result cache), also reachable through
  :meth:`repro.ReachabilityEngine.streaming`;
* :mod:`~repro.streaming.router` / :mod:`~repro.streaming.sharding` /
  :mod:`~repro.streaming.coordinator` — scale-out: pluggable shard routers,
  the :class:`~repro.streaming.sharding.ShardedStreamIngestor` with per-shard
  watermarks plus a global low-watermark and a cross-shard contact join, and
  the :class:`~repro.streaming.coordinator.ShardedReachabilityService`
  fanning queries out across shard overlays
  (``engine.streaming(shards=N)``);
* :mod:`~repro.streaming.async_service` — the asyncio serving front-end:
  :class:`~repro.streaming.async_service.AsyncReachabilityService` runs one
  ingest loop per shard behind bounded queues (``await ingest`` backpressures
  when full), executes merges as background tasks over the frozen prefix, and
  swaps snapshots in atomically so ``await query`` never blocks on a merge build
  (``engine.streaming(async_mode=True)``);
* :mod:`~repro.streaming.parallel` — true multi-core execution: the
  :class:`~repro.streaming.parallel.MergeExecutor` abstraction runs the pure
  build phase of merges inline, on a thread pool, or on a process pool
  (``engine.streaming(merge_executor="process")``), and
  :class:`~repro.streaming.parallel.ParallelQueryService` answers queries on
  a pool of worker processes over reopened read-only snapshots with
  generation-based invalidation.

Quickstart
----------
>>> from repro import make_dataset
>>> from repro.streaming import StreamingReachabilityService, replay
>>> dataset = make_dataset("rwp-tiny")
>>> service = StreamingReachabilityService.for_dataset(dataset)
>>> stats = service.drain(replay(dataset))
>>> stats.events == dataset.num_objects * dataset.num_instants
True
"""

from __future__ import annotations

from .async_service import AsyncReachabilityService, AsyncStats
from .coordinator import (
    ShardedReachabilityService,
    ShardedSnapshotQueryService,
    ShardedStats,
)
from .delta import (
    ContactSnapshotStore,
    DeltaGraph,
    ReachGraphDeltaOverlay,
    SnapshotArtifacts,
)
from .events import ContactEvent, SampleEvent, StreamBatch
from .experiment import async_stream_replay, sharded_stream_replay, stream_replay
from .ingest import StreamIngestor
from .parallel import (
    InlineMergeExecutor,
    MergeExecutor,
    ParallelQueryService,
    PoolMergeExecutor,
    make_merge_executor,
)
from .policy import (
    AmplificationPolicy,
    DeltaSizePolicy,
    ElapsedIntervalsPolicy,
    MergeContext,
    MergePolicy,
    make_policy,
)
from .router import HashRouter, ShardRouter, SpatialCellRouter, make_router
from .service import (
    MergeInputs,
    QueryResultCache,
    SnapshotQueryService,
    StreamingReachabilityService,
    StreamingStats,
    build_merge,
)
from .sharding import CrossShardContactTracker, ShardedStreamIngestor
from .source import DatasetReplaySource, GeneratorReplaySource, StreamSource, replay

__all__ = [
    "AsyncReachabilityService",
    "AsyncStats",
    "SampleEvent",
    "ContactEvent",
    "StreamBatch",
    "StreamSource",
    "DatasetReplaySource",
    "GeneratorReplaySource",
    "replay",
    "StreamIngestor",
    "DeltaGraph",
    "ContactSnapshotStore",
    "ReachGraphDeltaOverlay",
    "MergeContext",
    "MergePolicy",
    "DeltaSizePolicy",
    "ElapsedIntervalsPolicy",
    "AmplificationPolicy",
    "make_policy",
    "ShardRouter",
    "HashRouter",
    "SpatialCellRouter",
    "make_router",
    "CrossShardContactTracker",
    "ShardedStreamIngestor",
    "ShardedReachabilityService",
    "ShardedSnapshotQueryService",
    "ShardedStats",
    "InlineMergeExecutor",
    "MergeExecutor",
    "MergeInputs",
    "ParallelQueryService",
    "PoolMergeExecutor",
    "QueryResultCache",
    "make_merge_executor",
    "SnapshotArtifacts",
    "SnapshotQueryService",
    "StreamingReachabilityService",
    "StreamingStats",
    "build_merge",
    "stream_replay",
    "sharded_stream_replay",
    "async_stream_replay",
]
