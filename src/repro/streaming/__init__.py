"""Streaming ingestion with incremental ReachGrid/ReachGraph maintenance.

The paper's indexes are built offline over a frozen trajectory dataset, but
its target scenarios (contact tracing, vehicle surveillance) are online.  This
subpackage keeps the indexes queryable *while* data arrives:

* :mod:`~repro.streaming.events` / :mod:`~repro.streaming.source` — the
  timestamped event model (samples, closed contacts, watermarked batches) and
  replay sources that turn any dataset or generator into a stream;
* :mod:`~repro.streaming.ingest` — the ingest write-ahead log plus the
  incremental contact join;
* :mod:`~repro.streaming.delta` / :mod:`~repro.streaming.policy` — the
  snapshot + delta overlay consulted at query time, and the delta-size
  policy deciding when the delta is merged into a fresh snapshot (every
  merge patches the ReachGraph index, the first one an empty index);
* :mod:`~repro.streaming.service` — the
  :class:`~repro.streaming.service.StreamingReachabilityService` facade
  (``ingest`` / ``query`` with an LRU result cache), also reachable through
  :meth:`repro.ReachabilityEngine.streaming`, and its read-only reopen,
  :class:`~repro.streaming.service.SnapshotQueryService`.

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

from .delta import (
    ContactSnapshotStore,
    DeltaGraph,
    ReachGraphDeltaOverlay,
)
from .events import ContactEvent, SampleEvent, StreamBatch
from .experiment import stream_replay
from .ingest import StreamIngestor
from .policy import DeltaSizePolicy, MergeContext, make_policy
from .service import (
    MergeInputs,
    QueryResultCache,
    SnapshotQueryService,
    StreamingReachabilityService,
    StreamingStats,
    build_merge,
)
from .source import DatasetReplaySource, GeneratorReplaySource, StreamSource, replay

__all__ = [
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
    "DeltaSizePolicy",
    "make_policy",
    "MergeInputs",
    "QueryResultCache",
    "SnapshotQueryService",
    "StreamingReachabilityService",
    "StreamingStats",
    "build_merge",
    "stream_replay",
]
