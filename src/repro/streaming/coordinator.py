"""The sharded queryable facade: fan-in ingestion, fan-out querying.

:class:`ShardedReachabilityService` is the scale-out counterpart of
:class:`~repro.streaming.service.StreamingReachabilityService`: one
:class:`~repro.streaming.service.StreamingReachabilityService` per shard
(ingestor + snapshot/delta overlay, auto-merge disabled), glued together by a
:class:`~repro.streaming.sharding.ShardedStreamIngestor` that routes batches,
tracks per-shard watermarks, and joins cross-shard contacts through the
global low-watermark.

A query fans out across every shard overlay: each contributes its snapshot ∪
delta ∪ open records overlapping the query interval (IO charged per shard
and summed), the coordinator adds the cross-shard records, clips everything
at the low-watermark — beyond it some shard's data is still incomplete — and
runs the earliest-arrival kernel over the union.  Merges are triggered per
shard by the configured merge policy, always freezing the prefix at the
global low-watermark so a snapshot never claims instants another shard has
not yet delivered.

Correctness contract: at any point of the stream, ``query(q)`` returns the
same verdict (and earliest reach time) as the batch ``reference`` evaluator
over the contact network of the globally complete prefix
``[origin, low_watermark]`` — for any shard count and router.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.config import (
    ContactConfig,
    ReachGridConfig,
    StorageConfig,
    StreamingConfig,
)
from ..core.errors import StreamingError
from ..core.types import QueryResult, ReachabilityQuery, TimeInstant, TimeInterval
from ..contacts.network import Contact
from ..storage import BACKEND_FILE_SUFFIX, StorageSystem
from ..testing.faults import crash_point
from ..trajectory.model import TrajectoryDataset
from .delta import (
    ContactRecord,
    OpenRunView,
    ReachGraphDeltaOverlay,
    earliest_arrival_time,
)
from .events import SampleEvent, StreamBatch
from .parallel import MergeExecutor, make_merge_executor
from .policy import make_policy
from .router import ShardRouter, make_router
from .service import (
    QueryResultCache,
    SnapshotQueryService,
    StreamingReachabilityService,
)
from .sharding import ShardedStreamIngestor
from .source import replay

__all__ = [
    "ShardedReachabilityService",
    "ShardedSnapshotQueryService",
    "ShardedStats",
]

#: Metadata key under which the coordinator persists its own manifest
#: (shard count, router, committed low-watermark, cross-shard tracker log).
_COORDINATOR_MANIFEST_KEY = "coordinator-manifest"


def _clip(
    records: Iterable[ContactRecord], low: TimeInstant, interval: TimeInterval
) -> List[ContactRecord]:
    """Records overlapping ``interval`` that start by the low-watermark.

    Their ends need no clip: the kernel's window already stops at ``low``.
    """
    if low < interval.start:
        return []
    end = min(interval.end, low)
    return [r for r in records if r[2] <= end and r[3] >= interval.start]


def _union_query(
    query: ReachabilityQuery,
    shards: Iterable[Tuple[ReachGraphDeltaOverlay, OpenRunView]],
    cross: Iterable[ContactRecord],
    low: Optional[TimeInstant],
) -> QueryResult:
    """The sharded union path over ``(overlay, open-run view)`` per shard.

    Every overlay contributes its records overlapping the interval (IO
    charged per shard and summed), ``cross`` adds the cross-shard records,
    and :func:`~repro.streaming.delta.earliest_arrival_time` runs over the
    union clipped at ``low``.  Self-queries read nothing.
    """
    interval = query.interval
    if query.source == query.destination:
        return QueryResult(reachable=True, earliest_time=interval.start)
    cpu_started = time.process_time()
    records: List[ContactRecord] = []
    io_total = 0.0
    random_ios = 0
    sequential_ios = 0
    earliest = None
    if low is not None:
        for overlay, open_runs in shards:
            storage = overlay.storage
            storage.reset_for_query()
            io_before = storage.snapshot()
            collected = overlay.collect_records(interval, open_runs)
            io_delta = storage.charge_since(io_before)
            io_total += io_delta.normalized(storage.config.sequential_cost)
            random_ios += io_delta.random_reads
            sequential_ios += io_delta.sequential_reads
            records.extend(_clip(collected, low, interval))
        records.extend(_clip(cross, low, interval))
        earliest = earliest_arrival_time(
            records,
            query.source,
            query.destination,
            interval.start,
            min(interval.end, low),
        )
    return QueryResult(
        reachable=earliest is not None,
        earliest_time=earliest,
        io=io_total,
        random_ios=random_ios,
        sequential_ios=sequential_ios,
        cpu_seconds=time.process_time() - cpu_started,
        visited=len(records),
    )


@dataclass(frozen=True, slots=True)
class ShardedStats:
    """Counters describing the state of a sharded streaming service."""

    shards: int
    router: str
    events: int
    batches: int
    merges: int
    queries: int
    cache_hits: int
    cache_misses: int
    low_watermark: Optional[TimeInstant]
    watermarks: Tuple[Optional[TimeInstant], ...]
    shard_events: Tuple[int, ...]
    delta_contacts: int
    snapshot_contacts: int
    cross_shard_contacts: int
    flushed_intervals: int
    ingest_seconds: float

    @property
    def events_per_second(self) -> float:
        """Ingest throughput over the life of the service."""
        if self.ingest_seconds <= 0:
            return 0.0
        return self.events / self.ingest_seconds


class ShardedReachabilityService:
    """Accepts an ordered event stream across N shards, stays queryable."""

    def __init__(
        self,
        environment_size: Tuple[float, float],
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
        name: str = "sharded-stream",
        auto_merge: bool = True,
    ) -> None:
        self.contact_config = contact_config or ContactConfig()
        self.grid_config = grid_config or ReachGridConfig()
        self.streaming_config = streaming_config or StreamingConfig()
        self.name = name
        # The asyncio front-end turns auto_merge off and schedules per-shard
        # merges as background tasks itself (same policy, same low-watermark
        # bound) so that ingestion never stalls behind a merge build.
        self.auto_merge = auto_merge
        num_shards = self.streaming_config.shards
        # Per-shard stacks: the coordinator owns the query cache and triggers
        # merges itself (bounded at the low-watermark), and per-shard
        # ReachGraph fast paths are pointless — a shard's snapshot is never
        # individually authoritative once contacts can span shards.
        shard_config = replace(
            self.streaming_config,
            query_cache_size=0,
            build_reachgraph_on_merge=False,
        )
        # One merge executor for the whole coordinator: per-shard pools would
        # multiply worker processes by the shard count, and the coordinator
        # drives every shard merge itself anyway (the shards never auto-merge).
        self._merge_executor = make_merge_executor(
            self.streaming_config.merge_executor, self.streaming_config.merge_workers
        )
        self._shards: List[StreamingReachabilityService] = [
            StreamingReachabilityService(
                environment_size,
                contact_config=self.contact_config,
                grid_config=self.grid_config,
                streaming_config=shard_config,
                storage_config=storage_config,
                name=f"{name}-shard{index}",
                auto_merge=False,
                merge_executor=self._merge_executor,
            )
            for index in range(num_shards)
        ]
        router = make_router(
            self.streaming_config.router,
            num_shards,
            environment_size,
            self.grid_config.spatial_resolution,
        )
        self._ingestor = ShardedStreamIngestor(
            self._shards, router, self.contact_config.distance_threshold
        )
        self._policies = [make_policy(shard_config) for _ in range(num_shards)]
        self._cache = QueryResultCache(self.streaming_config.query_cache_size)
        # The coordinator's own device holds what no shard can reconstruct:
        # the cross-shard contact log and the committed global low-watermark.
        self._storage = StorageSystem(
            storage_config, name=f"{name}-coordinator", attach=False
        )
        self._queries = 0
        self._closed = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        dataset: TrajectoryDataset,
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> "ShardedReachabilityService":
        """A service sized for (but not yet fed with) a dataset's environment."""
        return cls(
            environment_size=dataset.environment_size,
            contact_config=contact_config,
            grid_config=grid_config,
            streaming_config=streaming_config,
            storage_config=storage_config,
            name=f"{dataset.name}-sharded",
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: StreamBatch | Iterable[SampleEvent]) -> int:
        """Route one batch across every shard, in lockstep.

        A bare iterable of sample events is wrapped into a batch whose
        watermark is its latest sample time.  All-or-nothing: a batch that
        violates the ingestion contract leaves every shard unchanged.
        """
        self._ensure_open()
        batch = (
            events
            if isinstance(events, StreamBatch)
            else StreamBatch.of(tuple(events))
        )
        before = self._ingestor.low_watermark
        count = self._ingestor.ingest(batch)
        if self._ingestor.low_watermark != before:
            self._cache.clear()
        self._maybe_merge_shards()
        return count

    def ingest_shard(
        self, shard_id: int, batch: StreamBatch, prevalidated: bool = False
    ) -> int:
        """Deliver one shard's sub-batch independently (skewed delivery).

        ``prevalidated`` promises the batch came out of :meth:`route_batch`
        for exactly ``shard_id`` (the asyncio ingest loops feed queues filled
        that way) and skips the per-sample routing re-check.
        """
        self._ensure_open()
        before = self._ingestor.low_watermark
        count = self._ingestor.ingest_shard(shard_id, batch, prevalidated=prevalidated)
        if self._ingestor.low_watermark != before:
            self._cache.clear()
        self._maybe_merge_shards()
        return count

    def route_batch(self, batch: StreamBatch) -> List[StreamBatch]:
        """Split a batch into per-shard sub-batches (for skewed delivery)."""
        return self._ingestor.route_batch(batch)

    def drain(self, source) -> ShardedStats:
        """Ingest an entire stream source (or dataset / canned name) to its end."""
        if isinstance(source, (TrajectoryDataset, str)):
            source = replay(source, batch_ticks=self.streaming_config.batch_ticks)
        for batch in source.batches():
            self.ingest(batch)
        return self.stats

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------
    def _maybe_merge_shards(self) -> None:
        if not self.auto_merge:
            return
        low = self._ingestor.low_watermark
        if low is None:
            return
        due = self.shards_due_for_merge()
        if due:
            self._merge_shards(due, low)
            self._cache.clear()

    def _merge_shards(self, shard_ids: Sequence[int], low: TimeInstant) -> None:
        """Merge the given shards at ``low``, builds fanned out in parallel.

        The coordinator drives the three-phase protocol itself so one shared
        :class:`~repro.streaming.parallel.MergeExecutor` can overlap the pure
        builds of *different shards* — the sharded counterpart of the async
        service overlapping a build with ingestion.  Phase order is what
        keeps it bit-identical to the serial loop it replaces: every
        ``prepare_merge`` happens up front on this thread (each captures a
        prefix frozen at the same ``low``, so later captures are unaffected
        by earlier shards having built or adopted), the builds run
        concurrently on the executor, and adoptions apply serially here, in
        shard order, preserving the ``merge-pre-adopt`` crash point before
        each one.
        """
        prepared = [
            (shard_id, self._shards[shard_id].prepare_merge(through=low))
            for shard_id in shard_ids
        ]
        submitted = [
            (shard_id, inputs, self._merge_executor.submit(inputs))
            for shard_id, inputs in prepared
        ]
        for shard_id, inputs, future in submitted:
            build = future.result()
            crash_point("merge-pre-adopt")
            self._shards[shard_id].adopt_merge(build, inputs)

    def shards_due_for_merge(self, force: bool = False) -> List[int]:
        """Shard ids whose merge policy fires at the current low-watermark.

        The decision half of the auto-merge loop, split out so the asyncio
        front-end can apply the same policy while running the actual merges
        as background tasks instead of inline.  ``force`` skips the policy
        and returns every shard that *could* merge (has data inside the
        frozen prefix and an unfrozen tail) — the eligibility half alone.
        """
        low = self._ingestor.low_watermark
        if low is None:
            return []
        due: List[int] = []
        for shard_id, (shard, policy) in enumerate(zip(self._shards, self._policies)):
            ingestor = shard.ingestor
            if ingestor.origin is None or low < ingestor.origin:
                continue  # shard has no data inside the frozen prefix yet
            if shard.overlay.snapshot_watermark == low:
                continue  # nothing new to freeze for this shard
            if force or policy.should_merge(shard.merge_context(low_watermark=low)):
                due.append(shard_id)
        return due

    def invalidate_cache(self) -> None:
        """Drop every cached query result (bumps the cache generation).

        Called by the asyncio front-end the moment a background merge swaps a
        shard snapshot in, so no stale pre-swap answer outlives the swap.
        """
        self._cache.clear()

    def merge(self) -> None:
        """Force-merge every eligible shard at the current global low-watermark.

        Shards whose snapshot already sits at the low-watermark are skipped —
        re-freezing an identical prefix would append an empty run for
        nothing.
        """
        self._ensure_open()
        low = self._ingestor.low_watermark
        if low is None:
            raise StreamingError("nothing to merge: no shard has a watermark yet")
        self._merge_shards(self.shards_due_for_merge(force=True), low)
        self._cache.clear()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer a query over the globally complete prefix.

        Contacts beyond the low-watermark are clipped away: some shard has
        not promised completeness there, so including them would let answers
        depend on delivery skew instead of on data.
        """
        self._ensure_open()
        self._queries += 1
        cached = self._cache.get(query)
        if cached is not None:
            return cached
        result = _union_query(
            query,
            ((shard.overlay, shard.ingestor.open_runs) for shard in self._shards),
            (
                (c.first, c.second, c.validity.start, c.validity.end)
                for c in self._ingestor.cross_shard_contacts()
            ),
            self._ingestor.low_watermark,
        )
        self._cache.put(query, result)
        return result

    # ------------------------------------------------------------------
    # durability (persistent backends)
    # ------------------------------------------------------------------
    def _coordinator_manifest(self) -> dict:
        return {
            "shards": self.num_shards,
            "router": self.router.name,
            "low_watermark": self._ingestor.low_watermark,
            "watermarks": list(self._ingestor.watermarks),
            "distance_threshold": self.contact_config.distance_threshold,
            "tracker": self._ingestor.tracker.manifest(),
        }

    def flush(self) -> None:
        """Persist the sharded state durably (a no-op on the sim backend).

        Every shard flushes first (each shard's own manifest is its commit
        point); only then is the coordinator manifest — shard count, router,
        committed low-watermark, and the cross-shard contact log — written
        and flushed.  A crash between the two steps leaves the shards
        durably *ahead* of the coordinator manifest, never behind it, and
        :meth:`ShardedSnapshotQueryService.open` clips at the committed low,
        so the window is recoverable.
        """
        for shard in self._shards:
            shard.flush()
        crash_point("sharded-flush-post-shards")
        self._storage.put_metadata(
            _COORDINATOR_MANIFEST_KEY, self._coordinator_manifest()
        )
        self._storage.flush()

    def close(self) -> None:
        """Flush and release every storage system.  Idempotent.

        Everything is made durable by the initial :meth:`flush` *before* any
        shard's device is released, so a crash between per-shard closes
        loses nothing — the not-yet-closed shards are already flushed.
        Afterwards the coordinator must not ingest or answer queries (the
        cache is dropped so a closed service cannot serve stale answers);
        with a persistent backend the state reopens via
        :meth:`ShardedSnapshotQueryService.open`.
        """
        if self._closed:
            return
        self.flush()
        self._merge_executor.close()
        for shard in self._shards:
            shard.close()
            crash_point("shard-close")
        self._storage.close()
        self._cache.clear()
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StreamingError(f"sharded service {self.name!r} is closed")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of ingestion shards."""
        return self._ingestor.num_shards

    @property
    def router(self) -> ShardRouter:
        """The shard router partitioning the stream."""
        return self._ingestor.router

    @property
    def ingestor(self) -> ShardedStreamIngestor:
        """The sharded ingestor (routing, watermarks, cross-shard tracker)."""
        return self._ingestor

    @property
    def shard_services(self) -> List[StreamingReachabilityService]:
        """The per-shard service stacks, in shard order."""
        return list(self._shards)

    @property
    def query_cache(self) -> QueryResultCache:
        """The coordinator's query-result cache (hit/miss/generation counters)."""
        return self._cache

    @property
    def merge_executor(self) -> MergeExecutor:
        """The executor shared by every shard's merge builds."""
        return self._merge_executor

    @property
    def storage(self) -> StorageSystem:
        """The coordinator's own storage system (manifest + cross-shard log)."""
        return self._storage

    @property
    def low_watermark(self) -> Optional[TimeInstant]:
        """Minimum per-shard watermark: the end of the answerable prefix."""
        return self._ingestor.low_watermark

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """Alias for :attr:`low_watermark` (the single-service interface)."""
        return self._ingestor.low_watermark

    @property
    def watermarks(self) -> Tuple[Optional[TimeInstant], ...]:
        """Per-shard watermarks, in shard order."""
        return self._ingestor.watermarks

    @property
    def num_merges(self) -> int:
        """Merges performed across all shards."""
        return sum(shard.num_merges for shard in self._shards)

    @property
    def stats(self) -> ShardedStats:
        """A snapshot of the coordinator's counters."""
        return ShardedStats(
            shards=self.num_shards,
            router=self.router.name,
            events=self._ingestor.num_events,
            batches=self._ingestor.num_batches,
            merges=self.num_merges,
            queries=self._queries,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            low_watermark=self._ingestor.low_watermark,
            watermarks=self._ingestor.watermarks,
            shard_events=self._ingestor.shard_events,
            delta_contacts=sum(s.overlay.delta_size for s in self._shards),
            snapshot_contacts=sum(s.overlay.snapshot_size for s in self._shards),
            cross_shard_contacts=self._ingestor.tracker.num_closed_contacts,
            flushed_intervals=self._ingestor.num_flushed_intervals,
            ingest_seconds=self._ingestor.ingest_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedReachabilityService(name={self.name!r}, "
            f"shards={self.num_shards}, router={self.router.name!r}, "
            f"low_watermark={self.low_watermark}, merges={self.num_merges})"
        )


class ShardedSnapshotQueryService:
    """A read-only sharded service reopened from persistent storage.

    The sharded counterpart of
    :class:`~repro.streaming.service.SnapshotQueryService`: every shard's
    overlay (snapshot runs, delta, open contacts) is reopened through the
    unsharded restore path, the cross-shard contact log is materialized from
    the coordinator manifest, and queries run the same fan-out/clip/sweep as
    the live coordinator — answered through the *committed* global
    low-watermark.  Shards may have flushed state past that low (a crash can
    land between the per-shard flushes and the coordinator manifest write);
    clipping at the committed low keeps answers bit-identical to the batch
    reference over the prefix the coordinator actually promised.
    """

    def __init__(
        self,
        storage: StorageSystem,
        shards: Sequence[SnapshotQueryService],
        cross_records: Sequence[ContactRecord],
        low_watermark: Optional[TimeInstant],
        watermarks: Tuple[Optional[TimeInstant], ...],
    ) -> None:
        self._storage = storage
        self._shards = list(shards)
        self._cross_records = list(cross_records)
        self._low_watermark = low_watermark
        self._watermarks = watermarks
        self._queries = 0

    @classmethod
    def open(
        cls, storage_config: StorageConfig, name: str = "sharded-stream"
    ) -> "ShardedSnapshotQueryService":
        """Reopen the persisted state of the sharded service named ``name``.

        ``storage_config`` must use a persistent backend and the same
        ``storage_dir`` the original service wrote to.  The coordinator
        device is looked up as ``<name>-coordinator``, the shard overlays as
        ``<name>-shard<i>-overlay``.
        """
        if storage_config.backend == "sim" or storage_config.storage_dir is None:
            raise StreamingError(
                "reopening needs a persistent backend and a real storage_dir"
            )
        suffix = BACKEND_FILE_SUFFIX[storage_config.backend]
        device_path = os.path.join(
            storage_config.storage_dir, f"{name}-coordinator{suffix}"
        )
        missing = StreamingError(
            f"no persisted coordinator manifest found for service {name!r} "
            f"in {storage_config.storage_dir!r} (was the service flushed?)"
        )
        if not os.path.exists(device_path + ".manifest"):
            raise missing
        storage = StorageSystem(storage_config, name=f"{name}-coordinator")
        shards: List[SnapshotQueryService] = []
        # One guard over the whole restore: a corrupt manifest or a failed
        # shard reopen must not leak the devices opened so far.
        try:
            manifest = storage.get_metadata(_COORDINATOR_MANIFEST_KEY)
            if manifest is None:
                raise missing
            for index in range(manifest["shards"]):
                shards.append(
                    SnapshotQueryService.open(storage_config, f"{name}-shard{index}")
                )
            tracker = manifest["tracker"]
            cross: List[ContactRecord] = list(tracker["closed"])
            processed = tracker["processed"]
            if processed is not None:
                cross.extend(
                    (first, second, start, processed)
                    for first, second, start in tracker["open"]
                )
            return cls(
                storage,
                shards,
                cross,
                manifest["low_watermark"],
                tuple(manifest["watermarks"]),
            )
        except BaseException:
            for shard in shards:
                shard.close()
            storage.release()
            raise

    def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer a query over the committed globally complete prefix."""
        self._queries += 1
        return _union_query(
            query,
            ((shard.overlay, shard.open_runs) for shard in self._shards),
            self._cross_records,
            self._low_watermark,
        )

    @property
    def num_shards(self) -> int:
        """Number of reopened shard overlays."""
        return len(self._shards)

    @property
    def shard_services(self) -> List[SnapshotQueryService]:
        """The reopened per-shard query services, in shard order."""
        return list(self._shards)

    @property
    def cross_shard_contacts(self) -> List[Contact]:
        """The restored cross-shard contacts (committed prefix only)."""
        return [
            Contact(first, second, TimeInterval(start, end))
            for first, second, start, end in self._cross_records
        ]

    @property
    def low_watermark(self) -> Optional[TimeInstant]:
        """The committed global low-watermark answers are clipped at."""
        return self._low_watermark

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """Alias for :attr:`low_watermark` (the single-service interface)."""
        return self._low_watermark

    @property
    def watermarks(self) -> Tuple[Optional[TimeInstant], ...]:
        """Per-shard watermarks as of the committed coordinator manifest."""
        return self._watermarks

    @property
    def storage(self) -> StorageSystem:
        """The reopened coordinator storage system."""
        return self._storage

    def close(self) -> None:
        """Release every reopened device (the state stays on disk).

        Write-free, like the unsharded reopened service: nothing here
        mutated the persisted state, so no manifest is rewritten.
        """
        for shard in self._shards:
            shard.close()
        self._storage.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedSnapshotQueryService(shards={self.num_shards}, "
            f"low_watermark={self._low_watermark})"
        )
