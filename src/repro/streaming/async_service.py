"""The asyncio serving front-end: non-blocking ingest, background merges.

The paper's target scenarios (contact tracing, vehicle surveillance) are
online services, and the synchronous facades stall every query behind every
merge: folding a delta into the snapshot writes contact extents and — on
the single-shard path — builds or patches a ReachGraph, during which
``ingest`` and ``query`` are simply blocked.
:class:`AsyncReachabilityService` removes that stall with three moves:

* **per-shard ingest loops** — ``await ingest(batch)`` routes the batch into
  per-shard sub-batches and enqueues each on a *bounded* :class:`asyncio.Queue`
  (capacity :attr:`~repro.core.config.StreamingConfig.async_queue_depth`);
  a full queue suspends the producer, which is the backpressure contract.
  One asyncio task per shard drains its queue in FIFO order, so each shard
  still sees a watermark-ordered stream;
* **background merges** — the build half of a merge is a pure function of the
  ingestor's frozen slice (see :func:`~repro.streaming.service.build_merge`),
  so when a shard's merge policy fires the loop captures the slice
  synchronously, builds the query-side artifacts in a worker thread via
  :func:`asyncio.to_thread`, and only then
* **adopts the result atomically** —
  :meth:`~repro.streaming.service.StreamingReachabilityService.adopt_merge`
  (run append plus compaction) and the coordinator-cache
  invalidation run without yielding control, so a concurrently awaited
  ``query(...)`` observes either the old snapshot or the fully adopted new
  one, never a mixture, and never blocks on the build.

Queries always answer over the globally complete prefix clipped at the
cross-shard low-watermark (the sharded evaluation path), which is what makes
the correctness contract identical to the synchronous services: at any
awaited point, ``await query(q)`` equals the batch ``reference`` evaluator
over ``[origin, low_watermark]`` — merges in flight or not.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import (
    ContactConfig,
    ReachGridConfig,
    StorageConfig,
    StreamingConfig,
)
from ..core.errors import StreamingError
from ..core.types import QueryResult, ReachabilityQuery, TimeInstant
from ..trajectory.model import TrajectoryDataset
from .coordinator import (
    ShardedReachabilityService,
    ShardedSnapshotQueryService,
    ShardedStats,
)
from .events import SampleEvent, StreamBatch
from .service import (
    MergeInputs,
    StreamingReachabilityService,
    build_merge,
)
from .source import replay

__all__ = ["AsyncReachabilityService", "AsyncStats"]


@dataclass(frozen=True, slots=True)
class AsyncStats:
    """Counters describing the state of the asyncio front-end.

    ``sharded`` carries the underlying coordinator's counters (events,
    watermarks, cache hits...); the remaining fields are async-only.
    """

    sharded: ShardedStats
    pending_batches: int
    background_merges: int
    cancelled_merges: int
    merges_in_flight: int

    @property
    def events(self) -> int:
        """Total sample events ingested (mirrors the sharded counter)."""
        return self.sharded.events

    @property
    def events_per_second(self) -> float:
        """Ingest throughput over the life of the service."""
        return self.sharded.events_per_second


class AsyncReachabilityService:
    """Async ``await ingest`` / ``await query`` facade over sharded streaming.

    Wraps a :class:`ShardedReachabilityService` (auto-merge disabled) and owns
    the event-loop choreography: bounded per-shard queues, one ingest task per
    shard, background merge tasks, and the atomic snapshot swap.  Usable as an
    async context manager::

        async with AsyncReachabilityService.for_dataset(dataset) as service:
            await service.ingest(batch)
            result = await service.query(query)

    All coroutine methods must be awaited on the same running event loop; the
    only work that leaves that loop is the pure merge build, which runs
    in a worker thread over inputs captured up front.
    """

    def __init__(
        self,
        environment_size: Tuple[float, float],
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
        name: str = "async-stream",
    ) -> None:
        self.streaming_config = streaming_config or StreamingConfig()
        self.name = name
        # shards=1 is served by the same coordinator: a one-shard sharded
        # service is bit-identical to the single service (the sharding suite
        # proves it), and it keeps the async choreography uniform.
        self._service = ShardedReachabilityService(
            environment_size,
            contact_config=contact_config,
            grid_config=grid_config,
            streaming_config=self.streaming_config,
            storage_config=storage_config,
            name=name,
            auto_merge=False,
        )
        depth = self.streaming_config.async_queue_depth
        self._queues: List["asyncio.Queue[StreamBatch]"] = [
            asyncio.Queue(maxsize=depth) for _ in range(self._service.num_shards)
        ]
        self._loops: List["asyncio.Task[None]"] = []
        self._merge_tasks: Dict[int, "asyncio.Task[None]"] = {}
        self._gate = asyncio.Event()
        self._gate.set()
        self._ingest_lock = asyncio.Lock()
        self._started = False
        self._closed = False
        self._error: Optional[BaseException] = None
        self._background_merges = 0
        self._cancelled_merges = 0

    # ------------------------------------------------------------------
    # constructors / context management
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        dataset: TrajectoryDataset,
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> "AsyncReachabilityService":
        """A service sized for (but not yet fed with) a dataset's environment."""
        return cls(
            environment_size=dataset.environment_size,
            contact_config=contact_config,
            grid_config=grid_config,
            streaming_config=streaming_config,
            storage_config=storage_config,
            name=f"{dataset.name}-async",
        )

    @classmethod
    def reopen(
        cls, storage_config: StorageConfig, name: str = "async-stream"
    ) -> ShardedSnapshotQueryService:
        """Reopen the state a closed async service left behind (read-only).

        :meth:`aclose` closes the wrapped sharded service durably — every
        shard overlay plus the coordinator manifest — so recovery is exactly
        the sharded restore path: a :class:`ShardedSnapshotQueryService`
        answering through the committed global low-watermark.  The result is
        synchronous (no event loop needed): what survives a crash is data,
        not the asyncio choreography around it.
        """
        return ShardedSnapshotQueryService.open(storage_config, name)

    async def __aenter__(self) -> "AsyncReachabilityService":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def start(self) -> None:
        """Spawn the per-shard ingest loops (idempotent; needs a running loop).

        Called automatically by the first ``await ingest(...)``; exposed so a
        server can start the loops eagerly at boot.
        """
        if self._closed:
            raise StreamingError(f"{self.name}: service is closed")
        if self._started:
            return
        self._loops = [
            asyncio.get_running_loop().create_task(
                self._ingest_loop(shard_id), name=f"{self.name}-ingest{shard_id}"
            )
            for shard_id in range(self._service.num_shards)
        ]
        self._started = True

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    async def ingest(self, events: StreamBatch | Iterable[SampleEvent]) -> int:
        """Route one batch onto the per-shard queues (backpressure-aware).

        A bare iterable of sample events is wrapped into a batch whose
        watermark is its latest sample time.  Returns once every sub-batch is
        *enqueued* — which may suspend when a queue is full — not once it is
        ingested; ``await drain()`` is the flush barrier.  Contract violations
        (watermark regressions, late samples) are detected by the shard ingest
        loops and re-raised here on the next call.
        """
        self._raise_pending_error()
        if self._closed:
            raise StreamingError(f"{self.name}: service is closed")
        self.start()
        batch = (
            events
            if isinstance(events, StreamBatch)
            else StreamBatch.of(tuple(events))
        )
        # Serialize producers: concurrent ingest() calls must not interleave
        # their per-shard puts, or shard FIFOs could see batches out of
        # watermark order.
        async with self._ingest_lock:
            for queue, sub in zip(self._queues, self._service.route_batch(batch)):
                await queue.put(sub)
        return len(batch.samples)

    async def _ingest_loop(self, shard_id: int) -> None:
        queue = self._queues[shard_id]
        while True:
            await self._gate.wait()
            sub = await queue.get()
            try:
                # Rejection is atomic at the shard (validate-then-mutate), so
                # later queued batches may still apply after a bad one; only
                # the first error is kept for reporting.
                self._service.ingest_shard(shard_id, sub, prevalidated=True)
                self._maybe_schedule_merges()
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # surfaced on the next API call
                if self._error is None:
                    self._error = exc
            finally:
                queue.task_done()

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # ------------------------------------------------------------------
    # background merges
    # ------------------------------------------------------------------
    def _maybe_schedule_merges(self) -> None:
        for shard_id in self._service.shards_due_for_merge():
            if shard_id not in self._merge_tasks:
                self._schedule_merge(shard_id)

    def _schedule_merge(self, shard_id: int) -> "asyncio.Task[None]":
        low = self._service.low_watermark
        assert low is not None, "merges are only scheduled past the low-watermark"
        shard = self._service.shard_services[shard_id]
        # Capture the frozen prefix synchronously; everything after this line
        # may interleave with further ingestion into the same shard.
        inputs = shard.prepare_merge(through=low)
        task = asyncio.get_running_loop().create_task(
            self._run_merge(shard, inputs),
            name=f"{self.name}-merge{shard_id}@{inputs.bound}",
        )
        # Bookkeeping lives in the done-callback, not the coroutine: a task
        # cancelled before its first step never runs any coroutine code, and
        # the shard must not stay marked merge-in-flight when that happens.
        task.add_done_callback(
            lambda done, shard_id=shard_id: self._on_merge_done(shard_id, done)
        )
        self._merge_tasks[shard_id] = task
        return task

    async def _run_merge(
        self, shard: StreamingReachabilityService, inputs: MergeInputs
    ) -> None:
        try:
            # The coordinator's shared MergeExecutor decides where the pure
            # build runs: the inline executor would build right here on the
            # event loop, so it is wrapped in to_thread (preserving the
            # pre-executor behaviour — one background thread per merge);
            # thread/process pools already run elsewhere, so the loop just
            # awaits their future.
            executor = self._service.merge_executor
            if executor.kind == "inline":
                build = await asyncio.to_thread(build_merge, inputs)
            else:
                build = await asyncio.wrap_future(
                    executor.submit(inputs)
                )
            # Atomic from here to the end of the invalidation: no await, so a
            # concurrent query sees the old snapshot or the new one, never a
            # half-adopted state or a stale cached answer.  A cancellation
            # landing during the build discards the result unadopted; the
            # live overlay is never touched, so the service stays consistent.
            shard.adopt_merge(build, inputs)
            self._service.invalidate_cache()
            self._background_merges += 1
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if self._error is None:
                self._error = exc

    def _on_merge_done(self, shard_id: int, task: "asyncio.Task[None]") -> None:
        if self._merge_tasks.get(shard_id) is task:
            del self._merge_tasks[shard_id]
        if task.cancelled():
            self._cancelled_merges += 1

    def schedule_merge(self) -> List["asyncio.Task[None]"]:
        """Force background merges for every shard with unfrozen prefix.

        The async analog of the synchronous ``merge()``: schedules (but does
        not await) one background merge per eligible shard at the current
        low-watermark, skipping shards that already have one in flight.
        Returns the in-flight merge tasks; ``await drain()`` (or awaiting the
        tasks directly) is the completion barrier.
        """
        if self._service.low_watermark is None:
            raise StreamingError("nothing to merge: no shard has a watermark yet")
        for shard_id in self._service.shards_due_for_merge(force=True):
            if shard_id not in self._merge_tasks:
                self._schedule_merge(shard_id)
        return list(self._merge_tasks.values())

    async def cancel_in_flight_merges(self) -> int:
        """Cancel every in-flight background merge; returns how many.

        A cancelled merge never adopts its half-built snapshot, so the live
        overlay (and every answer derived from it) is untouched.
        """
        tasks = list(self._merge_tasks.values())
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0)  # let done-callbacks settle the counters
        return len(tasks)

    async def _await_in_flight_merges(self) -> None:
        tasks = list(self._merge_tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0)  # let done-callbacks settle the counters

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    async def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer a query over the globally complete prefix.

        Never blocks on a merge build: background merges run in workers
        and only their atomic adoption touches the overlays this reads.
        Answers are clipped at the cross-shard low-watermark, exactly like
        the synchronous sharded service.
        """
        if self._closed:
            raise StreamingError(f"{self.name}: service is closed")
        return self._service.query(query)

    # ------------------------------------------------------------------
    # flow control / shutdown
    # ------------------------------------------------------------------
    def pause_ingest(self) -> None:
        """Stall every ingest loop before its next dequeue (quiesce hook)."""
        self._gate.clear()

    def resume_ingest(self) -> None:
        """Release loops stalled by :meth:`pause_ingest`."""
        self._gate.set()

    async def drain(self) -> AsyncStats:
        """Flush: await empty queues and in-flight merges, surface errors.

        After ``drain()`` returns, every enqueued batch has been ingested (or
        rejected — in which case the rejection is raised here) and no merge is
        in flight, so the low-watermark reflects everything fed so far.

        Raises :class:`StreamingError` instead of deadlocking when called
        with batches enqueued while :meth:`pause_ingest` is in effect — a
        paused loop can never empty its queue.
        """
        if self._started:
            if not self._gate.is_set() and self.pending_batches > 0:
                raise StreamingError(
                    f"{self.name}: drain() with ingest paused and "
                    f"{self.pending_batches} batch(es) enqueued would never "
                    "complete; call resume_ingest() first"
                )
            for queue in self._queues:
                await queue.join()
            await self._await_in_flight_merges()
        self._raise_pending_error()
        return self.stats

    async def replay(self, source) -> AsyncStats:
        """Ingest an entire stream source (or dataset / canned name), then drain."""
        if isinstance(source, (TrajectoryDataset, str)):
            source = replay(source, batch_ticks=self.streaming_config.batch_ticks)
        for batch in source.batches():
            await self.ingest(batch)
        return await self.drain()

    async def aclose(self) -> None:
        """Graceful shutdown: drain, stop the ingest loops, close storage.

        In-flight merges are awaited (not cancelled); afterwards every
        coroutine method raises.  Safe to call more than once.  A
        :meth:`pause_ingest` still in effect is released first — shutdown
        must flush, not deadlock behind a forgotten pause (this also covers
        the ``async with`` exit path when the body raises mid-pause).
        Closing the wrapped sharded service last is what makes persistent
        backends durable: each shard's overlay manifest is written and its
        devices fsync'd, so buffered writes cannot be lost with the process;
        :meth:`reopen` restores the result as a read-only query service.
        """
        if self._closed:
            return
        try:
            self.resume_ingest()
            await self.drain()
        finally:
            self._closed = True
            for task in self._loops:
                task.cancel()
            if self._loops:
                await asyncio.gather(*self._loops, return_exceptions=True)
            await self._await_in_flight_merges()
            self._service.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> ShardedReachabilityService:
        """The wrapped synchronous sharded service (overlays, ingestor)."""
        return self._service

    @property
    def num_shards(self) -> int:
        """Number of ingestion shards (= ingest loops = queues)."""
        return self._service.num_shards

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """The global low-watermark (the single-service interface alias)."""
        return self._service.low_watermark

    @property
    def low_watermark(self) -> Optional[TimeInstant]:
        """Minimum per-shard watermark: the end of the answerable prefix."""
        return self._service.low_watermark

    @property
    def pending_batches(self) -> int:
        """Sub-batches sitting in the per-shard queues right now."""
        return sum(queue.qsize() for queue in self._queues)

    @property
    def merges_in_flight(self) -> int:
        """Background merges currently building or awaiting adoption."""
        return len(self._merge_tasks)

    @property
    def background_merges(self) -> int:
        """Background merges adopted so far."""
        return self._background_merges

    @property
    def cancelled_merges(self) -> int:
        """Background merges cancelled before adoption."""
        return self._cancelled_merges

    @property
    def num_merges(self) -> int:
        """Merges performed across all shards (adopted ones only)."""
        return self._service.num_merges

    @property
    def stats(self) -> AsyncStats:
        """A snapshot of the service's counters."""
        return AsyncStats(
            sharded=self._service.stats,
            pending_batches=self.pending_batches,
            background_merges=self._background_merges,
            cancelled_merges=self._cancelled_merges,
            merges_in_flight=self.merges_in_flight,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncReachabilityService(name={self.name!r}, "
            f"shards={self.num_shards}, low_watermark={self.low_watermark}, "
            f"pending={self.pending_batches}, in_flight={self.merges_in_flight})"
        )
