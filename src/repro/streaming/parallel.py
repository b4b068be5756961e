"""True multi-core execution: process-parallel merges and query workers.

Everything before this module runs on one core: background merges are Python
threads (serialized by the GIL for the CPU-bound build phase) and every query
executes on the thread that asked.  This module adds the two process-parallel
paths:

* **write side** — a :class:`MergeExecutor` runs the pure build phase of the
  three-phase merge protocol (see ``docs/MERGE_PROTOCOL.md``) on a pool of
  OS processes.  :class:`~repro.streaming.service.MergeInputs` is a frozen
  picklable dataclass and :func:`~repro.streaming.service.build_merge` a pure
  function of it, so shipping the inputs to a worker process and the built
  :class:`~repro.streaming.delta.SnapshotArtifacts` back is safe by
  construction;
  the *adopting* thread stays the one that owns the overlay.  Three kinds are
  selectable via :attr:`~repro.core.config.StreamingConfig.merge_executor`:
  ``inline`` (build on the calling thread — the historical behaviour),
  ``thread`` (a thread pool: overlaps builds with IO but not with each other)
  and ``process`` (a process pool: builds genuinely run on multiple cores).

* **read side** — a :class:`ParallelQueryService` answers queries on a pool
  of worker processes.  Each worker reopens the service's flushed state
  read-only (:class:`~repro.streaming.service.SnapshotQueryService`, or the
  sharded restore path with its per-shard snapshots — the durable reopen
  from the recovery work is what makes this possible) and caches it between
  queries.  The pool is invalidated by *snapshot generation*: adopting a
  merge bumps the generation, and a worker holding an older generation
  gracefully recycles — closes its reopened snapshot and reopens the freshly
  flushed state — before answering.  Answers are therefore always
  bit-identical to the batch reference evaluator over the committed prefix
  the generation promised.

See ``docs/MERGE_PROTOCOL.md`` for why the protocol's phase split makes this
legal.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import MERGE_EXECUTORS, StorageConfig
from ..core.errors import ConfigurationError, StreamingError
from ..core.types import QueryResult, ReachabilityQuery, TimeInstant
from ..obs import Counters, MergeTiming, MergeTimings
from .delta import SnapshotArtifacts
from .service import MergeInputs, build_merge

__all__ = [
    "InlineMergeExecutor",
    "MergeExecutor",
    "ParallelQueryService",
    "PoolMergeExecutor",
    "make_merge_executor",
]


def _timed_build(
    inputs: MergeInputs, submitted_at: float
) -> Tuple[SnapshotArtifacts, float, float]:
    """Run the pure build phase, measuring queue wait and build wall time.

    Module-level (not a closure) so the process pool can pickle it by
    reference.  ``submitted_at`` is a ``time.time()`` stamp from the
    submitting process — wall clocks are shared across processes on one
    host, unlike ``perf_counter``.
    """
    started = time.time()
    t0 = time.perf_counter()
    build = build_merge(inputs)
    return build, max(0.0, started - submitted_at), time.perf_counter() - t0


class MergeExecutor:
    """Where the pure build phase of a merge runs.

    ``submit`` hands captured :class:`~repro.streaming.service.MergeInputs`
    to the executor and returns a :class:`concurrent.futures.Future`
    resolving to the :class:`~repro.streaming.delta.SnapshotArtifacts`; the caller
    adopts the result on the thread that owns the overlay
    (:meth:`~repro.streaming.service.StreamingReachabilityService.adopt_merge`).
    Subclasses choose the execution vehicle; this base class keeps the shared
    bookkeeping: in-flight accounting (who overlapped whom), a
    :class:`~repro.obs.MergeTimings` log, and a :class:`~repro.obs.Counters`
    registry.
    """

    #: Executor kind, one of :data:`~repro.core.config.MERGE_EXECUTORS`.
    kind: str = "inline"

    def __init__(self) -> None:
        self.timings = MergeTimings()
        self.counters = Counters()
        self._in_flight: Dict[int, bool] = {}  # ticket -> saw a concurrent build
        self._next_ticket = 0

    # -- in-flight/overlap bookkeeping ---------------------------------
    def _begin(self) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        # Every build already in flight overlaps the new one, and vice versa.
        overlapped = bool(self._in_flight)
        for other in self._in_flight:
            self._in_flight[other] = True
        self._in_flight[ticket] = overlapped
        return ticket

    def _finish(
        self, ticket: int, queued_seconds: float, build_seconds: float
    ) -> None:
        overlapped = self._in_flight.pop(ticket, False)
        self.timings.record(
            MergeTiming(
                executor=self.kind,
                queued_seconds=queued_seconds,
                build_seconds=build_seconds,
                overlapped=overlapped,
            )
        )
        self.counters.add("merge.builds")
        if overlapped:
            self.counters.add("merge.overlapped_builds")

    # -- the interface subclasses implement ----------------------------
    def submit(self, inputs: MergeInputs) -> "Future[SnapshotArtifacts]":
        """Schedule one pure build; the future resolves to its result."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker pools, waiting for in-flight builds.  Idempotent."""

    @property
    def in_flight(self) -> int:
        """Builds currently submitted and not yet finished."""
        return len(self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r})"


class InlineMergeExecutor(MergeExecutor):
    """Build on the calling thread (the historical single-core behaviour).

    ``submit`` returns an already-completed future: by the time the caller
    sees it, the build ran to completion (or raised) right here.  This is
    the default executor — zero new moving parts, bit-identical scheduling
    to every release before the executor abstraction existed.
    """

    kind = "inline"

    def submit(self, inputs: MergeInputs) -> "Future[SnapshotArtifacts]":
        """Run :func:`build_merge` right here; the future is already done."""
        ticket = self._begin()
        future: "Future[SnapshotArtifacts]" = Future()
        t0 = time.perf_counter()
        try:
            build = build_merge(inputs)
        except BaseException as exc:
            self._finish(ticket, 0.0, time.perf_counter() - t0)
            future.set_exception(exc)
            return future
        self._finish(ticket, 0.0, time.perf_counter() - t0)
        future.set_result(build)
        return future


class PoolMergeExecutor(MergeExecutor):
    """Build on a worker pool: threads (``thread``) or processes (``process``).

    The thread pool overlaps builds with the caller (and with each other up
    to the GIL); the process pool is the true multi-core path — inputs are
    pickled to worker processes, builds run concurrently on separate cores,
    and the built artifacts are pickled back for adoption.
    """

    def __init__(self, kind: str, workers: int) -> None:
        super().__init__()
        if kind not in ("thread", "process"):
            raise ConfigurationError(
                f"unknown pool executor kind {kind!r}; use 'thread' or 'process'"
            )
        if workers <= 0:
            raise ConfigurationError("merge_workers must be positive")
        self.kind = kind
        self.workers = workers
        self._pool: Union[ThreadPoolExecutor, ProcessPoolExecutor, None] = None
        self._closed = False

    def _ensure_pool(self) -> Union[ThreadPoolExecutor, ProcessPoolExecutor]:
        if self._closed:
            raise StreamingError("merge executor is closed")
        if self._pool is None:
            if self.kind == "process":
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="merge-build"
                )
        return self._pool

    def submit(self, inputs: MergeInputs) -> "Future[SnapshotArtifacts]":
        """Ship the build to the pool and return a future."""
        pool = self._ensure_pool()
        ticket = self._begin()
        inner = pool.submit(_timed_build, inputs, time.time())
        future: "Future[SnapshotArtifacts]" = Future()

        def _unwrap(done: "Future[Tuple[SnapshotArtifacts, float, float]]") -> None:
            try:
                build, queued, took = done.result()
            except BaseException as exc:
                self._finish(ticket, 0.0, 0.0)
                # False means the caller already cancelled the outer future
                # (the async service does on shutdown): drop the result —
                # nothing was adopted, so the live overlay is untouched.
                if future.set_running_or_notify_cancel():
                    future.set_exception(exc)
                return
            self._finish(ticket, queued, took)
            if future.set_running_or_notify_cancel():
                future.set_result(build)

        inner.add_done_callback(_unwrap)
        return future

    def close(self) -> None:
        """Drain and shut down the pool; idempotent."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_merge_executor(kind: str, workers: int = 2) -> MergeExecutor:
    """The :class:`MergeExecutor` for an executor kind.

    ``kind`` is one of :data:`~repro.core.config.MERGE_EXECUTORS`; ``workers``
    sizes the pool and is ignored by ``inline``.
    """
    if kind not in MERGE_EXECUTORS:
        raise ConfigurationError(
            f"unknown merge executor {kind!r}; "
            f"choose one of {', '.join(MERGE_EXECUTORS)}"
        )
    if kind == "inline":
        return InlineMergeExecutor()
    return PoolMergeExecutor(kind, workers)


# ----------------------------------------------------------------------
# read side: process-parallel query workers
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _SnapshotSpec:
    """Everything a worker process needs to reopen the flushed state.

    Frozen and picklable; travels with every task so a worker can validate
    its cached snapshot against the requested generation.
    """

    storage_config: StorageConfig
    name: str
    sharded: bool

    @property
    def key(self) -> Tuple[Optional[str], str, str, bool]:
        return (
            self.storage_config.storage_dir,
            self.storage_config.backend,
            self.name,
            self.sharded,
        )


#: Worker-process cache: spec key -> (generation, reopened read-only service).
#: Lives in the *worker's* module globals — each pool process holds at most
#: one reopened snapshot per service, reused across queries of the same
#: generation and recycled when the generation moves.
_WORKER_SNAPSHOTS: Dict[Tuple[Optional[str], str, str, bool], Tuple[int, object]] = {}


def _worker_snapshot(spec: _SnapshotSpec, generation: int):
    """The worker's reopened read-only service for ``spec`` at ``generation``.

    The graceful-recycle point: a cached snapshot of an older generation is
    closed (releasing its device handles) and the freshly flushed state is
    reopened in its place.  Requests never go backwards — the parent only
    ever bumps the generation — so a cached *newer* generation is also
    served as-is rather than reopened (a racing older request would observe
    a newer committed prefix, which the contract allows).
    """
    held = _WORKER_SNAPSHOTS.get(spec.key)
    if held is not None and held[0] >= generation:
        return held[1]
    if held is not None:
        held[1].close()  # type: ignore[attr-defined]
        del _WORKER_SNAPSHOTS[spec.key]
    if spec.sharded:
        from .coordinator import ShardedSnapshotQueryService

        service: object = ShardedSnapshotQueryService.open(
            spec.storage_config, spec.name
        )
    else:
        from .service import SnapshotQueryService

        service = SnapshotQueryService.open(spec.storage_config, spec.name)
    _WORKER_SNAPSHOTS[spec.key] = (generation, service)
    return service


def _worker_query(
    spec: _SnapshotSpec, generation: int, query: ReachabilityQuery
) -> QueryResult:
    """Answer one query in a worker process (module-level for pickling)."""
    return _worker_snapshot(spec, generation).query(query)  # type: ignore[attr-defined]


def _worker_watermark(spec: _SnapshotSpec, generation: int) -> Optional[TimeInstant]:
    """The watermark of the worker's reopened snapshot at ``generation``."""
    return _worker_snapshot(spec, generation).watermark  # type: ignore[attr-defined]


class ParallelQueryService:
    """Read-side scale-out: queries answered by a pool of worker processes.

    Each worker reopens the flushed state read-only — the unsharded
    :class:`~repro.streaming.service.SnapshotQueryService`, or the sharded
    restore path whose per-shard snapshots and cross-shard log reproduce the
    coordinator's fan-out — and keeps it open across queries, so the
    per-query cost is one pickle round-trip, not a reopen.  Every submitted
    task carries the current *snapshot generation*; a worker holding an
    older snapshot closes and reopens before answering (see
    :func:`_worker_snapshot`), which is how a merge adoption propagates to
    the read fleet without restarting any process.

    Two ways in:

    * :meth:`open` — over a directory some service already flushed (a pure
      read-replica fleet; generations only move via :meth:`refresh`);
    * :meth:`for_service` — attached to a *live* service: every ``query``
      first checks the service's merge counter, and a newly adopted merge
      triggers ``flush()`` + a generation bump automatically, so the fleet
      tracks the live snapshot with at most one merge of lag and zero
      manual choreography.

    The answering contract matches the reopened shapes it is built from:
    whatever :attr:`watermark` reports is the committed prefix every answer
    is bit-identical to the batch reference evaluator over.
    """

    def __init__(
        self,
        storage_config: StorageConfig,
        name: str,
        workers: int = 2,
        sharded: bool = False,
        service: object = None,
    ) -> None:
        if storage_config.backend == "sim" or storage_config.storage_dir is None:
            raise StreamingError(
                "parallel query workers reopen flushed state from disk; "
                "use a persistent backend and a real storage_dir"
            )
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        self._spec = _SnapshotSpec(
            storage_config=storage_config, name=name, sharded=sharded
        )
        self._workers = workers
        self._service = service
        self._generation = 1
        self._merges_at_refresh = self._live_merges()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queries = 0
        self._refreshes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        storage_config: StorageConfig,
        name: str,
        workers: int = 2,
        sharded: bool = False,
    ) -> "ParallelQueryService":
        """A worker fleet over state some service already flushed to disk.

        ``name``/``sharded`` select the same shapes as
        :meth:`repro.ReachabilityEngine.reopen_streaming`; nothing is opened
        in this process — the first query makes each worker reopen lazily.
        """
        return cls(storage_config, name, workers=workers, sharded=sharded)

    @classmethod
    def for_service(cls, service: object, workers: int = 2) -> "ParallelQueryService":
        """A worker fleet attached to a live streaming service.

        ``service`` is an unsharded
        :class:`~repro.streaming.service.StreamingReachabilityService` or a
        :class:`~repro.streaming.coordinator.ShardedReachabilityService` on a
        persistent backend with a real ``storage_dir``.  The service is
        flushed once here (so workers have a committed prefix to open) and
        re-flushed automatically whenever its merge counter advances.
        """
        from .coordinator import ShardedReachabilityService
        from .service import StreamingReachabilityService

        if isinstance(service, ShardedReachabilityService):
            sharded = True
            storage_config = service.storage.config
        elif isinstance(service, StreamingReachabilityService):
            sharded = False
            storage_config = service.overlay.storage.config
        else:
            raise StreamingError(
                "for_service expects a StreamingReachabilityService or "
                f"ShardedReachabilityService, got {type(service).__name__}"
            )
        service.flush()
        return cls(
            storage_config,
            service.name,
            workers=workers,
            sharded=sharded,
            service=service,
        )

    def __enter__(self) -> "ParallelQueryService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # generation management
    # ------------------------------------------------------------------
    def _live_merges(self) -> Optional[int]:
        if self._service is None:
            return None
        return self._service.num_merges  # type: ignore[attr-defined]

    def _maybe_refresh(self) -> None:
        # Attached mode: an adopted merge swapped the snapshot the workers
        # hold; commit the new state and invalidate the fleet by generation.
        if self._service is not None and self._live_merges() != self._merges_at_refresh:
            self.refresh()

    def refresh(self) -> int:
        """Commit the latest live state and invalidate the worker fleet.

        Flushes the attached service (no-op in :meth:`open` mode, where the
        flusher is someone else) and bumps the generation; each worker
        recycles its reopened snapshot on its next task.  Returns the new
        generation.
        """
        self._ensure_open()
        if self._service is not None:
            self._service.flush()  # type: ignore[attr-defined]
            self._merges_at_refresh = self._live_merges()
        self._generation += 1
        self._refreshes += 1
        return self._generation

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer one query on a worker process over the committed prefix."""
        self._ensure_open()
        self._maybe_refresh()
        self._queries += 1
        return self._ensure_pool().submit(
            _worker_query, self._spec, self._generation, query
        ).result()

    def query_many(self, queries: Sequence[ReachabilityQuery]) -> List[QueryResult]:
        """Answer a batch of queries across the fleet, results in order.

        All queries are submitted before the first result is awaited, so up
        to ``workers`` of them execute concurrently — the read-side analogue
        of the process merge pool.
        """
        self._ensure_open()
        self._maybe_refresh()
        self._queries += len(queries)
        pool = self._ensure_pool()
        generation = self._generation
        futures = [
            pool.submit(_worker_query, self._spec, generation, query)
            for query in queries
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[TimeInstant]:
        """The committed watermark answers are promised over (asks a worker)."""
        self._ensure_open()
        self._maybe_refresh()
        return self._ensure_pool().submit(
            _worker_watermark, self._spec, self._generation
        ).result()

    @property
    def generation(self) -> int:
        """Snapshot generation the next task will carry (starts at 1)."""
        return self._generation

    @property
    def workers(self) -> int:
        """Size of the worker pool."""
        return self._workers

    @property
    def num_queries(self) -> int:
        """Queries submitted so far."""
        return self._queries

    @property
    def num_refreshes(self) -> int:
        """Generation bumps so far (manual or merge-triggered)."""
        return self._refreshes

    def close(self) -> None:
        """Shut the worker pool down (reopened snapshots die with it).

        Idempotent; the attached live service (if any) is *not* closed —
        its lifecycle belongs to whoever created it.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_open(self) -> None:
        if self._closed:
            raise StreamingError("parallel query service is closed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelQueryService(name={self._spec.name!r}, "
            f"workers={self._workers}, sharded={self._spec.sharded}, "
            f"generation={self._generation})"
        )


#: Callable type of the build phase, re-exported for documentation purposes:
#: every executor funnels through :func:`~repro.streaming.service.build_merge`.
BuildFn = Callable[[MergeInputs], SnapshotArtifacts]
