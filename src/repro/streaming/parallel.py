"""Read-side scale-out: queries answered by a pool of worker processes.

A :class:`ParallelQueryService` answers queries on a pool of worker
processes.  Each worker reopens the service's flushed state read-only
(:class:`~repro.streaming.service.SnapshotQueryService` — the durable reopen
from the recovery work is what makes this possible) and caches it between
queries.  The pool is invalidated by *snapshot generation*: adopting a merge
bumps the generation, and a worker holding an older generation gracefully
recycles — closes its reopened snapshot and reopens the freshly flushed
state — before answering.  Answers are therefore always bit-identical to the
batch reference evaluator over the committed prefix the generation promised.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import StorageConfig
from ..core.errors import ConfigurationError, StreamingError
from ..core.types import QueryResult, ReachabilityQuery, TimeInstant
from .service import SnapshotQueryService, StreamingReachabilityService

__all__ = ["ParallelQueryService"]


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

    @property
    def key(self) -> Tuple[Optional[str], str, str]:
        return (self.storage_config.storage_dir, self.storage_config.backend, self.name)


#: Worker-process cache: spec key -> (generation, reopened read-only service).
#: Lives in the *worker's* module globals — each pool process holds at most
#: one reopened snapshot per service, reused across queries of the same
#: generation and recycled when the generation moves.
_WORKER_SNAPSHOTS: Dict[
    Tuple[Optional[str], str, str], Tuple[int, SnapshotQueryService]
] = {}


def _worker_snapshot(spec: _SnapshotSpec, generation: int) -> SnapshotQueryService:
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
        held[1].close()
        del _WORKER_SNAPSHOTS[spec.key]
    service = SnapshotQueryService.open(spec.storage_config, spec.name)
    _WORKER_SNAPSHOTS[spec.key] = (generation, service)
    return service


def _worker_query(
    spec: _SnapshotSpec, generation: int, query: ReachabilityQuery
) -> QueryResult:
    """Answer one query in a worker process (module-level for pickling)."""
    return _worker_snapshot(spec, generation).query(query)


def _worker_watermark(spec: _SnapshotSpec, generation: int) -> Optional[TimeInstant]:
    """The watermark of the worker's reopened snapshot at ``generation``."""
    return _worker_snapshot(spec, generation).watermark


class ParallelQueryService:
    """Read-side scale-out: queries answered by a pool of worker processes.

    Each worker reopens the flushed state read-only as a
    :class:`~repro.streaming.service.SnapshotQueryService` and keeps it open
    across queries, so the
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
        service: Optional[StreamingReachabilityService] = None,
    ) -> None:
        if storage_config.backend == "sim" or storage_config.storage_dir is None:
            raise StreamingError(
                "parallel query workers reopen flushed state from disk; "
                "use a persistent backend and a real storage_dir"
            )
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        self._spec = _SnapshotSpec(storage_config=storage_config, name=name)
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
    ) -> "ParallelQueryService":
        """A worker fleet over state some service already flushed to disk.

        ``name`` is the service name the state was written under, as for
        :meth:`repro.ReachabilityEngine.reopen_streaming`; nothing is opened
        in this process — the first query makes each worker reopen lazily.
        """
        return cls(storage_config, name, workers=workers)

    @classmethod
    def for_service(
        cls, service: StreamingReachabilityService, workers: int = 2
    ) -> "ParallelQueryService":
        """A worker fleet attached to a live streaming service.

        ``service`` must run on a persistent backend with a real
        ``storage_dir``.  It is flushed once here (so workers have a
        committed prefix to open) and re-flushed automatically whenever its
        merge counter advances.
        """
        if not isinstance(service, StreamingReachabilityService):
            raise StreamingError(
                "for_service expects a StreamingReachabilityService, "
                f"got {type(service).__name__}"
            )
        service.flush()
        return cls(
            service.overlay.storage.config,
            service.name,
            workers=workers,
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
        return self._service.num_merges

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
            self._service.flush()
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
        to ``workers`` of them execute concurrently.
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
            f"workers={self._workers}, "
            f"generation={self._generation})"
        )

