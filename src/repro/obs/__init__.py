"""Lightweight observability hooks: merge timings and named counters.

The streaming services already expose *cumulative* ledgers (records written,
merges, compactions) through their ``stats`` dataclasses; what they could not
answer is *where the wall-clock time of a merge went* — how long the pure
build phase ran, on which executor, and how much of it overlapped with other
builds.  :class:`MergeTimings` is that record: every
:class:`~repro.streaming.parallel.MergeExecutor` appends one
:class:`MergeTiming` per completed build, and the cores-vs-throughput scaling
benchmark reads the aggregate back to attribute speedups to actual overlap
instead of guessing from end-to-end wall time.

Everything here is dependency-free and cheap enough to stay on in
production: recording a timing is one list append under a lock, and
:class:`Counters` is a ``dict`` with atomic increments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Counters", "MergeTiming", "MergeTimings"]


@dataclass(frozen=True, slots=True)
class MergeTiming:
    """One completed merge-build phase, as observed by its executor.

    ``executor`` is the executor kind that ran the build (``inline`` /
    ``thread`` / ``process``), ``queued_seconds`` the time the build spent
    waiting for a worker slot, and ``build_seconds`` the wall time of the
    pure build itself.  ``overlapped`` is True when at least one other build
    was in flight on the same executor at any point of this build — the
    direct witness that multi-worker execution actually ran work
    concurrently rather than serializing it.
    """

    executor: str
    queued_seconds: float
    build_seconds: float
    overlapped: bool


class MergeTimings:
    """A thread-safe append-only log of :class:`MergeTiming` records.

    Owned by a :class:`~repro.streaming.parallel.MergeExecutor`; the scaling
    benchmark (and any operator tooling) reads :meth:`summary` to see how
    many builds ran, how much build time accumulated, and how many builds
    overlapped another one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timings: List[MergeTiming] = []

    def record(self, timing: MergeTiming) -> None:
        """Append one completed build's timing."""
        with self._lock:
            self._timings.append(timing)

    @property
    def timings(self) -> Tuple[MergeTiming, ...]:
        """Every recorded timing, in completion order."""
        with self._lock:
            return tuple(self._timings)

    def __len__(self) -> int:
        with self._lock:
            return len(self._timings)

    def summary(self) -> Dict[str, float]:
        """Aggregate view: build count, total/max build seconds, overlap count.

        ``overlapped_builds`` is the number of builds that shared their
        executor with at least one concurrent build — 0 on the inline
        executor by construction, and the figure a scaling curve should see
        rise with the worker count.
        """
        with self._lock:
            timings = list(self._timings)
        total = sum(t.build_seconds for t in timings)
        return {
            "builds": float(len(timings)),
            "total_build_seconds": total,
            "max_build_seconds": max((t.build_seconds for t in timings), default=0.0),
            "mean_build_seconds": total / len(timings) if timings else 0.0,
            "overlapped_builds": float(sum(1 for t in timings if t.overlapped)),
        }


@dataclass(slots=True)
class Counters:
    """Named monotonically increasing counters with atomic increments.

    A minimal stand-in for a metrics registry: services and executors bump
    counters by name (``counters.add("merge.builds")``), tests and benchmarks
    read them back as a plain dict.  Unknown names start at zero.
    """

    _values: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str, amount: int = 1) -> int:
        """Increment ``name`` by ``amount`` and return the new value."""
        with self._lock:
            value = self._values.get(name, 0) + amount
            self._values[name] = value
            return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        with self._lock:
            return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._values)
