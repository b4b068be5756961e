"""Fundamental value types shared across the library.

The paper models time as a sequence of discrete *time instances* (the sampling
instants of the trajectory dataset).  We follow that convention: a time
instance is a non-negative integer tick, and a :class:`TimeInterval` is an
inclusive pair of ticks.  Space is the Euclidean plane; a :class:`Point` is an
``(x, y)`` pair of floats measured in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InvalidIntervalError

__all__ = [
    "ObjectId",
    "TimeInstant",
    "Point",
    "TimeInterval",
    "ReachabilityQuery",
    "QueryResult",
    "euclidean_distance",
]

# Type aliases used throughout the code base.  Object ids are small dense
# integers assigned by the dataset; time instants are integer ticks.
ObjectId = int
TimeInstant = int


def euclidean_distance(a: "Point", b: "Point") -> float:
    """Return the Euclidean distance between two points in metres."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True, slots=True)
class Point:
    """A position in the 2-D environment, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)


@dataclass(frozen=True, slots=True, order=True)
class TimeInterval:
    """An inclusive interval ``[start, end]`` of integer time instances.

    The interval length is ``end - start + 1`` ticks, mirroring the paper's
    counting of time instances (an interval ``[t, t]`` contains one instance).
    """

    start: TimeInstant
    end: TimeInstant

    def __post_init__(self) -> None:
        if self.start < 0:
            raise InvalidIntervalError(self.start, self.end, "negative start")
        if self.end < self.start:
            raise InvalidIntervalError(self.start, self.end, "end before start")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of time instances covered by the interval."""
        return self.end - self.start + 1

    @property
    def midpoint(self) -> TimeInstant:
        """The middle instant, used by bidirectional traversal."""
        return (self.start + self.end) // 2

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def contains(self, t: TimeInstant) -> bool:
        """True when instant ``t`` lies inside the interval."""
        return self.start <= t <= self.end

    def contains_interval(self, other: "TimeInterval") -> bool:
        """True when ``other`` is fully inside this interval."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """True when the two intervals share at least one instant."""
        return self.start <= other.end and other.start <= self.end

    def intersection(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        """The overlapping sub-interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return TimeInterval(lo, hi)

    def union_span(self, other: "TimeInterval") -> "TimeInterval":
        """Smallest interval covering both intervals (they need not touch)."""
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def clipped(self, lo: TimeInstant, hi: TimeInstant) -> Optional["TimeInterval"]:
        """Clip to ``[lo, hi]``; ``None`` if nothing remains."""
        return self.intersection(TimeInterval(lo, hi))

    def shifted(self, delta: int) -> "TimeInterval":
        """Return the interval translated by ``delta`` ticks."""
        return TimeInterval(self.start + delta, self.end + delta)

    # ------------------------------------------------------------------
    # iteration / splitting
    # ------------------------------------------------------------------
    def instants(self) -> Iterator[TimeInstant]:
        """Iterate the individual time instances of the interval."""
        return iter(range(self.start, self.end + 1))

    def split(self, chunk: int) -> Iterator["TimeInterval"]:
        """Split into consecutive sub-intervals of at most ``chunk`` instants.

        This is the quantization step used by ReachGrid to break a query
        interval into the temporal-grid intervals it overlaps.
        """
        if chunk <= 0:
            raise InvalidIntervalError(self.start, self.end, "chunk must be positive")
        lo = self.start
        while lo <= self.end:
            hi = min(lo + chunk - 1, self.end)
            yield TimeInterval(lo, hi)
            lo = hi + 1

    def __iter__(self) -> Iterator[TimeInstant]:
        return self.instants()

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end}]"


@dataclass(frozen=True, slots=True)
class ReachabilityQuery:
    """A reachability query ``q : source ~interval~> destination``.

    The query asks whether a contact path exists from ``source`` to
    ``destination`` using only contacts whose validity intervals overlap
    ``interval`` and which are ordered in time (Section 3.2 of the paper).
    """

    source: ObjectId
    destination: ObjectId
    interval: TimeInterval

    def reversed(self) -> "ReachabilityQuery":
        """The query with source and destination swapped (same interval)."""
        return ReachabilityQuery(self.destination, self.source, self.interval)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"q: o{self.source} ~{self.interval}~> o{self.destination}"


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of evaluating a reachability query.

    Attributes
    ----------
    reachable:
        Whether the destination is reachable from the source.
    earliest_time:
        The first time instance at which the destination is known to be
        reachable (``None`` when not reachable, or when the evaluation
        strategy cannot determine it, e.g. bidirectional traversal).
    io:
        Normalized IO count charged to the query (``random + sequential/20``).
    random_ios / sequential_ios:
        Raw IO counters.
    cpu_seconds:
        Pure CPU time spent evaluating the query, excluding simulated IO.
    visited:
        Number of index entries (cells or graph vertices) touched.
    """

    reachable: bool
    earliest_time: Optional[TimeInstant] = None
    io: float = 0.0
    random_ios: int = 0
    sequential_ios: int = 0
    cpu_seconds: float = 0.0
    visited: int = 0

    def __bool__(self) -> bool:
        return self.reachable


def span_of(instants: Iterable[TimeInstant]) -> TimeInterval:
    """Return the smallest :class:`TimeInterval` containing all ``instants``."""
    seq: Sequence[TimeInstant] = list(instants)
    if not seq:
        raise InvalidIntervalError(0, -1, "cannot span an empty set of instants")
    return TimeInterval(min(seq), max(seq))


__all__.append("span_of")
