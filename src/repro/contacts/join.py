"""Spatiotemporal (window trajectory) join.

Contacts are extracted from trajectories by a self-join: for every time
instance, find all pairs of objects within distance ``dT`` of each other
(Section 4: ``R(Tp) ⋈_dT R(Tp)``).  One kernel does the spatial part for every
caller: :class:`SpatialHash` unpacks each position into an ``(object, x, y)``
entry of a uniform grid hash with bucket side ``dT`` — once — so that a pair
can only be within ``dT`` if its members sit in the same or in adjacent
buckets.  The hash answers two questions:

* :meth:`SpatialHash.pairs` — every unordered pair within ``dT`` (each pair of
  adjacent buckets visited once).  :func:`pairs_within_distance` wraps it for
  a ``{object: Point}`` snapshot and is the per-tick join of the offline
  builder (:func:`build_contact_network`), of streaming ingest and of the
  SPJ baseline.
* :meth:`SpatialHash.within` — the objects within ``dT`` of one point (its
  3x3 buckets).  ReachGrid's query processor probes it from the seed frontier
  instead of enumerating every pair of a tick.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import ContactNetworkError
from ..core.types import ObjectId, Point, TimeInstant, TimeInterval
from ..trajectory.model import TrajectoryDataset
from .network import Contact, ContactNetwork

__all__ = [
    "SpatialHash",
    "pairs_within_distance",
    "join_at_instant",
    "build_contact_network",
]

#: One hashed position: ``(object_id, x, y)``.
HashEntry = Tuple[ObjectId, float, float]


class SpatialHash:
    """A uniform grid hash of ``(object, x, y)`` entries with bucket side ``side``.

    Buckets and their members keep insertion order, which is what fixes the
    order of :meth:`pairs`.
    """

    __slots__ = ("side", "buckets")

    def __init__(self, side: float) -> None:
        if side <= 0:
            raise ContactNetworkError("distance threshold must be positive")
        self.side = side
        self.buckets: Dict[Tuple[int, int], List[HashEntry]] = {}

    def insert(self, entries: Iterable[HashEntry]) -> None:
        """Hash every ``(object, x, y)`` entry into its bucket."""
        side = self.side
        buckets = self.buckets
        for entry in entries:
            key = (int(entry[1] // side), int(entry[2] // side))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)

    def within(self, x: float, y: float) -> List[ObjectId]:
        """Objects hashed within ``side`` of ``(x, y)`` (one test per 3x3 occupant)."""
        side = self.side
        limit = side * side
        get = self.buckets.get
        cx = int(x // side)
        cy = int(y // side)
        hits: List[ObjectId] = []
        for key in (
            (cx - 1, cy - 1), (cx - 1, cy), (cx - 1, cy + 1),
            (cx, cy - 1), (cx, cy), (cx, cy + 1),
            (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
        ):
            bucket = get(key)
            if bucket:
                for object_id, ox, oy in bucket:
                    dx = ox - x
                    dy = oy - y
                    if dx * dx + dy * dy <= limit:
                        hits.append(object_id)
        return hits

    def pairs(self) -> List[Tuple[ObjectId, ObjectId]]:
        """All unordered pairs of entries within ``side``, smaller id first."""
        limit = self.side * self.side
        get = self.buckets.get
        pairs: List[Tuple[ObjectId, ObjectId]] = []
        for (cx, cy), members in self.buckets.items():
            # Pairs inside the same bucket.
            if len(members) > 1:
                for i, (a, ax, ay) in enumerate(members, 1):
                    for b, bx, by in members[i:]:
                        dx = ax - bx
                        dy = ay - by
                        if dx * dx + dy * dy <= limit:
                            pairs.append((a, b) if a < b else (b, a))
            # Pairs with forward neighbour buckets (each bucket pair once).
            for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
                neighbour = get(key)
                if not neighbour:
                    continue
                for a, ax, ay in members:
                    for b, bx, by in neighbour:
                        dx = ax - bx
                        dy = ay - by
                        if dx * dx + dy * dy <= limit:
                            pairs.append((a, b) if a < b else (b, a))
        return pairs


def pairs_within_distance(
    positions: Dict[ObjectId, Point], threshold: float
) -> List[Tuple[ObjectId, ObjectId]]:
    """All unordered pairs of objects within ``threshold`` of each other."""
    grid = SpatialHash(threshold)
    grid.insert(
        [(object_id, position.x, position.y) for object_id, position in positions.items()]
    )
    return grid.pairs()


def join_at_instant(
    dataset: TrajectoryDataset, t: TimeInstant, threshold: float
) -> List[Tuple[ObjectId, ObjectId]]:
    """Pairs of objects of ``dataset`` within ``threshold`` at tick ``t``."""
    return pairs_within_distance(dataset.positions_at(t), threshold)


def build_contact_network(
    dataset: TrajectoryDataset,
    threshold: float,
    window: Optional[TimeInterval] = None,
) -> ContactNetwork:
    """Materialize the contact network of ``dataset`` (or a sub-window of it).

    The join is evaluated tick by tick; runs of consecutive ticks during which
    the same pair stays within ``threshold`` are merged into a single contact
    with a continuous validity interval, as required by Section 3.1.
    """
    horizon = (window or dataset.horizon).intersection(dataset.horizon)
    if horizon is None:
        raise ContactNetworkError("join window does not overlap the dataset horizon")

    # Open contacts: pair -> start tick of the current continuous run.
    open_contacts: Dict[Tuple[ObjectId, ObjectId], TimeInstant] = {}
    finished: List[Contact] = []

    previous_pairs: Set[Tuple[ObjectId, ObjectId]] = set()
    for t in horizon.instants():
        current_pairs = set(join_at_instant(dataset, t, threshold))
        # Pairs that stopped being in contact: close their validity interval.
        for pair in previous_pairs - current_pairs:
            start = open_contacts.pop(pair)
            finished.append(Contact(pair[0], pair[1], TimeInterval(start, t - 1)))
        # Pairs that just came into contact: open a new validity interval.
        for pair in current_pairs - previous_pairs:
            open_contacts[pair] = t
        previous_pairs = current_pairs

    # Close every contact still open at the end of the window.
    for pair, start in open_contacts.items():
        finished.append(Contact(pair[0], pair[1], TimeInterval(start, horizon.end)))

    return ContactNetwork(dataset, finished, distance_threshold=threshold)
