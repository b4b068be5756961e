"""Contacts and contact networks.

A *contact* ``c = {oi, oj}`` happens when two objects are within the distance
threshold ``dT``; the maximal continuous interval over which they stay within
``dT`` is the contact's *validity interval* ``Tc`` (Section 3.1).  A *contact
network* ``C`` is the collection of all contacts among a set of objects over a
time horizon, together with the trajectory dataset they came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.errors import ContactNetworkError
from ..core.types import ObjectId, TimeInstant, TimeInterval
from ..trajectory.model import TrajectoryDataset

__all__ = ["Contact", "ContactNetwork"]


@dataclass(frozen=True, slots=True)
class Contact:
    """A contact between two objects with a continuous validity interval.

    The pair is stored unordered (contacts are symmetric); ``first`` is always
    the smaller object id.  Two contacts between the same objects with
    disjoint validity intervals are distinct contacts (the paper's ``c1`` and
    ``c4`` example).
    """

    first: ObjectId
    second: ObjectId
    validity: TimeInterval

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ContactNetworkError("a contact requires two distinct objects")
        if self.first > self.second:
            raise ContactNetworkError(
                "contact objects must be stored in ascending id order"
            )

    @staticmethod
    def between(a: ObjectId, b: ObjectId, validity: TimeInterval) -> "Contact":
        """Create a contact normalizing the object order."""
        lo, hi = (a, b) if a < b else (b, a)
        return Contact(lo, hi, validity)

    @property
    def objects(self) -> Tuple[ObjectId, ObjectId]:
        """The two contacting objects (ascending id order)."""
        return (self.first, self.second)

    def involves(self, object_id: ObjectId) -> bool:
        """True when ``object_id`` is one of the contacting objects."""
        return object_id == self.first or object_id == self.second

    def other(self, object_id: ObjectId) -> ObjectId:
        """The partner of ``object_id`` in this contact."""
        if object_id == self.first:
            return self.second
        if object_id == self.second:
            return self.first
        raise ContactNetworkError(f"object {object_id} is not part of this contact")

    def active_at(self, t: TimeInstant) -> bool:
        """True when the contact's validity interval contains ``t``."""
        return self.validity.contains(t)

    def clipped(self, lo: TimeInstant, hi: TimeInstant) -> Optional["Contact"]:
        """This contact restricted to ``[lo, hi]``, or ``None`` if none remains.

        Returns ``self`` when the window already covers the validity interval.
        Splitting or truncating a validity interval at any boundary is
        lossless for reachability (transmission happens at single instants),
        which is the invariant the streaming subsystem's watermark clipping
        at snapshot boundaries relies on.
        """
        if hi < lo:
            return None
        validity = self.validity.clipped(lo, hi)
        if validity is None:
            return None
        if validity == self.validity:
            return self
        return Contact(self.first, self.second, validity)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"c(o{self.first}, o{self.second}, {self.validity})"


class ContactNetwork:
    """The contact network ``C`` of a trajectory dataset over its horizon.

    Contacts are indexed two ways for efficient access during index
    construction and query processing:

    * by time instance — all contacts active at tick ``t`` (used to build the
      TEN snapshots and the per-snapshot connected components), and
    * by object — all contacts involving an object, sorted by start time.

    ``dataset`` gives the objects and the horizon; no sample is read.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        contacts: Iterable[Contact],
        distance_threshold: float,
    ) -> None:
        self.dataset = dataset
        self.distance_threshold = distance_threshold
        self._contacts: List[Contact] = sorted(
            contacts, key=lambda c: (c.validity.start, c.first, c.second)
        )
        horizon = dataset.horizon
        self._by_time: Dict[TimeInstant, List[Contact]] = {}
        self._by_object: Dict[ObjectId, List[Contact]] = {}
        for contact in self._contacts:
            if not horizon.contains_interval(contact.validity):
                raise ContactNetworkError(
                    f"contact {contact} lies outside the dataset horizon {horizon}"
                )
            if contact.first not in dataset or contact.second not in dataset:
                raise ContactNetworkError(
                    f"contact {contact} references an unknown object"
                )
            for t in contact.validity.instants():
                self._by_time.setdefault(t, []).append(contact)
            self._by_object.setdefault(contact.first, []).append(contact)
            self._by_object.setdefault(contact.second, []).append(contact)

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def contacts(self) -> List[Contact]:
        """All contacts sorted by validity start time."""
        return list(self._contacts)

    @property
    def num_contacts(self) -> int:
        """Number of distinct contacts (each with a continuous validity)."""
        return len(self._contacts)

    @property
    def horizon(self) -> TimeInterval:
        """The time horizon of the underlying dataset."""
        return self.dataset.horizon

    @property
    def object_ids(self) -> List[ObjectId]:
        """All object ids of the underlying dataset."""
        return self.dataset.object_ids

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    # ------------------------------------------------------------------
    # snapshot views
    # ------------------------------------------------------------------
    def contacts_at(self, t: TimeInstant) -> List[Contact]:
        """Contacts whose validity interval contains ``t``."""
        return list(self._by_time.get(t, ()))

    def snapshot_adjacency(self, t: TimeInstant) -> Dict[ObjectId, Set[ObjectId]]:
        """Adjacency lists of the snapshot graph ``G_t`` (contacts only)."""
        adjacency: Dict[ObjectId, Set[ObjectId]] = {}
        for contact in self._by_time.get(t, ()):
            adjacency.setdefault(contact.first, set()).add(contact.second)
            adjacency.setdefault(contact.second, set()).add(contact.first)
        return adjacency

    # ------------------------------------------------------------------
    # per-object views
    # ------------------------------------------------------------------
    def contacts_of(self, object_id: ObjectId) -> List[Contact]:
        """Contacts involving ``object_id``, sorted by start time."""
        return list(self._by_object.get(object_id, ()))

    def contacts_overlapping(self, interval: TimeInterval) -> List[Contact]:
        """Contacts whose validity interval overlaps ``interval``."""
        return [c for c in self._contacts if c.validity.overlaps(interval)]

    # ------------------------------------------------------------------
    # statistics (used by the experiments section)
    # ------------------------------------------------------------------
    def total_contact_instants(self) -> int:
        """Total number of (contact, tick) pairs; a density measure."""
        return sum(contact.validity.length for contact in self._contacts)

    def average_degree_at(self, t: TimeInstant) -> float:
        """Average snapshot degree at tick ``t`` over all objects."""
        adjacency = self.snapshot_adjacency(t)
        if not self.dataset.num_objects:
            return 0.0
        return sum(len(neighbours) for neighbours in adjacency.values()) / float(
            self.dataset.num_objects
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContactNetwork(objects={self.dataset.num_objects}, "
            f"contacts={len(self._contacts)}, dT={self.distance_threshold})"
        )
