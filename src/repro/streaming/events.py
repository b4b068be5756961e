"""Event model of the streaming ingestion subsystem.

The paper's target scenarios — epidemic contact tracing, vehicle
surveillance — are online: position reports arrive continuously.  The
streaming layer models that arrival as an ordered sequence of
:class:`StreamBatch` objects, each carrying the :class:`SampleEvent` position
reports of a few ticks plus a *watermark*: the promise that every sample with
a timestamp at or below the watermark has been delivered.  Watermarks are what
let the ingestor complete ticks and run the incremental contact join without
ever looking at a tick twice.

:class:`ContactEvent` is the *derived* event type: the incremental join emits
one whenever a pair of objects separates, closing the contact's validity
interval.  Open contacts (pairs still within range at the watermark) are not
events yet; the ingestor exposes them separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from ..core.errors import StreamingError
from ..core.types import ObjectId, Point, TimeInstant, TimeInterval
from ..contacts.network import Contact
from ..trajectory.model import TrajectorySample

__all__ = ["SampleEvent", "ContactEvent", "StreamBatch"]


@dataclass(frozen=True, slots=True)
class SampleEvent:
    """A position report: object ``object_id`` was at ``position`` at ``time``."""

    object_id: ObjectId
    time: TimeInstant
    position: Point

    def __post_init__(self) -> None:
        if self.time < 0:
            raise StreamingError("sample event timestamps must be non-negative")

    @staticmethod
    def from_sample(sample: TrajectorySample) -> "SampleEvent":
        """Lift a stored trajectory sample into a stream event."""
        return SampleEvent(sample.object_id, sample.time, sample.position)


@dataclass(frozen=True, slots=True)
class ContactEvent:
    """A closed contact edge emitted by the incremental join.

    Mirrors :class:`~repro.contacts.network.Contact` (unordered pair, maximal
    continuous validity interval) but is a stream-level event: it exists only
    once the pair has separated, i.e. once the validity interval is final.
    """

    first: ObjectId
    second: ObjectId
    validity: TimeInterval

    def __post_init__(self) -> None:
        if self.first >= self.second:
            raise StreamingError(
                "contact events store the smaller object id first"
            )

    @staticmethod
    def from_contact(contact: Contact) -> "ContactEvent":
        """Lift a network contact into a stream event."""
        return ContactEvent(contact.first, contact.second, contact.validity)

    def to_contact(self) -> Contact:
        """The equivalent contact-network edge."""
        return Contact(self.first, self.second, self.validity)


@dataclass(frozen=True, slots=True)
class StreamBatch:
    """One unit of stream delivery: sample events plus a watermark.

    The watermark asserts completeness: no sample with ``time <= watermark``
    will ever arrive after this batch.  Batches must be consumed in
    non-decreasing watermark order; samples inside a batch must not exceed its
    watermark.
    """

    samples: Tuple[SampleEvent, ...]
    watermark: TimeInstant

    def __post_init__(self) -> None:
        if self.watermark < 0:
            raise StreamingError("watermark must be non-negative")
        for sample in self.samples:
            if sample.time > self.watermark:
                raise StreamingError(
                    f"sample at t={sample.time} lies beyond the batch "
                    f"watermark {self.watermark}"
                )

    @staticmethod
    def of(samples: Iterable[SampleEvent], watermark: TimeInstant | None = None) -> "StreamBatch":
        """Build a batch, defaulting the watermark to the latest sample time."""
        materialized = tuple(samples)
        if watermark is None:
            if not materialized:
                raise StreamingError("an empty batch needs an explicit watermark")
            watermark = max(sample.time for sample in materialized)
        return StreamBatch(materialized, watermark)

    @property
    def num_events(self) -> int:
        """Number of sample events carried by the batch."""
        return len(self.samples)

    def __iter__(self) -> Iterator[SampleEvent]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)
