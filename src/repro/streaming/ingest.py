"""Incremental ingestion: the write-ahead log and the online contact join.

:class:`StreamIngestor` consumes watermark-ordered batches of sample events
and maintains, tick by tick:

* **The write-ahead log** — every accepted batch is journaled on the
  ``<name>-grid`` device before any state moves, and :meth:`flush` replaces
  the journaled prefix with a checkpoint of what is still unfrozen: the
  pending ticks, the join state, the per-object horizon bounds and the
  contacts closed past the floor the service's last committed overlay
  manifest covers.  No sample is stored once its tick is joined: the join
  reads only tick ``t``'s positions, and a merge reads only contacts and,
  the first time, the object ids (:meth:`prefix_domain`).
* **Incremental contact extraction** — the same grid-hash join the offline
  builder runs (:func:`repro.contacts.join.pairs_within_distance`), evaluated
  once per newly complete tick.  Runs of consecutive in-contact ticks are kept
  open until the pair separates, at which point a closed
  :class:`~repro.contacts.network.Contact` is emitted for the delta overlay.

Splitting a contact's validity interval at a merge boundary is semantically
lossless for reachability (transmission happens at a single instant, so
``[s, e]`` and ``[s, m] + [m+1, e]`` admit exactly the same transmissions);
the ingestor therefore never needs to reopen or rewrite history, which is what
keeps ingestion strictly append-only.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.config import ContactConfig, ReachGridConfig, StorageConfig
from ..core.errors import StreamingError, WatermarkRegressionError
from ..core.types import ObjectId, Point, TimeInstant, TimeInterval
from ..contacts.join import pairs_within_distance
from ..contacts.network import Contact
from ..reachgraph.index import GraphDomain
from ..storage import StorageSystem
from ..testing.faults import crash_point
from .delta import OpenRun
from .events import SampleEvent, StreamBatch

__all__ = ["StreamIngestor"]

#: Metadata key under which the ingestor checkpoints its WAL position.
_INGEST_CHECKPOINT_KEY = "ingest-checkpoint"

#: On-device format of a service's two devices, stamped on each one's top
#: metadata record: the ``<name>-grid`` checkpoint (:meth:`StreamIngestor.flush`)
#: and the ``<name>-overlay`` manifest (:mod:`repro.streaming.service`), which
#: carries the ReachGraph catalog too.  There is one reader per record, for
#: this format alone.
DEVICE_FORMAT = 3


def check_device_format(record: Dict[str, Any], what: str) -> None:
    """Refuse a device whose top metadata ``record`` is not stamped
    :data:`DEVICE_FORMAT`; called before any block of it is read."""
    found = record.get("format")
    if found != DEVICE_FORMAT:
        raise StreamingError(
            f"{what} is in on-device format {found!r}, expected format "
            f"{DEVICE_FORMAT}: it was written by another version; rebuild it "
            "from the source stream"
        )


class StreamIngestor:
    """Consumes sample-event batches, maintaining the WAL and the contacts."""

    def __init__(
        self,
        environment_size: Tuple[float, float],
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        storage_config: StorageConfig | None = None,
        name: str = "stream",
        storage: StorageSystem | None = None,
    ) -> None:
        if environment_size[0] <= 0 or environment_size[1] <= 0:
            raise StreamingError("environment size must be positive in both axes")
        self.environment_size = (float(environment_size[0]), float(environment_size[1]))
        self.contact_config = contact_config or ContactConfig()
        self.grid_config = grid_config or ReachGridConfig()
        self.name = name
        if storage is not None:
            # The resume path (:meth:`restore`): reattach to the previous
            # incarnation's device and its cataloged files instead of
            # creating fresh ones (attach=False would delete them).
            self.storage = storage
            self._journal = self.storage.blockfile(f"{name}-journal")
        else:
            self.storage = StorageSystem(
                storage_config, name=f"{name}-grid", attach=False
            )
            self._journal = self.storage.new_blockfile(f"{name}-journal")

        # WAL position: batches journaled so far.
        self._journal_entries = 0
        self._replaying = False

        # Stream position: the origin tick (set by the first batch), the
        # watermark (last complete tick), and per-tick pending positions.
        self._origin: Optional[TimeInstant] = None
        self._watermark: Optional[TimeInstant] = None
        self._pending: Dict[TimeInstant, Dict[ObjectId, Point]] = {}

        # Per-object dense horizons [start, next tick); no sample is kept.
        self._starts: Dict[ObjectId, TimeInstant] = {}
        self._next_time: Dict[ObjectId, TimeInstant] = {}

        # Incremental join state.  ``_closed`` holds the closed contacts from
        # absolute position ``_closed_floor`` on (see :meth:`release_closed`).
        self._previous_pairs: Set[Tuple[ObjectId, ObjectId]] = set()
        self._open: Dict[Tuple[ObjectId, ObjectId], TimeInstant] = {}
        self._closed: List[Contact] = []
        self._closed_floor = 0

        self._num_events = 0
        self._ingest_seconds = 0.0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, batch: StreamBatch) -> int:
        """Consume one batch: buffer samples, advance the watermark.

        Returns the number of sample events ingested.  Batches must arrive in
        non-decreasing watermark order; samples must not be late (at or below
        the previous watermark) or duplicated.  Ingestion is atomic: the whole
        batch is validated before any state is touched, so a rejected batch
        (:class:`WatermarkRegressionError`, a late sample, a dense-horizon
        break) leaves the ingestor exactly as it was and can be corrected and
        re-sent.
        """
        started = time.perf_counter()
        self.validate_batch(batch)
        if not self._replaying:
            # Journal the batch before mutating state: every accepted batch
            # is re-ingestable from the WAL once a checkpoint names it.
            self._journal.append_extent(
                (self._journal_entries, batch.watermark),
                [
                    (event.object_id, event.time, event.position.x, event.position.y)
                    for event in batch.samples
                ],
            )
            self._journal_entries += 1
        for event in batch.samples:
            self._buffer_sample(event)
        self._advance_watermark(batch.watermark)
        self._num_events += len(batch.samples)
        self._ingest_seconds += time.perf_counter() - started
        return len(batch.samples)

    def validate_batch(self, batch: StreamBatch) -> None:
        """Check a batch against the ingestion contract without mutating state.

        Raises :class:`~repro.core.errors.WatermarkRegressionError` when the
        batch's watermark lies below the current watermark (accepting it would
        corrupt the ticks already joined), and
        :class:`~repro.core.errors.StreamingError` for late samples or samples
        that break an object's dense horizon.  A batch that validates cleanly
        is guaranteed to be accepted in full by :meth:`ingest`.
        """
        if self._watermark is not None and batch.watermark < self._watermark:
            raise WatermarkRegressionError(batch.watermark, self._watermark)
        expected: Dict[ObjectId, TimeInstant] = {}
        for event in batch.samples:
            if self._watermark is not None and event.time <= self._watermark:
                raise StreamingError(
                    f"late sample for object {event.object_id} at t={event.time} "
                    f"(watermark already at {self._watermark})"
                )
            next_time = expected.get(event.object_id)
            if next_time is None:
                next_time = self._next_time.get(event.object_id)
            if next_time is not None and event.time != next_time:
                raise StreamingError(
                    f"object {event.object_id} sample at t={event.time} breaks "
                    f"its dense horizon (expected t={next_time})"
                )
            expected[event.object_id] = event.time + 1

    def ingest_all(self, batches: Iterable[StreamBatch]) -> int:
        """Consume every batch of a stream source; returns total events."""
        total = 0
        for batch in batches:
            total += self.ingest(batch)
        return total

    def _buffer_sample(self, event: SampleEvent) -> None:
        # Contract checks already ran in validate_batch; this is pure mutation.
        self._starts.setdefault(event.object_id, event.time)
        self._next_time[event.object_id] = event.time + 1
        self._pending.setdefault(event.time, {})[event.object_id] = event.position

    def _advance_watermark(self, watermark: TimeInstant) -> None:
        if self._origin is None and self._pending:
            self._origin = min(self._pending)
        if self._origin is not None:
            if self._watermark is None:
                first = self._origin
            else:
                first = max(self._watermark + 1, self._origin)
            for t in range(first, watermark + 1):
                self._process_tick(t)
        if self._watermark is None or watermark > self._watermark:
            self._watermark = watermark

    def _process_tick(self, t: TimeInstant) -> None:
        # The join reads tick t's positions once; nothing keeps them after.
        positions = self._pending.pop(t, {})
        current = set(pairs_within_distance(positions, self.contact_config.distance_threshold)) if positions else set()
        for pair in self._previous_pairs - current:
            start = self._open.pop(pair)
            self._closed.append(Contact(pair[0], pair[1], TimeInterval(start, t - 1)))
        for pair in current - self._previous_pairs:
            self._open[pair] = t
        self._previous_pairs = current

    # ------------------------------------------------------------------
    # durability (WAL checkpoint + replay)
    # ------------------------------------------------------------------
    def _checkpoint(self) -> Dict[str, object]:
        return {
            "format": DEVICE_FORMAT,
            "name": self.name,
            "environment_size": self.environment_size,
            "distance_threshold": self.contact_config.distance_threshold,
            "temporal_resolution": self.grid_config.temporal_resolution,
            "spatial_resolution": self.grid_config.spatial_resolution,
            "journal_entries": self._journal_entries,
            "state": self._state_snapshot(),
        }

    def _state_snapshot(self) -> Dict[str, object]:
        """The in-memory ingest state, as plain picklable structures.

        What makes WAL truncation sound: once the checkpoint carries this,
        :meth:`restore` no longer needs the journaled prefix — this *is* the
        replay result, less the samples of joined ticks (no reader needs
        them) and the contacts closed below the released floor (the owner's
        committed snapshot holds them) — so :meth:`flush` may drop every
        checkpointed journal extent instead of letting the journal grow.
        """
        return {
            "origin": self._origin,
            "watermark": self._watermark,
            "pending": {
                t: {obj: (p.x, p.y) for obj, p in positions.items()}
                for t, positions in self._pending.items()
            },
            "starts": dict(self._starts),
            "next_time": dict(self._next_time),
            "previous_pairs": sorted(self._previous_pairs),
            "open": sorted(self._open.items()),
            "closed_floor": self._closed_floor,
            "closed": [
                (c.first, c.second, c.validity.start, c.validity.end)
                for c in self._closed
            ],
            "num_events": self._num_events,
        }

    def _load_state(self, state: Dict[str, Any]) -> None:
        """Adopt a checkpointed state snapshot (restore path, no replay).

        Wall-clock time is no state: the checkpoint carries none, so two
        ingestors fed the same batches write the same bytes, and a restored
        ingestor counts its own time from 0.
        """
        self._origin = state["origin"]
        self._watermark = state["watermark"]
        self._pending = {
            t: {obj: Point(x, y) for obj, (x, y) in positions.items()}
            for t, positions in state["pending"].items()
        }
        self._starts = dict(state["starts"])
        self._next_time = dict(state["next_time"])
        self._previous_pairs = {
            (first, second) for first, second in state["previous_pairs"]
        }
        self._open = {
            (first, second): start
            for (first, second), start in state["open"]
        }
        self._closed_floor = state["closed_floor"]
        self._closed = [
            Contact(first, second, TimeInterval(start, end))
            for first, second, start, end in state["closed"]
        ]
        self._num_events = state["num_events"]

    def flush(self) -> None:
        """Make everything ingested so far durable (no-op on the sim backend).

        Writes the WAL checkpoint — the join geometry, the journal counter,
        and the state snapshot — into the device metadata and flushes the
        device.  Because the snapshot subsumes the journaled prefix, every
        journal extent is *dropped* first (WAL truncation): the blocks become
        reclaimable garbage instead of growing with the stream.  The
        truncation, the checkpoint, and the storage catalog all land in the
        same atomic manifest write, so a crash on either side is clean —
        before the commit the old manifest still names the old journal
        extents and the old checkpoint replays them; after it the new
        checkpoint stands alone.
        """
        self.drop_journal()
        self.storage.put_metadata(_INGEST_CHECKPOINT_KEY, self._checkpoint())
        crash_point("wal-truncate-pre-commit")
        self.storage.flush()

    def drop_journal(self) -> None:
        """Drop every journal extent (WAL truncation): its blocks turn garbage.

        :meth:`flush` does this before its checkpoint; an owner whose device
        does not persist does it once nothing journaled is needed any more.
        """
        for key in self._journal.extent_keys():
            self._journal.drop_extent(key)

    @classmethod
    def restore(
        cls, storage_config: StorageConfig | None, name: str = "stream"
    ) -> "StreamIngestor":
        """Reattach to a flushed ingestor device and replay its WAL.

        Reopens ``<name>-grid`` from ``storage_config``, reads the checkpoint
        written by :meth:`flush`, and re-ingests every journaled batch it
        does not cover — rebuilding the open-contact join state and the
        horizon bounds exactly as they were.  Raises
        :class:`~repro.core.errors.StreamingError` when no checkpoint exists
        (the service never flushed) or when it is not stamped
        :data:`DEVICE_FORMAT`; either way the device is released unwritten.
        """
        storage = StorageSystem(storage_config, name=f"{name}-grid")
        try:
            checkpoint = storage.get_metadata(_INGEST_CHECKPOINT_KEY)
            if checkpoint is None:
                raise StreamingError(
                    f"no ingest checkpoint found for service {name!r} "
                    "(was the service flushed?)"
                )
            check_device_format(checkpoint, f"the ingest checkpoint of {name!r}")
            ingestor = cls(
                tuple(checkpoint["environment_size"]),
                contact_config=ContactConfig(
                    distance_threshold=checkpoint["distance_threshold"]
                ),
                grid_config=ReachGridConfig(
                    temporal_resolution=checkpoint["temporal_resolution"],
                    spatial_resolution=checkpoint["spatial_resolution"],
                ),
                name=name,
                storage=storage,
            )
            entries = checkpoint["journal_entries"]
            ingestor._load_state(checkpoint["state"])
            ingestor._journal_entries = entries
            ingestor._replay(entries)
            return ingestor
        except BaseException:
            storage.release()
            raise

    def _replay(self, first: int) -> None:
        """Re-ingest the cataloged journal extents numbered ``first`` on.

        With truncation the committed catalog normally holds *no* journal
        extents past the checkpoint (the same manifest that named the
        snapshot dropped them); a cataloged extent with ``seq >= first``
        means a manifest paired a snapshot with batches it does not cover —
        replay them on top so no durably accepted batch is ever lost.
        """
        self._replaying = True
        try:
            for key in self._journal.extent_keys():
                seq, watermark = key
                if seq < first:
                    continue  # covered by the snapshot already
                samples = tuple(
                    SampleEvent(object_id, t, Point(x, y))
                    for object_id, t, x, y in self._journal.read_extent(key)
                )
                self.ingest(StreamBatch(samples, watermark))
                self._journal_entries = seq + 1
        finally:
            self._replaying = False

    # ------------------------------------------------------------------
    # stream position and contact views
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[TimeInstant]:
        """Last complete tick, or ``None`` before the first batch."""
        return self._watermark

    @property
    def origin(self) -> Optional[TimeInstant]:
        """First tick of the stream, or ``None`` before the first batch."""
        return self._origin

    @property
    def num_events(self) -> int:
        """Total sample events ingested so far."""
        return self._num_events

    @property
    def ingest_seconds(self) -> float:
        """Wall-clock seconds this ingestor object spent inside :meth:`ingest`.

        Not checkpointed: a restored ingestor counts from 0.
        """
        return self._ingest_seconds

    @property
    def closed_contacts(self) -> List[Contact]:
        """The closed contacts still held (from :attr:`closed_floor` on), in order."""
        return list(self._closed)

    @property
    def num_closed_contacts(self) -> int:
        """Number of closed contacts emitted so far, released ones included."""
        return self._closed_floor + len(self._closed)

    @property
    def closed_floor(self) -> int:
        """Position of the first closed contact still held (:meth:`release_closed`)."""
        return self._closed_floor

    def closed_contacts_since(self, start: int) -> List[Contact]:
        """Closed contacts from position ``start`` onward (in close order).

        Positions count every contact ever closed, so they survive
        :meth:`release_closed`; ``start`` must not lie below the floor.
        Lets incremental consumers (the service's delta sync) read only the
        new tail instead of copying the whole list after every batch.
        """
        if start < self._closed_floor:
            raise StreamingError(
                f"closed contacts before position {self._closed_floor} were "
                f"released; cannot read from {start}"
            )
        return self._closed[start - self._closed_floor :]

    def release_closed(self, before: int) -> None:
        """Forget the closed contacts at positions below ``before``.

        The owner calls this once a durable snapshot holds them: the next
        :meth:`flush` then checkpoints only the contacts from ``before`` on,
        and memory holds no more.  Positions and :attr:`num_closed_contacts`
        are unchanged; a ``before`` at or below the floor is a no-op.
        """
        drop = min(before, self.num_closed_contacts) - self._closed_floor
        if drop > 0:
            del self._closed[:drop]
            self._closed_floor += drop

    def open_contacts(self) -> List[Contact]:
        """Contacts still open, clipped to the current watermark."""
        if self._watermark is None:
            return []
        bound = self._watermark
        return [
            Contact(pair[0], pair[1], TimeInterval(start, bound))
            for pair, start in self._open.items()
            if start <= bound
        ]

    def open_runs(self) -> Tuple[Iterable[OpenRun], Optional[TimeInstant]]:
        """The still-open runs as ``(pair, opened)``, and the watermark bounding them.

        A live view, nothing copied or built: what a query hands the
        overlay's route, which calls it only for intervals past the
        snapshot watermark.
        """
        return self._open.items(), self._watermark

    def contacts_through_watermark(
        self, after: TimeInstant | None = None, closed_from: int | None = None
    ) -> List[Contact]:
        """The contacts held through the watermark (closed plus open-clipped).

        Before any :meth:`release_closed`, and up to the lossless splitting
        of validity intervals, this equals the contact network a batch build
        over the ingested prefix would produce.

        With ``after`` the result is the slice ``(after, watermark]`` of that
        set, same order — what a merge at the watermark freezes past a
        snapshot at ``after``.  Closed contacts are emitted in non-decreasing
        end order, so a caller that knows the contacts before position
        ``closed_from`` end at or before ``after`` passes that position and
        only the tail is looked at: the slice then costs what was closed
        since, plus the open runs, whatever the length of the prefix.
        """
        start = self._closed_floor if closed_from is None else closed_from
        candidates = self.closed_contacts_since(start) + self.open_contacts()
        if after is None or self._watermark is None:
            return candidates
        return [
            bounded
            for bounded in (
                contact.clipped(after + 1, self._watermark) for contact in candidates
            )
            if bounded is not None
        ]

    @property
    def journal_blocks(self) -> int:
        """Device blocks the ingest WAL currently holds.

        Bounded by the batches ingested since the last :meth:`flush` —
        truncation drops every journal extent at flush time, so this does
        *not* grow with the stream (the WAL-truncation contract).
        """
        return self._journal.num_blocks

    def prefix_domain(self) -> GraphDomain:
        """The objects and ticks of the ingested prefix ``[origin, watermark]``.

        The first merge's empty graph frontier takes its object ids from
        here — no sample is read.  Requires every observed object to cover
        the whole prefix (the replay sources guarantee this) and raises
        :class:`StreamingError` naming the first object that does not.
        """
        if self._watermark is None or self._origin is None:
            raise StreamingError("cannot materialize an empty stream prefix")
        origin, end = self._origin, self._watermark
        if end < origin:
            raise StreamingError(
                f"prefix bound {end} lies before the stream origin {origin}"
            )
        for object_id, start in self._starts.items():
            if start != origin or self._next_time[object_id] <= end:
                raise StreamingError(
                    f"object {object_id} does not cover the prefix [{origin}, {end}]"
                )
        return GraphDomain(self._starts, TimeInterval(origin, end))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamIngestor(name={self.name!r}, events={self._num_events}, "
            f"watermark={self._watermark}, closed={self.num_closed_contacts}, "
            f"open={len(self._open)})"
        )
