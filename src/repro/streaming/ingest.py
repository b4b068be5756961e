"""Incremental ingestion: grid appends and the online contact join.

:class:`StreamIngestor` consumes watermark-ordered batches of sample events
and maintains, tick by tick:

* **ReachGrid tail append** — samples are bucketed into the spatiotemporal
  cells of the *current* temporal interval in an in-memory memtable; when the
  watermark crosses an interval boundary the completed interval's cells are
  flushed to the simulated disk in the same interval-ordered placement the
  batch builder uses (Section 4.1's disk layout makes append-at-the-tail
  natural: later intervals always land after earlier ones).
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
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.config import ContactConfig, ReachGridConfig, StorageConfig
from ..core.errors import StreamingError, WatermarkRegressionError
from ..core.types import ObjectId, Point, TimeInstant, TimeInterval
from ..contacts.join import pairs_within_distance
from ..contacts.network import Contact
from ..reachgrid.cells import CellKey, SpatialGrid
from ..storage import StorageSystem
from ..testing.faults import crash_point
from ..trajectory.model import Trajectory, TrajectoryDataset
from .delta import OpenRun
from .events import SampleEvent, StreamBatch

__all__ = ["StreamIngestor"]

#: Metadata key under which the ingestor checkpoints its WAL position.
_INGEST_CHECKPOINT_KEY = "ingest-checkpoint"

#: On-disk record of one streamed sample: (object_id, t, x, y) — identical to
#: the batch ReachGrid record layout so readers need not care who wrote it.
SampleRecord = Tuple[ObjectId, TimeInstant, float, float]


class StreamIngestor:
    """Consumes sample-event batches, maintaining grid cells and contacts."""

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
        self._grid = SpatialGrid(
            self.environment_size, self.grid_config.spatial_resolution
        )
        self.name = name
        if storage is not None:
            # The resume path (:meth:`restore`): reattach to the previous
            # incarnation's device and its cataloged files instead of
            # creating fresh ones (attach=False would delete them).
            self.storage = storage
            self._cells_file = self.storage.blockfile(f"{name}-grid-cells")
            self._journal = self.storage.blockfile(f"{name}-journal")
        else:
            self.storage = StorageSystem(
                storage_config, name=f"{name}-grid", attach=False
            )
            self._cells_file = self.storage.new_blockfile(f"{name}-grid-cells")
            self._journal = self.storage.new_blockfile(f"{name}-journal")

        # WAL position: batches journaled so far, and (during replay) how
        # many grid intervals the previous incarnation already flushed.
        self._journal_entries = 0
        self._replaying = False
        self._flushed_floor = 0

        # Stream position: the origin tick (set by the first batch), the
        # watermark (last complete tick), and per-tick pending positions.
        self._origin: Optional[TimeInstant] = None
        self._watermark: Optional[TimeInstant] = None
        self._pending: Dict[TimeInstant, Dict[ObjectId, Point]] = {}

        # Per-object dense horizons [start, next tick); samples live in the cells.
        self._starts: Dict[ObjectId, TimeInstant] = {}
        self._next_time: Dict[ObjectId, TimeInstant] = {}

        # Grid memtable: cells of temporal intervals not yet flushed.
        self._memtable: Dict[int, Dict[Tuple[int, int], List[SampleRecord]]] = {}
        self._flushed_intervals = 0

        # Incremental join state.
        self._previous_pairs: Set[Tuple[ObjectId, ObjectId]] = set()
        self._open: Dict[Tuple[ObjectId, ObjectId], TimeInstant] = {}
        self._closed: List[Contact] = []

        self._num_events = 0
        self._ingest_seconds = 0.0

    # ------------------------------------------------------------------
    # grid geometry (streaming variant: origin-anchored, horizon-free)
    # ------------------------------------------------------------------
    def temporal_index(self, t: TimeInstant) -> int:
        """Index of the temporal grid interval containing tick ``t``."""
        if self._origin is None:
            raise StreamingError("no batch ingested yet; the grid has no origin")
        return (t - self._origin) // self.grid_config.temporal_resolution

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
        corrupt the interval flushing already performed), and
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
        self._flush_complete_intervals()

    def _process_tick(self, t: TimeInstant) -> None:
        positions = self._pending.pop(t, {})
        # Grid memtable append (current temporal interval's cells).
        interval_index = self.temporal_index(t)
        cells = self._memtable.setdefault(interval_index, {})
        object_ids = sorted(positions)
        ordered = [positions[object_id] for object_id in object_ids]
        for object_id, position, col_row in zip(
            object_ids, ordered, self._grid.cells_of(ordered)
        ):
            record: SampleRecord = (object_id, t, position.x, position.y)
            cells.setdefault(col_row, []).append(record)
        # Incremental contact join at tick t.
        current = set(pairs_within_distance(positions, self.contact_config.distance_threshold)) if positions else set()
        for pair in self._previous_pairs - current:
            start = self._open.pop(pair)
            self._closed.append(Contact(pair[0], pair[1], TimeInterval(start, t - 1)))
        for pair in current - self._previous_pairs:
            self._open[pair] = t
        self._previous_pairs = current

    def _flush_complete_intervals(self) -> None:
        """Write memtable cells of fully elapsed temporal intervals to disk."""
        if self._watermark is None or self._origin is None:
            return
        rt = self.grid_config.temporal_resolution
        for interval_index in sorted(self._memtable):
            interval_end = self._origin + (interval_index + 1) * rt - 1
            if interval_end > self._watermark:
                break
            cells = self._memtable.pop(interval_index)
            if self._flushed_intervals < self._flushed_floor:
                # Journal replay: this interval's cells are already cataloged
                # on the device from the previous incarnation — re-appending
                # would collide with the restored extents.
                self._flushed_intervals += 1
                continue
            for col_row in sorted(cells):
                records = sorted(cells[col_row], key=lambda r: (r[1], r[0]))
                key: CellKey = (interval_index, col_row[0], col_row[1])
                if self._replaying and self._cells_file.has_extent(key):
                    # Tail replay past a snapshot: the previous incarnation
                    # already placed this cell and the catalog kept it.
                    continue
                self._cells_file.append_extent(key, records)
            self._flushed_intervals += 1

    # ------------------------------------------------------------------
    # durability (WAL checkpoint + replay)
    # ------------------------------------------------------------------
    def _checkpoint(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "environment_size": self.environment_size,
            "distance_threshold": self.contact_config.distance_threshold,
            "temporal_resolution": self.grid_config.temporal_resolution,
            "spatial_resolution": self.grid_config.spatial_resolution,
            "journal_entries": self._journal_entries,
            "flushed_intervals": self._flushed_intervals,
            "state": self._state_snapshot(),
        }

    def _state_snapshot(self) -> Dict[str, object]:
        """The in-memory ingest state, as plain picklable structures.

        What makes WAL truncation sound: once the checkpoint carries this,
        :meth:`restore` no longer needs the journaled prefix — this plus the
        grid cells flushed beside it *is* the replay result (flushed samples
        live only in the cells) — so :meth:`flush` may drop every
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
            "memtable": {
                interval: {col_row: list(records) for col_row, records in cells.items()}
                for interval, cells in self._memtable.items()
            },
            "previous_pairs": sorted(self._previous_pairs),
            "open": sorted(self._open.items()),
            "closed": [
                (c.first, c.second, c.validity.start, c.validity.end)
                for c in self._closed
            ],
            "num_events": self._num_events,
            "ingest_seconds": self._ingest_seconds,
        }

    def _load_state(self, state: Dict[str, Any]) -> None:
        """Adopt a checkpointed state snapshot (restore path, no replay)."""
        self._origin = state["origin"]
        self._watermark = state["watermark"]
        self._pending = {
            t: {obj: Point(x, y) for obj, (x, y) in positions.items()}
            for t, positions in state["pending"].items()
        }
        self._starts = dict(state["starts"])
        self._next_time = dict(state["next_time"]) if "next_time" in state else {
            # a checkpoint written while the ingestor still buffered positions
            obj: self._starts[obj] + len(positions)
            for obj, positions in state["positions"].items()
        }
        self._memtable = {
            interval: {col_row: list(records) for col_row, records in cells.items()}
            for interval, cells in state["memtable"].items()
        }
        self._previous_pairs = {
            (first, second) for first, second in state["previous_pairs"]
        }
        self._open = {
            (first, second): start
            for (first, second), start in state["open"]
        }
        self._closed = [
            Contact(first, second, TimeInterval(start, end))
            for first, second, start, end in state["closed"]
        ]
        self._num_events = state["num_events"]
        self._ingest_seconds = state["ingest_seconds"]

    def flush(self) -> None:
        """Make everything ingested so far durable (no-op on the sim backend).

        Writes the WAL checkpoint — the grid geometry, the journal/interval
        counters, and the state snapshot — into the device metadata and
        flushes the device.  Because snapshot and grid cells subsume the
        journaled prefix, every journal extent is *dropped* first (WAL
        truncation): the blocks become reclaimable garbage instead of growing
        with the stream.  The truncation, the checkpoint, and the storage
        catalog all land in the same atomic manifest write, so a crash on
        either side is clean — before the commit the old manifest still names
        the old journal extents and the old checkpoint replays them; after it
        the new checkpoint and the cells it names stand alone.
        """
        for key in self._journal.extent_keys():
            self._journal.drop_extent(key)
        self.storage.put_metadata(_INGEST_CHECKPOINT_KEY, self._checkpoint())
        crash_point("wal-truncate-pre-commit")
        self.storage.flush()

    @classmethod
    def restore(
        cls, storage_config: StorageConfig | None, name: str = "stream"
    ) -> "StreamIngestor":
        """Reattach to a flushed ingestor device and replay its WAL.

        Reopens ``<name>-grid`` from ``storage_config``, reads the checkpoint
        written by :meth:`flush`, and re-ingests every journaled batch it
        names — rebuilding the open-contact join state, the horizon bounds,
        and the grid memtable exactly as they were at the checkpoint.  Raises
        :class:`~repro.core.errors.StreamingError` when no checkpoint exists
        (the service never flushed).
        """
        storage = StorageSystem(storage_config, name=f"{name}-grid")
        try:
            checkpoint = storage.get_metadata(_INGEST_CHECKPOINT_KEY)
            if checkpoint is None:
                raise StreamingError(
                    f"no ingest checkpoint found for service {name!r} "
                    "(was the service flushed?)"
                )
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
            state = checkpoint.get("state")
            if state is not None:
                ingestor._load_state(state)
                ingestor._journal_entries = checkpoint["journal_entries"]
                ingestor._replay_tail(checkpoint["journal_entries"])
            else:
                # Pre-truncation checkpoint: the journal still holds the full
                # history, so rebuild the state by replaying it end to end.
                ingestor._replay_journal(
                    checkpoint["journal_entries"], checkpoint["flushed_intervals"]
                )
            return ingestor
        except BaseException:
            storage.close()
            raise

    def _replay_journal(self, entries: int, flushed_intervals: int) -> None:
        self._replaying = True
        self._flushed_floor = flushed_intervals
        try:
            for key in self._journal.extent_keys():
                seq, watermark = key
                if seq >= entries:
                    break  # past the checkpoint: not durably committed
                samples = tuple(
                    SampleEvent(object_id, t, Point(x, y))
                    for object_id, t, x, y in self._journal.read_extent(key)
                )
                self.ingest(StreamBatch(samples, watermark))
        finally:
            self._replaying = False
            self._flushed_floor = 0
        self._journal_entries = entries

    def _replay_tail(self, applied: int) -> None:
        """Defensively replay cataloged journal extents past the snapshot.

        With truncation the committed catalog normally holds *no* journal
        extents (the same manifest that named the snapshot dropped them); a
        cataloged extent with ``seq >= applied`` means a manifest paired a
        snapshot with batches it does not cover — replay them on top so no
        durably accepted batch is ever lost.
        """
        self._replaying = True
        try:
            for key in self._journal.extent_keys():
                seq, watermark = key
                if seq < applied:
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
        """Wall-clock seconds spent inside :meth:`ingest`."""
        return self._ingest_seconds

    @property
    def closed_contacts(self) -> List[Contact]:
        """Contacts whose pairs have separated, in close order."""
        return list(self._closed)

    @property
    def num_closed_contacts(self) -> int:
        """Number of closed contacts emitted so far."""
        return len(self._closed)

    def closed_contacts_since(self, start: int) -> List[Contact]:
        """Closed contacts from position ``start`` onward (in close order).

        Lets incremental consumers (the service's delta sync) read only the
        new tail instead of copying the whole list after every batch.
        """
        return self._closed[start:]

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

    def contacts_through_watermark(self) -> List[Contact]:
        """Every contact observed so far (closed plus open-clipped).

        Up to the lossless splitting of validity intervals, this equals the
        contact network a batch build over the ingested prefix would produce.
        """
        return self._closed + self.open_contacts()

    def contacts_through(
        self,
        through: TimeInstant,
        after: TimeInstant | None = None,
        closed_from: int = 0,
    ) -> List[Contact]:
        """Every contact of the bounded prefix ``[origin, through]``.

        Like :meth:`contacts_through_watermark` but clipped at ``through``
        (which may trail the watermark): closed contacts starting later are
        dropped, ones straddling the bound are clipped, and open runs are
        clipped to ``min(watermark, through)``.  Splitting at the bound is
        lossless for reachability, so this equals the contact network of a
        batch build over ``[origin, through]`` up to interval splitting.

        With ``after`` the result is the slice ``(after, through]`` of that
        set, same order — what a merge at ``through`` freezes past a snapshot
        at ``after``.  Closed contacts are emitted in non-decreasing end
        order, so a caller that knows the first ``closed_from`` of them end
        at or before ``after`` passes that position and only the tail is
        looked at: the slice then costs what was closed since, plus the open
        runs, whatever the length of the prefix.
        """
        if self._origin is None:
            return []
        floor = self._origin if after is None else after + 1
        candidates = self._closed[closed_from:] + self.open_contacts()
        return [
            bounded
            for bounded in (contact.clipped(floor, through) for contact in candidates)
            if bounded is not None
        ]

    # ------------------------------------------------------------------
    # grid introspection (used by tests and the benchmark)
    # ------------------------------------------------------------------
    @property
    def num_flushed_intervals(self) -> int:
        """Temporal grid intervals flushed from the memtable to disk."""
        return self._flushed_intervals

    @property
    def num_flushed_cells(self) -> int:
        """Grid cell extents written to the simulated disk so far."""
        return self._cells_file.num_extents

    @property
    def journal_blocks(self) -> int:
        """Device blocks the ingest WAL currently holds.

        Bounded by the batches ingested since the last :meth:`flush` —
        truncation drops every journal extent at flush time, so this does
        *not* grow with the stream (the WAL-truncation contract).
        """
        return self._journal.num_blocks

    @property
    def memtable_records(self) -> int:
        """Sample records still staged in the in-memory memtable."""
        return sum(
            len(records)
            for cells in self._memtable.values()
            for records in cells.values()
        )

    def flushed_cell_keys(self) -> List[CellKey]:
        """Keys of the flushed cells in disk-placement order."""
        return self._cells_file.extent_keys()

    def read_cell(self, key: CellKey) -> Sequence[SampleRecord]:
        """Read one flushed cell's records back from the simulated disk."""
        return self._cells_file.read_extent(key)

    # ------------------------------------------------------------------
    # prefix materialization (used by merges)
    # ------------------------------------------------------------------
    def prefix_dataset(
        self,
        name: str | None = None,
        through: TimeInstant | None = None,
    ) -> TrajectoryDataset:
        """Materialize the ingested prefix as a frozen trajectory dataset.

        Requires every observed object to cover the full prefix
        ``[origin, watermark]`` (the replay sources guarantee this); the
        first ReachGraph build reads the result.  ``through``
        bounds the materialized prefix at an earlier instant than the
        watermark.

        The samples are read back from the cells of every interval starting
        by the bound, plus the memtable; an ``(object, tick)`` of the prefix
        no cell holds (a lost extent) raises :class:`StreamingError`.
        """
        if self._watermark is None or self._origin is None:
            raise StreamingError("cannot materialize an empty stream prefix")
        origin = self._origin
        end = self._watermark if through is None else min(self._watermark, through)
        if end < origin:
            raise StreamingError(
                f"prefix bound {end} lies before the stream origin {origin}"
            )
        for object_id, start in self._starts.items():
            if start != origin or self._next_time[object_id] <= end:
                raise StreamingError(
                    f"object {object_id} does not cover the prefix [{origin}, {end}]"
                )
        # Raw (x, y) slots: a sample no cell holds stays None.
        slots: Dict[ObjectId, List[Any]] = {
            object_id: [None] * (end - origin + 1) for object_id in self._starts
        }
        last = self.temporal_index(end)
        flushed = [key for key in self._cells_file.extent_keys() if key[0] <= last]
        staged = (records for cells in self._memtable.values() for records in cells.values())
        for records in chain(map(self.read_cell, flushed), staged):
            for object_id, t, x, y in records:
                if t <= end:
                    slots[object_id][t - origin] = (x, y)
        trajectories = []
        for object_id in sorted(slots):
            row = slots[object_id]
            if None in row:
                raise StreamingError(
                    f"object {object_id} has no sample at t={origin + row.index(None)} "
                    "in the grid cells"
                )
            trajectories.append(
                Trajectory(object_id, [Point(x, y) for x, y in row], start_time=origin)
            )
        return TrajectoryDataset(
            trajectories,
            environment_size=self.environment_size,
            name=name or f"{self.name}-prefix{end}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamIngestor(name={self.name!r}, events={self._num_events}, "
            f"watermark={self._watermark}, closed={len(self._closed)}, "
            f"open={len(self._open)})"
        )
