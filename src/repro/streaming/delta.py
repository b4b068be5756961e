"""The ReachGraph delta overlay: frozen snapshot + in-memory delta graph.

Write-optimized staging in front of read-optimized indexes (the EMBANKS
pattern): contacts observed since the last merge live in an in-memory
:class:`DeltaGraph`; everything older sits in a frozen *snapshot* — a
disk-placed :class:`ContactSnapshotStore` (interval-ordered contact extents
with real IO accounting) plus, optionally, a ReachGraph index kept over the
snapshot prefix for the paper's fast query path.

A query is answered one of two ways, chosen in one place
(:meth:`ReachGraphDeltaOverlay.evaluate`):

* **fast path** — no delta or open contact overlaps the query interval, so
  the frozen ReachGraph processor alone is authoritative;
* **union path** — the earliest-arrival kernel
  (:func:`earliest_arrival_time`) runs over the plain
  ``(first, second, start, end)`` records of the snapshot extents overlapping
  the interval (read from disk, charged IO) and of the relevant delta/open
  runs (in memory, free).

Contacts are clipped at the snapshot watermark when they enter the delta, so
the snapshot and the delta partition every validity interval without overlap;
splitting an interval at the boundary is lossless for reachability because
transmission happens at single instants.
"""

from __future__ import annotations

import time
from collections import defaultdict
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.config import ReachGraphConfig
from ..core.errors import StreamingError
from ..core.types import (
    ObjectId,
    QueryResult,
    ReachabilityQuery,
    TimeInstant,
    TimeInterval,
)
from ..contacts.network import Contact
from ..storage import BlockFile, StorageSystem
from ..testing.faults import crash_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..reachgraph import (
        DagPatch,
        GraphFrontier,
        PartitionCache,
        ReachGraphQueryProcessor,
    )

__all__ = [
    "DeltaGraph",
    "ContactSnapshotStore",
    "ObjectBloomFilter",
    "ReachGraphDeltaOverlay",
    "earliest_arrival_time",
]

#: On-disk record of one snapshot contact: (first, second, start, end).
ContactRecord = Tuple[ObjectId, ObjectId, TimeInstant, TimeInstant]

#: A still-open contact run: its object pair and the tick it opened at.
OpenRun = Tuple[Tuple[ObjectId, ObjectId], TimeInstant]

#: How a caller hands its open runs to a query, lazily: called only when the
#: route needs them, it returns the runs and the tick they are clipped at
#: (``None`` when nothing is open yet).
OpenRunView = Callable[[], Tuple[Iterable[OpenRun], Optional[TimeInstant]]]

#: Name the overlay's ReachGraph is placed under on its device.  Only a merge
#: with no live graph creates one, so nothing it could replace holds the name.
_GRAPH_NAME = "graph-v1"


def earliest_arrival_time(
    records: Iterable[ContactRecord],
    source: ObjectId,
    destination: ObjectId,
    start: TimeInstant,
    end: TimeInstant,
) -> Optional[TimeInstant]:
    """Earliest instant in ``[start, end]`` at which ``source``'s item reaches ``destination``.

    The union path's kernel: the temporal Dijkstra with early termination of
    :func:`repro.baselines.reference.earliest_arrival` — objects settle in
    arrival order, a record ``(a, b, s, e)`` carries the item across at
    ``max(s, start, arrival)`` when that is ``<= min(e, end)`` — run over
    plain records.  A record missing ``[start, end]`` has an empty window and
    never transmits, so callers filter once and nothing is re-filtered here.
    The reference stays a separate function: it is the oracle this kernel is
    checked against.  ``None`` when the destination is unreachable.
    """
    neighbours: Dict[ObjectId, List[ContactRecord]] = defaultdict(list)
    for record in records:
        neighbours[record[0]].append(record)
        neighbours[record[1]].append(record)
    arrival: Dict[ObjectId, TimeInstant] = {source: start}
    settled: Set[ObjectId] = set()
    heap: List[Tuple[TimeInstant, ObjectId]] = [(start, source)]
    while heap:
        now, carrier = heappop(heap)
        if carrier in settled:
            continue  # a stale entry superseded by an earlier arrival
        if carrier == destination:
            return now
        settled.add(carrier)
        for first, second, lo, hi in neighbours.get(carrier, ()):
            receiver = second if first == carrier else first
            if receiver in settled:
                continue
            # ``now >= start``, so max(lo, start, now) is max(lo, now).
            transmit = lo if lo > now else now
            if transmit > hi or transmit > end:
                continue
            best = arrival.get(receiver)
            if best is None or transmit < best:
                arrival[receiver] = transmit
                heappush(heap, (transmit, receiver))
    return None


_BLOOM_MIX_A = 0x9E3779B97F4A7C15
_BLOOM_MIX_B = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1


class ObjectBloomFilter:
    """A stdlib-only Bloom filter over the object ids of one snapshot run.

    Part of the run's zone map: ``may_contain`` answers "could this object
    appear in any contact of the run?" with one-sided error — a ``False``
    is exact (the object is certainly absent), a ``True`` may be a false
    positive that simply falls through to the disk read it would have paid
    anyway.  Hashing is multiplicative (two 64-bit odd constants, ``k``
    derived probes), deterministic across processes — no ``PYTHONHASHSEED``
    dependence — so a filter restored from a manifest answers identically.
    """

    __slots__ = ("num_bits", "num_hashes", "bits")

    def __init__(self, num_bits: int, num_hashes: int, bits: int = 0) -> None:
        if num_bits <= 0:
            raise StreamingError("bloom filter needs a positive bit count")
        if num_hashes <= 0:
            raise StreamingError("bloom filter needs a positive hash count")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = bits

    @classmethod
    def from_objects(
        cls, objects: Iterable[ObjectId], bits_per_object: int = 10
    ) -> "ObjectBloomFilter":
        """Build a filter sized ``bits_per_object`` per distinct object (k=4)."""
        distinct = set(objects)
        num_bits = max(64, bits_per_object * max(1, len(distinct)))
        bloom = cls(num_bits=num_bits, num_hashes=4)
        for object_id in distinct:
            bloom.add(object_id)
        return bloom

    def _probes(self, object_id: ObjectId) -> Iterable[int]:
        base = ((int(object_id) + 1) * _BLOOM_MIX_A) & _MASK64
        step = ((int(object_id) + 1) * _BLOOM_MIX_B | 1) & _MASK64
        for i in range(self.num_hashes):
            mixed = (base + i * step) & _MASK64
            mixed ^= mixed >> 29
            yield mixed % self.num_bits

    def add(self, object_id: ObjectId) -> None:
        """Insert an object id."""
        for probe in self._probes(object_id):
            self.bits |= 1 << probe

    def may_contain(self, object_id: ObjectId) -> bool:
        """``False`` proves absence; ``True`` means "possibly present"."""
        for probe in self._probes(object_id):
            if not (self.bits >> probe) & 1:
                return False
        return True

    def to_manifest(self) -> Dict[str, object]:
        """Picklable description for the run manifest."""
        return {
            "num_bits": self.num_bits,
            "num_hashes": self.num_hashes,
            "bits": self.bits,
        }

    @classmethod
    def from_manifest(cls, manifest: Dict[str, object]) -> "ObjectBloomFilter":
        """Rebuild a filter from :meth:`to_manifest` output."""
        return cls(
            num_bits=int(manifest["num_bits"]),  # type: ignore[arg-type]
            num_hashes=int(manifest["num_hashes"]),  # type: ignore[arg-type]
            bits=int(manifest["bits"]),  # type: ignore[arg-type]
        )


class DeltaGraph:
    """In-memory buffer of the contact records accumulated since the last merge."""

    def __init__(self) -> None:
        self._records: List[ContactRecord] = []

    def add(self, record: ContactRecord) -> None:
        """Append one ``(first, second, start, end)`` record to the delta."""
        self._records.append(record)

    def records_overlapping(
        self, start: TimeInstant, end: TimeInstant
    ) -> List[ContactRecord]:
        """Delta records whose validity overlaps ``[start, end]``."""
        return [r for r in self._records if r[2] <= end and r[3] >= start]

    def clear(self) -> None:
        """Drop every buffered record (called after a merge)."""
        self._records.clear()

    @property
    def records(self) -> List[ContactRecord]:
        """All buffered records, in arrival order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class _SnapshotRun:
    """One sorted run of interval-keyed contact extents (an LSM run).

    ``level`` places the run in the store's size-ratio hierarchy: fresh
    merges append at level 0, and each compaction folds an overfull level's
    runs into a single run one level up, so a run at level ``L`` holds on
    the order of ``fanout**L`` merges' worth of contacts.

    ``min_time``/``max_time``/``bloom`` form the run's *zone map*, written
    with the run and carried through the manifest: the time bounds let a
    read skip the whole run when its span is disjoint from the query
    interval, and the object-id Bloom filter lets the overlay prove an
    object appears in no snapshot contact at all.
    """

    __slots__ = ("file", "max_end", "num_contacts", "level", "min_time", "max_time", "bloom")

    def __init__(
        self,
        file: BlockFile,
        max_end: Dict[int, TimeInstant],
        num_contacts: int,
        level: int,
        min_time: TimeInstant,
        max_time: TimeInstant,
        bloom: ObjectBloomFilter,
    ) -> None:
        self.file = file
        self.max_end = max_end
        self.num_contacts = num_contacts
        self.level = level
        self.min_time = min_time
        self.max_time = max_time
        self.bloom = bloom

    def disjoint_from(self, interval: TimeInterval) -> bool:
        """True when the zone map proves no contact overlaps ``interval``."""
        return self.min_time > interval.end or self.max_time < interval.start


class ContactSnapshotStore:
    """Frozen snapshot contacts placed on the block device, LSM-style.

    Contacts live in one or more *runs*.  Within a run, contacts are grouped
    into extents by the temporal grid interval their validity *starts* in,
    written in interval order (the same placement rule ReachGrid uses for its
    cells); each extent remembers the latest validity end among its contacts,
    so a read for a query interval skips extents that cannot overlap it
    without paying any IO.

    Each merge appends the freshly frozen contacts as a new level-0 run
    (:meth:`append_run`) instead of rewriting the whole prefix; once any
    level holds more runs than the configured fanout, :meth:`maybe_compact`
    folds that level's runs into a single run one level up (size-ratio
    leveled compaction — a record at level ``L`` is rewritten only when
    roughly ``fanout**L`` merges' worth of newer contacts have accumulated
    below it, which bounds write amplification to ``O(levels)`` per record
    on unbounded streams where the old all-runs fold paid ``O(merges)``).
    Retired run files leave the storage catalog, so their blocks become
    reclaimable garbage: :attr:`superseded_blocks` counts them until a
    device :meth:`~repro.storage.StorageSystem.reclaim` recycles them, and
    :attr:`records_written` is the cumulative write-amplification ledger
    (the manifest also keeps it per level).
    """

    def __init__(
        self,
        storage: StorageSystem,
        origin: TimeInstant,
        temporal_resolution: int,
        name: str = "snapshot-contacts",
    ) -> None:
        if temporal_resolution <= 0:
            raise StreamingError("temporal_resolution must be positive")
        self._storage = storage
        self._origin = origin
        self._rt = temporal_resolution
        self._name = name
        self._runs: List[_SnapshotRun] = []
        self._run_counter = 0
        self._records_written = 0
        self._level_records_written: Dict[int, int] = {}
        self._superseded_blocks = 0
        self._compactions = 0
        # Read-side zone-map ledgers (in-memory; reads are not durable state).
        self._runs_skipped = 0
        self._blocks_skipped = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _group(self, contacts: Iterable[Contact]) -> Dict[int, List[ContactRecord]]:
        grouped: Dict[int, List[ContactRecord]] = {}
        for contact in contacts:
            index = (contact.validity.start - self._origin) // self._rt
            record: ContactRecord = (
                contact.first,
                contact.second,
                contact.validity.start,
                contact.validity.end,
            )
            grouped.setdefault(index, []).append(record)
        return grouped

    def _write_run(
        self, grouped: Dict[int, List[ContactRecord]], level: int = 0
    ) -> _SnapshotRun:
        self._run_counter += 1
        file = self._storage.new_blockfile(f"{self._name}-run{self._run_counter}")
        max_end: Dict[int, TimeInstant] = {}
        count = 0
        min_time: Optional[TimeInstant] = None
        max_time: Optional[TimeInstant] = None
        objects: set = set()
        for index in sorted(grouped):
            records = sorted(grouped[index], key=lambda r: (r[2], r[0], r[1]))
            file.append_extent(index, records)
            max_end[index] = max(record[3] for record in records)
            count += len(records)
            for first, second, start, end in records:
                if min_time is None or start < min_time:
                    min_time = start
                if max_time is None or end > max_time:
                    max_time = end
                objects.add(first)
                objects.add(second)
        self._records_written += count
        self._level_records_written[level] = (
            self._level_records_written.get(level, 0) + count
        )
        return _SnapshotRun(
            file,
            max_end,
            count,
            level=level,
            min_time=min_time,
            max_time=max_time,
            bloom=ObjectBloomFilter.from_objects(objects),
        )

    def append_run(self, contacts: Iterable[Contact]) -> int:
        """Append one run holding ``contacts``; returns the records written.

        An empty contact set appends nothing (a zero-delta merge is a no-op
        on the store), so back-to-back merges at the same watermark never
        grow the device.
        """
        grouped = self._group(contacts)
        if not grouped:
            return 0
        run = self._write_run(grouped)
        self._runs.append(run)
        return run.num_contacts

    def _fold(self, runs: List[_SnapshotRun], level: int) -> int:
        """Fold ``runs`` into a single fresh run at ``level``.

        The shared compaction core: the merged run is written first, the
        ``compaction-mid`` fault point sits between that write and the
        retirement of the old runs, and retirement both supersedes the old
        extents *and* drops the old run files from the storage catalog so
        their blocks become reclaimable garbage.
        """
        merged: Dict[int, List[ContactRecord]] = {}
        superseded = 0
        for run in runs:
            superseded += run.file.num_blocks
            for index in run.file.extent_keys():
                merged.setdefault(index, []).extend(run.file.read_extent(index))
        folded = self._write_run(merged, level=level)
        # The consolidated run is written but the old runs are still live: a
        # crash here must reopen through the previous manifest, which only
        # names the old runs (the new file is unreferenced garbage).
        crash_point("compaction-mid")
        position = self._runs.index(runs[0])
        retained = [run for run in self._runs if run not in runs]
        retained.insert(min(position, len(retained)), folded)
        self._runs = retained
        for run in runs:
            self._storage.drop_blockfile(run.file.name)
        self._superseded_blocks += superseded
        self._compactions += 1
        return folded.num_contacts

    def maybe_compact(self, fanout: int) -> int:
        """Run size-ratio leveled compaction with the given per-level fanout.

        Whenever a level holds more than ``fanout`` runs, its runs fold into
        a single run one level up; the fold cascades while the promotion
        overfills the next level in turn.  Returns the total records
        rewritten (0 when every level was within bounds).
        """
        if fanout <= 0:
            raise StreamingError("compaction fanout must be positive")
        rewritten = 0
        while True:
            levels: Dict[int, List[_SnapshotRun]] = {}
            for run in self._runs:
                levels.setdefault(run.level, []).append(run)
            overfull = [lvl for lvl, runs in levels.items() if len(runs) > fanout]
            if not overfull:
                return rewritten
            level = min(overfull)
            rewritten += self._fold(levels[level], level + 1)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def origin(self) -> TimeInstant:
        """First tick of the stream: extent ``i`` starts at ``origin + i * rt``."""
        return self._origin

    @property
    def num_contacts(self) -> int:
        """Number of contacts held by the live runs."""
        return sum(run.num_contacts for run in self._runs)

    @property
    def num_blocks(self) -> int:
        """Device blocks occupied by the live runs' contact extents."""
        return sum(run.file.num_blocks for run in self._runs)

    @property
    def num_runs(self) -> int:
        """Live runs (1 right after a full fold)."""
        return len(self._runs)

    @property
    def runs_per_level(self) -> Dict[int, int]:
        """Live run count per level.

        After :meth:`maybe_compact` every value is at most the fanout — the
        leveled invariant the space tests pin down.
        """
        counts: Dict[int, int] = {}
        for run in self._runs:
            counts[run.level] = counts.get(run.level, 0) + 1
        return counts

    @property
    def records_written(self) -> int:
        """Cumulative contact records ever written (the write-amp ledger)."""
        return self._records_written

    @property
    def superseded_blocks(self) -> int:
        """Blocks whose extents were folded away by compactions."""
        return self._superseded_blocks

    @property
    def compactions(self) -> int:
        """Number of compactions performed."""
        return self._compactions

    def reset_superseded(self) -> None:
        """Zero the superseded ledger after a device reclaim recycled it."""
        self._superseded_blocks = 0

    @property
    def runs_skipped(self) -> int:
        """Runs whose zone map let a read skip them entirely (read ledger)."""
        return self._runs_skipped

    @property
    def blocks_skipped(self) -> int:
        """Device blocks reads avoided thanks to run zone maps (read ledger)."""
        return self._blocks_skipped

    def may_contain(self, object_id: ObjectId) -> bool:
        """Could any snapshot contact involve ``object_id``?

        ``False`` is exact — every live run's Bloom filter proves the object
        absent, so no snapshot contact can involve it.
        """
        return any(run.bloom.may_contain(object_id) for run in self._runs)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read_overlapping(self, interval: TimeInterval) -> List[ContactRecord]:
        """Read (and charge IO for) the snapshot records overlapping ``interval``.

        Records come back as stored, ``(first, second, start, end)``.
        """
        lo, hi = interval.start, interval.end
        records: List[ContactRecord] = []
        for run in self._runs:
            if run.disjoint_from(interval):
                # The run's zone map proves its whole time span misses the
                # query interval: skip every extent without any IO.
                self._runs_skipped += 1
                self._blocks_skipped += run.file.num_blocks
                continue
            for index in run.file.extent_keys():
                if self._origin + index * self._rt > hi:
                    break  # later extents only hold later-starting contacts
                if run.max_end[index] < lo:
                    continue  # provably disjoint: skip without IO
                records += [
                    r for r in run.file.read_extent(index) if r[2] <= hi and r[3] >= lo
                ]
        return records

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, object]:
        """A picklable description sufficient to :meth:`restore` this store."""
        return {
            "origin": self._origin,
            "temporal_resolution": self._rt,
            "name": self._name,
            "run_counter": self._run_counter,
            "records_written": self._records_written,
            "level_records_written": dict(self._level_records_written),
            "superseded_blocks": self._superseded_blocks,
            "compactions": self._compactions,
            "runs": [
                {
                    "file": run.file.name,
                    "max_end": dict(run.max_end),
                    "num_contacts": run.num_contacts,
                    "level": run.level,
                    "min_time": run.min_time,
                    "max_time": run.max_time,
                    "bloom": run.bloom.to_manifest(),
                }
                for run in self._runs
            ],
        }

    @classmethod
    def restore(
        cls, storage: StorageSystem, manifest: Dict[str, object]
    ) -> "ContactSnapshotStore":
        """Reattach a store to run block files already restored in ``storage``.

        Counterpart of :meth:`manifest` on the reopen path of a persistent
        backend: the extents were re-registered by the storage system's
        catalog; this rebuilds the run list pointing at them.
        """
        store = cls(
            storage,
            origin=manifest["origin"],  # type: ignore[arg-type]
            temporal_resolution=manifest["temporal_resolution"],  # type: ignore[arg-type]
            name=manifest["name"],  # type: ignore[arg-type]
        )
        store._run_counter = manifest["run_counter"]  # type: ignore[assignment]
        store._records_written = manifest["records_written"]  # type: ignore[assignment]
        store._level_records_written = dict(
            manifest["level_records_written"]  # type: ignore[arg-type]
        )
        store._superseded_blocks = manifest["superseded_blocks"]  # type: ignore[assignment]
        store._compactions = manifest["compactions"]  # type: ignore[assignment]
        for entry in manifest["runs"]:  # type: ignore[union-attr]
            store._runs.append(
                _SnapshotRun(
                    storage.blockfile(entry["file"]),
                    dict(entry["max_end"]),
                    entry["num_contacts"],
                    level=entry["level"],
                    min_time=entry["min_time"],
                    max_time=entry["max_time"],
                    bloom=ObjectBloomFilter.from_manifest(entry["bloom"]),
                )
            )
        # A crash between a fold's run write and the manifest commit leaves
        # the folded run's file in the durable catalog but out of the run
        # list.  Drop those orphans so they don't count as live forever.
        referenced = {run.file.name for run in store._runs}
        prefix = f"{store._name}-run"
        for name in storage.blockfile_names():
            if name.startswith(prefix) and name not in referenced:
                storage.drop_blockfile(name)
        return store


class ReachGraphDeltaOverlay:
    """Snapshot + delta pair answering queries over the full ingested prefix."""

    def __init__(self, storage: StorageSystem) -> None:
        from ..reachgraph.query import PartitionCache

        self._storage = storage
        self._delta = DeltaGraph()
        self._store: Optional[ContactSnapshotStore] = None
        self._processor = None  # ReachGraphQueryProcessor over the snapshot
        self._snapshot_watermark: Optional[TimeInstant] = None
        # ReachGraph write-amplification ledger (mirrors the snapshot store's
        # records ledger): vertex records ever written by increments.
        self._graph_records_written = 0
        # Cross-query partition cache, shared by every processor this overlay
        # ever attaches; a mutation discards what it rewrote.  The serving
        # layer resizes it from StreamingConfig.partition_cache_size.
        self._partition_cache = PartitionCache()
        self._bloom_rejections = 0

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def add_contact(self, contact: Contact) -> None:
        """Buffer a newly closed contact, clipped past the snapshot watermark."""
        start, end = contact.validity.start, contact.validity.end
        if self._snapshot_watermark is not None and start <= self._snapshot_watermark:
            start = self._snapshot_watermark + 1
        if start <= end:  # else entirely covered by the snapshot
            self._delta.add((contact.first, contact.second, start, end))

    def _clip_past_snapshot(self, contact: Contact) -> Optional[Contact]:
        if self._snapshot_watermark is None:
            return contact
        # None when entirely covered by the snapshot.
        return contact.clipped(self._snapshot_watermark + 1, contact.validity.end)

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------
    def adopt_increment(
        self,
        patch: "DagPatch",
        new_contacts: Sequence[Contact],
        watermark: TimeInstant,
        origin: TimeInstant,
        temporal_resolution: int,
        graph_config: ReachGraphConfig,
        repack_min_partitions: int = 0,
    ) -> int:
        """Advance the snapshot: patch the ReachGraph and append one run.

        ``patch`` was computed purely over the frontier the service
        captured.  Without a live index it must extend the empty frontier:
        the overlay then makes an empty index over ``graph_config`` on its
        own device, whose working set holds cold partitions for the owner's
        ``repack_min_partitions`` (0: none), and the patch builds it.  The
        run appended is ``new_contacts``, the slice the patch replayed,
        clipped past the snapshot watermark.  So this method — the only part touching live
        state — costs a run append and a patch application proportional to
        the delta.  Returns the records written to the snapshot store.  A
        patch that does not fit raises before anything moves:
        :class:`StreamingError` when it extends an index this overlay does
        not hold, :class:`~repro.core.errors.IndexConstructionError` when it
        is stale.
        """
        from ..reachgraph import ReachGraphIndex, ReachGraphQueryProcessor

        # The graph half goes first: apply_increment validates the patch
        # against the live index (a stale patch raises) before anything else
        # mutates, so a rejected adoption leaves the store, delta, and
        # watermark exactly as they were.  An overlay holds at most one
        # index: the first merge creates it, and every merge patches it.
        if self._processor is not None:
            index = self._processor.index
        elif patch.base_nodes:
            raise StreamingError(
                "a graph patch was built against a live ReachGraph index, "
                "but none exists to apply it to"
            )
        else:
            index = ReachGraphIndex(
                None,
                config=graph_config,
                storage=self._storage,
                name=_GRAPH_NAME,
                repack_min_partitions=repack_min_partitions,
            )
        report = index.apply_increment(patch)
        self._graph_records_written += report.records_written
        if self._processor is None:
            self._processor = ReachGraphQueryProcessor(
                index, partition_cache=self._partition_cache
            )
        # Only the partitions the patch rewrote changed; every other cached
        # extent still holds its records (new partitions are new ids).
        self._partition_cache.discard(report.rewritten_partitions)
        if self._store is None:
            # One store per overlay, never replaced; the ``-v1`` suffix is
            # the name devices already carry, so they reopen unchanged.
            self._store = ContactSnapshotStore(
                self._storage,
                origin=origin,
                temporal_resolution=temporal_resolution,
                name="snapshot-contacts-v1",
            )
        frozen = [
            clipped
            for clipped in (self._clip_past_snapshot(c) for c in new_contacts)
            if clipped is not None
        ]
        appended = self._store.append_run(frozen)
        self._snapshot_watermark = watermark
        self._delta.clear()
        return appended

    def graph_frontier(self) -> Optional["GraphFrontier"]:
        """The live index's resumable maintenance state, or ``None``.

        ``None`` when no merge has created a ReachGraph yet — the next merge
        then patches :meth:`~repro.reachgraph.GraphFrontier.empty`.  The streaming
        service's ``prepare_merge`` captures it; the pure patch computation
        then reads nothing else of the overlay.
        """
        if self._processor is None:
            return None
        return self._processor.index.frontier()

    def maybe_compact(self, fanout: int) -> int:
        """Run the store's leveled compaction with per-level ``fanout``.

        Returns the records rewritten (0 when every level was within bounds
        or no snapshot store exists yet).
        """
        if self._store is None:
            return 0
        return self._store.maybe_compact(fanout)

    def note_device_reclaimed(self) -> None:
        """Zero the overlay-level superseded ledgers after a device reclaim.

        The garbage those ledgers counted no longer exists on the device:
        the store's compaction ledger resets so the next reclaim trigger
        measures only garbage created *after* this one.  (The index's own
        counter is the partition file's ledger, which the reclaim's block
        remap already zeroed.)
        """
        if self._store is not None:
            self._store.reset_superseded()

    def configure_partition_cache(self, capacity: int) -> None:
        """Resize the cross-query partition cache (the service applies config).

        Replaces the cache with a fresh one of ``capacity`` partitions and
        re-attaches it to the live processor (``0`` disables caching).
        """
        from ..reachgraph.query import PartitionCache

        self._partition_cache = PartitionCache(capacity=capacity)
        if self._processor is not None:
            self._processor.partition_cache = self._partition_cache

    def note_partitions_retired(self, partition_ids: Sequence[int]) -> None:
        """Discard retired partitions from the partition cache.

        Merge adoptions discard what they rewrote themselves; the service
        calls this after a frontier repack, which retires fragment partition
        ids without an adoption (the packed partition is a new id).
        """
        self._partition_cache.discard(partition_ids)

    # ------------------------------------------------------------------
    # persistence (used by the service's close/reopen cycle)
    # ------------------------------------------------------------------
    def attach_snapshot_store(
        self, store: Optional[ContactSnapshotStore], watermark: Optional[TimeInstant]
    ) -> None:
        """Adopt a restored snapshot store (reopen path; no query fast path)."""
        self._store = store
        self._snapshot_watermark = watermark

    def restore_delta(self, records: Iterable[ContactRecord]) -> None:
        """Replace the delta with persisted records (they are already clipped)."""
        self._delta.clear()
        for record in records:
            self._delta.add(record)

    def graph_catalog(self) -> Optional[Dict[str, object]]:
        """Manifest fragment describing the persisted graph fast path.

        ``None`` before the first merge.  The index lives on this overlay's
        own device: the first merge places it there, and a reopen restores
        it from there.
        """
        if self._processor is None:
            return None
        return {"index": self._processor.index.catalog()}

    def attach_graph(self, processor: "ReachGraphQueryProcessor") -> None:
        """Adopt a restored graph fast path (reopen path)."""
        self._processor = processor
        processor.partition_cache = self._partition_cache
        self._partition_cache.invalidate()

    # ------------------------------------------------------------------
    # introspection (the merge policy reads delta_size)
    # ------------------------------------------------------------------
    @property
    def delta_size(self) -> int:
        """Number of contacts buffered in the delta graph."""
        return len(self._delta)

    @property
    def delta_records(self) -> List[ContactRecord]:
        """The buffered delta records, in arrival order."""
        return self._delta.records

    @property
    def snapshot_size(self) -> int:
        """Number of contacts in the frozen snapshot (0 before the first merge)."""
        return self._store.num_contacts if self._store is not None else 0

    @property
    def snapshot_watermark(self) -> Optional[TimeInstant]:
        """Watermark of the last merge, or ``None`` before the first one."""
        return self._snapshot_watermark

    @property
    def snapshot_store(self) -> Optional[ContactSnapshotStore]:
        """The on-device snapshot contact store (``None`` before any merge)."""
        return self._store

    @property
    def snapshot_runs(self) -> int:
        """Live runs in the snapshot store (0 before any merge)."""
        return self._store.num_runs if self._store is not None else 0

    @property
    def snapshot_records_written(self) -> int:
        """Contact records this overlay's store has ever written."""
        return self._store.records_written if self._store is not None else 0

    @property
    def snapshot_superseded_blocks(self) -> int:
        """Store blocks orphaned by compactions (0 before any merge)."""
        return self._store.superseded_blocks if self._store is not None else 0

    @property
    def snapshot_compactions(self) -> int:
        """Compactions the snapshot store has performed (0 before any merge)."""
        return self._store.compactions if self._store is not None else 0

    @property
    def graph_records_written(self) -> int:
        """Vertex records the overlay's ReachGraph builds/patches ever wrote."""
        return self._graph_records_written

    @property
    def graph_superseded_blocks(self) -> int:
        """Partition blocks orphaned by increment rewrites (graph garbage)."""
        if self._processor is None:
            return 0
        return self._processor.index.superseded_blocks

    @property
    def partition_cache(self) -> "PartitionCache":
        """The overlay-owned cross-query partition cache."""
        return self._partition_cache

    @property
    def label_rejections(self) -> int:
        """Queries the label fast path answered unreachable without traversal."""
        if self._processor is None:
            return 0
        return self._processor.label_rejections

    @property
    def label_frontier_prunes(self) -> int:
        """Frontier expansions the labels let the traversal skip."""
        if self._processor is None:
            return 0
        return self._processor.label_frontier_prunes

    @property
    def label_full_relabels(self) -> int:
        """Relabels the live index has run since it was built or restored."""
        if self._processor is None or self._processor.index.labels is None:
            return 0
        return self._processor.index.labels.full_relabels

    @property
    def bloom_rejections(self) -> int:
        """Union-path queries answered unreachable by the run Bloom filters."""
        return self._bloom_rejections

    @property
    def snapshot_runs_skipped(self) -> int:
        """Runs the store's zone maps let reads skip (0 before any merge)."""
        return self._store.runs_skipped if self._store is not None else 0

    @property
    def snapshot_blocks_skipped(self) -> int:
        """Blocks the store's zone maps let reads skip (0 before any merge)."""
        return self._store.blocks_skipped if self._store is not None else 0

    @property
    def has_reachgraph(self) -> bool:
        """True when the snapshot carries a ReachGraph fast path."""
        return self._processor is not None

    @property
    def snapshot_processor(self) -> Optional["ReachGraphQueryProcessor"]:
        """The ReachGraph fast-path processor (``None`` without one).

        It is the *same* object across merges — its index is patched in
        place — which is what the maintenance tests pin down.
        """
        return self._processor

    @property
    def storage(self) -> StorageSystem:
        """The storage system charged for this overlay's snapshot reads."""
        return self._storage

    # ------------------------------------------------------------------
    # query evaluation
    # ------------------------------------------------------------------
    def _recent_records(
        self,
        start: TimeInstant,
        end: TimeInstant,
        open_runs: Optional[OpenRunView],
    ) -> List[ContactRecord]:
        """Delta and open records overlapping ``[start, end]``, in one pass each.

        Open runs become records clipped past the snapshot watermark (and at
        the bound their view reports) inline, so nothing is counted twice.
        """
        records = self._delta.records_overlapping(start, end)
        if open_runs is None:
            return records
        runs, bound = open_runs()
        if bound is None or bound < start:
            return records
        floor = 0 if self._snapshot_watermark is None else self._snapshot_watermark + 1
        limit = min(bound, end)
        for (first, second), opened in runs:
            if opened < floor:
                opened = floor
            if opened <= limit:
                records.append((first, second, opened, bound))
        return records

    def evaluate(
        self, query: ReachabilityQuery, open_runs: Optional[OpenRunView] = None
    ) -> QueryResult:
        """Answer ``query`` over snapshot ∪ delta ∪ open contacts.

        The one place a query's route is decided, in this order:

        1. a self-query is reachable at ``interval.start``, nothing read;
        2. *watermark route* — delta and open records all start past the
           snapshot watermark, so an interval ending at or before it needs
           neither (``open_runs`` is not even called);
        3. otherwise the delta and open runs are filtered once, as records;
        4. nothing recent overlaps and the graph domain applies → BM-BFS;
        5. Bloom reject — an endpoint provably touches no record;
        6. union path — snapshot records plus the recent ones, through
           :func:`earliest_arrival_time`.

        ``open_runs`` is the caller's lazy view of its still-open runs (for
        example :meth:`~repro.streaming.ingest.StreamIngestor.open_runs`).
        """
        interval = query.interval
        if query.source == query.destination:
            return QueryResult(reachable=True, earliest_time=interval.start)
        watermark = self._snapshot_watermark
        if watermark is not None and interval.end <= watermark:
            records: List[ContactRecord] = []
        else:
            records = self._recent_records(interval.start, interval.end, open_runs)

        if (
            self._processor is not None
            and not records
            and self._fast_path_applicable(query)
        ):
            return self._processor.evaluate(query)

        if self._bloom_rejects(query, records):
            # Sound negative: some endpoint appears in no snapshot run (the
            # Bloom filters prove it) and in no relevant delta/open record,
            # so no temporal path can start (or end) at it — answer without
            # reading a single snapshot block.
            self._bloom_rejections += 1
            return QueryResult(reachable=False)

        cpu_started = time.process_time()
        self._storage.reset_for_query()
        io_before = self._storage.snapshot()
        if self._store is not None:
            records.extend(self._store.read_overlapping(interval))
        earliest = earliest_arrival_time(
            records, query.source, query.destination, interval.start, interval.end
        )
        io_delta = self._storage.charge_since(io_before)
        return QueryResult(
            reachable=earliest is not None,
            earliest_time=earliest,
            io=io_delta.normalized(self._storage.config.sequential_cost),
            random_ios=io_delta.random_reads,
            sequential_ios=io_delta.sequential_reads,
            cpu_seconds=time.process_time() - cpu_started,
            visited=len(records),
        )

    def _bloom_rejects(
        self, query: ReachabilityQuery, recent: Sequence[ContactRecord]
    ) -> bool:
        """True when an endpoint provably touches no record the union path sees.

        A temporal path must leave the source through a contact involving it
        (and likewise arrive at the destination), and every record the union
        path consults lives in the snapshot store or in ``recent``, the
        relevant delta/open slice.  Bloom ``False`` answers are exact, so this
        rejection never flips a reachable query; false positives just fall
        through to the normal read path.
        """
        for endpoint in (query.source, query.destination):
            if self._store is not None and self._store.may_contain(endpoint):
                continue
            if any(r[0] == endpoint or r[1] == endpoint for r in recent):
                continue
            return True
        return False

    def _fast_path_applicable(self, query: ReachabilityQuery) -> bool:
        domain = self._processor.index.domain
        return (
            domain is not None
            and query.source in domain
            and query.destination in domain
            and query.interval.intersection(domain.horizon) is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReachGraphDeltaOverlay(snapshot={self.snapshot_size}, "
            f"delta={self.delta_size}, watermark={self._snapshot_watermark})"
        )
