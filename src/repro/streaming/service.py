"""The queryable streaming facade: ``ingest(events)`` / ``query(q)``.

:class:`StreamingReachabilityService` ties the subsystem together: a
:class:`~repro.streaming.ingest.StreamIngestor` keeps the write-ahead log
and the incremental contact join current, a
:class:`~repro.streaming.delta.ReachGraphDeltaOverlay` answers queries over
snapshot ∪ delta, the delta-size merge policy decides when the delta is
folded into a new snapshot (every merge patches the ReachGraph index, the
first one an empty index), and an LRU query-result cache — invalidated
whenever the watermark advances — absorbs repeated queries between arrivals.

Correctness contract: at any point of the stream, ``query(q)`` returns the
same reachability verdict as the batch ``reference`` evaluator run over the
contact network of the ingested prefix.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..core.config import (
    ContactConfig,
    ReachGraphConfig,
    ReachGridConfig,
    StorageConfig,
    StreamingConfig,
)
from ..core.errors import StreamingError
from ..core.types import QueryResult, ReachabilityQuery, TimeInstant, TimeInterval
from ..contacts.network import Contact
from ..reachgraph.dag import DagPatch
from ..reachgraph.index import GraphFrontier
from ..storage import BACKEND_FILE_SUFFIX, StorageSystem
from ..testing.faults import crash_point
from ..trajectory.model import TrajectoryDataset
from .delta import ContactSnapshotStore, OpenRun, ReachGraphDeltaOverlay
from .events import SampleEvent, StreamBatch
from .ingest import StreamIngestor
from .policy import MergeContext, make_policy
from .source import replay

__all__ = [
    "MergeInputs",
    "QueryResultCache",
    "SnapshotQueryService",
    "StreamingReachabilityService",
    "StreamingStats",
    "build_merge",
]

#: Metadata key under which a service persists its overlay manifest.
_OVERLAY_MANIFEST_KEY = "overlay-manifest"


class QueryResultCache:
    """A small LRU cache of query results with hit/miss accounting.

    A ``capacity`` of 0 disables caching entirely (every lookup is a miss
    that is not counted).  Single-threaded, like the service that owns it:
    queries and the merge adoption that clears it run on one thread, so no
    lock guards it.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[ReachabilityQuery, QueryResult]" = OrderedDict()
        self._generation = 0
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        """True when the cache actually stores results."""
        return self.capacity > 0

    @property
    def generation(self) -> int:
        """Number of invalidations so far (a snapshot-swap observability hook)."""
        return self._generation

    def get(self, query: ReachabilityQuery) -> Optional[QueryResult]:
        """The cached result for ``query``, bumping its recency, or ``None``."""
        if not self.enabled:
            return None
        cached = self._entries.get(query)
        if cached is not None:
            self._entries.move_to_end(query)
            self.hits += 1
            return cached
        self.misses += 1
        return None

    def put(self, query: ReachabilityQuery, result: QueryResult) -> None:
        """Store a result, evicting least-recently-used entries past capacity."""
        if not self.enabled:
            return
        self._entries[query] = result
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept, the generation bumps)."""
        self._entries.clear()
        self._generation += 1

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True, slots=True)
class MergeInputs:
    """The frozen prefix a merge folds into a new snapshot.

    Captured by :meth:`StreamingReachabilityService.prepare_merge` and then
    handed to :func:`build_merge`, which touches nothing but these values:
    the build shares no mutable state with the live service.

    ``bound`` is the watermark at capture time.  ``graph_frontier`` is the
    live index's resumable state, which the merge *patches* — before the
    first merge, :meth:`~repro.reachgraph.GraphFrontier.empty` at
    ``origin``.  ``new_contacts`` is the slice the patch replays, the
    contacts of ``(frontier end, bound]``; clipped past the snapshot
    watermark, it is also the one run the merge appends to the snapshot
    store.  ``graph_config`` freezes the configuration a first merge
    creates the index with, so a config change between prepare and adopt
    cannot split-brain the build.
    """

    new_contacts: Tuple[Contact, ...]
    origin: TimeInstant
    bound: TimeInstant
    temporal_resolution: int
    graph_frontier: GraphFrontier
    graph_config: ReachGraphConfig


def build_merge(
    inputs: MergeInputs, storage_config: StorageConfig | None = None
) -> DagPatch:
    """Run the pure build phase of a merge: patch the captured graph frontier.

    The frozen slice is replayed over :attr:`MergeInputs.graph_frontier`
    into a :class:`~repro.reachgraph.DagPatch` whose cost is proportional to
    the appended ticks; the live index is patched at adoption time.  No
    storage the service owns is touched here — the snapshot run append (and
    the patch application) happen later, inside
    :meth:`StreamingReachabilityService.adopt_merge`.  ``storage_config`` is
    accepted and unused: the build allocates no storage.
    """
    from ..reachgraph import compute_graph_patch

    return compute_graph_patch(inputs.graph_frontier, inputs.new_contacts, inputs.bound)


@dataclass(frozen=True, slots=True)
class StreamingStats:
    """Counters describing the state of a streaming service."""

    events: int
    batches: int
    merges: int
    queries: int
    cache_hits: int
    cache_misses: int
    watermark: Optional[TimeInstant]
    snapshot_watermark: Optional[TimeInstant]
    delta_contacts: int
    snapshot_contacts: int
    snapshot_runs: int
    snapshot_records_written: int
    superseded_blocks: int
    compactions: int
    graph_records_written: int
    graph_superseded_blocks: int
    ingest_seconds: float
    reclaims: int = 0
    reclaimed_blocks: int = 0
    graph_repacks: int = 0
    label_rejections: int = 0
    label_frontier_prunes: int = 0
    # Always 0: labels are never patched, only recomputed in full
    # (``label_full_relabels``).  Kept for readers of the old ledger.
    label_relabels: int = 0
    label_full_relabels: int = 0
    bloom_rejections: int = 0
    partition_cache_hits: int = 0
    partition_cache_misses: int = 0
    snapshot_runs_skipped: int = 0
    snapshot_blocks_skipped: int = 0

    @property
    def events_per_second(self) -> float:
        """Ingest throughput: ``events`` over ``ingest_seconds``.

        ``ingest_seconds`` is not checkpointed, so after a resume it counts
        only the resumed process's ingest calls while ``events`` counts the
        whole stream: the rate is that of a service never resumed.
        """
        if self.ingest_seconds <= 0:
            return 0.0
        return self.events / self.ingest_seconds


class StreamingReachabilityService:
    """Accepts an ordered event stream and stays queryable throughout."""

    def __init__(
        self,
        environment_size: Tuple[float, float],
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
        name: str = "stream",
        auto_merge: bool = True,
        ingestor: StreamIngestor | None = None,
        overlay: ReachGraphDeltaOverlay | None = None,
    ) -> None:
        self.contact_config = contact_config or ContactConfig()
        self.grid_config = grid_config or ReachGridConfig()
        self.streaming_config = streaming_config or StreamingConfig()
        self.name = name
        # With auto_merge off the caller schedules merges (see merge()).
        self.auto_merge = auto_merge
        # ``ingestor``/``overlay`` are the resume path (see :meth:`open`):
        # constructing fresh ones here would attach with ``attach=False``,
        # which deletes any files the previous incarnation left behind.
        self._ingestor = ingestor if ingestor is not None else StreamIngestor(
            environment_size,
            contact_config=self.contact_config,
            grid_config=self.grid_config,
            storage_config=storage_config,
            name=name,
        )
        # The overlay gets its own storage system so per-query IO accounting
        # is not polluted by the ingestor's ongoing WAL writes.
        self._overlay = overlay if overlay is not None else ReachGraphDeltaOverlay(
            StorageSystem(storage_config, name=f"{name}-overlay", attach=False)
        )
        self._policy = make_policy(self.streaming_config)
        self._cache = QueryResultCache(self.streaming_config.query_cache_size)
        self._consumed_closed = 0
        self._restage_cursor = 0
        # The restage cursor of the last overlay manifest made durable: the
        # closed contacts before it are in a committed snapshot.
        self._committed_cursor = 0
        self._batches = 0
        self._merges = 0
        self._queries = 0
        self._compactions = 0
        self._snapshot_records_written = 0
        self._graph_records_written = 0
        self._graph_repacks = 0
        self._reclaims = 0
        self._reclaimed_blocks = 0
        self._closed = False
        self._overlay.configure_partition_cache(
            self.streaming_config.partition_cache_size
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        dataset: TrajectoryDataset,
        contact_config: ContactConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        streaming_config: StreamingConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> "StreamingReachabilityService":
        """A service sized for (but not yet fed with) a dataset's environment."""
        return cls(
            environment_size=dataset.environment_size,
            contact_config=contact_config,
            grid_config=grid_config,
            streaming_config=streaming_config,
            storage_config=storage_config,
            name=f"{dataset.name}-stream",
        )

    @classmethod
    def open(
        cls,
        storage_config: StorageConfig,
        name: str = "stream",
        streaming_config: StreamingConfig | None = None,
        auto_merge: bool = True,
    ) -> "StreamingReachabilityService":
        """Resume a flushed (or killed) service: reopen state, keep ingesting.

        The full-resume counterpart of the read-only
        :meth:`SnapshotQueryService.open`: the overlay (snapshot runs, graph
        fast path) is restored from the overlay device alone, the ingestor
        is restored — once — from the ``<name>-grid`` device (checkpointed
        state plus any WAL tail: the open-contact join, per-object horizon
        bounds, and the closed contacts the durable snapshot may lack) and
        the delta is rebuilt from those contacts, so the
        service continues ingesting and merging from the recovered
        watermark.  The graph keeps its writer's working set from the
        records its restore reads, so no merge reads the extents again.
        The WAL is authoritative: a crash between the ingestor flush and the
        overlay (manifest) flush leaves the WAL ahead, and resuming recovers
        those batches too.
        """
        reopened = SnapshotQueryService._open(
            storage_config,
            name,
            writer_repack=(streaming_config or StreamingConfig()).graph_repack_min_partitions,
        )
        try:
            ingestor = StreamIngestor.restore(storage_config, name)
        except BaseException:
            reopened.close()
            raise
        service = cls(
            environment_size=ingestor.environment_size,
            contact_config=ingestor.contact_config,
            grid_config=ingestor.grid_config,
            streaming_config=streaming_config,
            storage_config=storage_config,
            name=name,
            auto_merge=auto_merge,
            ingestor=ingestor,
            overlay=reopened.overlay,
        )
        service._resume_from_recovered_state()
        return service

    def _resume_from_recovered_state(self) -> None:
        # The WAL-replayed ingestor is authoritative for everything unfrozen:
        # discard the manifest's delta (it may trail the WAL) and restage the
        # closed contacts extending past the snapshot watermark.  The
        # checkpoint holds them from a floor at or below this manifest's
        # restage cursor; positions stay absolute.
        bound = self._overlay.snapshot_watermark
        closed = self._ingestor.closed_contacts
        frozen = 0
        if bound is not None:
            for contact in closed:
                if contact.validity.end > bound:
                    break
                frozen += 1
        self._overlay.restore_delta(())
        for contact in closed[frozen:]:
            self._overlay.add_contact(contact)
        self._restage_cursor = self._ingestor.closed_floor + frozen
        self._committed_cursor = self._releasable_cursor()
        self._consumed_closed = self._ingestor.num_closed_contacts

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: StreamBatch | Iterable[SampleEvent]) -> int:
        """Ingest one batch (or a bare iterable of sample events).

        A bare iterable is wrapped into a batch whose watermark is its latest
        sample time.  Returns the number of events ingested; afterwards the
        service is immediately queryable at the new watermark.
        """
        self._ensure_open()
        batch = (
            events
            if isinstance(events, StreamBatch)
            else StreamBatch.of(tuple(events))
        )
        before = self._ingestor.watermark
        count = self._ingestor.ingest(batch)
        self._batches += 1
        self._sync_delta()
        if self._ingestor.watermark != before:
            self._cache.clear()
        if self.auto_merge:
            self._maybe_merge()
        return count

    def drain(self, source) -> StreamingStats:
        """Ingest an entire stream source (or dataset / canned name) to its end."""
        if isinstance(source, (TrajectoryDataset, str)):
            source = replay(source, batch_ticks=self.streaming_config.batch_ticks)
        for batch in source.batches():
            self.ingest(batch)
        return self.stats

    def _sync_delta(self) -> None:
        for contact in self._ingestor.closed_contacts_since(self._consumed_closed):
            self._overlay.add_contact(contact)
        self._consumed_closed = self._ingestor.num_closed_contacts

    def merge_context(self) -> MergeContext:
        """The :class:`MergeContext` the merge policy would see right now."""
        return MergeContext(
            delta_contacts=self._overlay.delta_size,
            watermark=self._ingestor.watermark,
            snapshot_watermark=self._overlay.snapshot_watermark,
        )

    def _maybe_merge(self) -> None:
        watermark = self._ingestor.watermark
        if watermark is None or watermark == self._overlay.snapshot_watermark:
            return
        if self._policy.should_merge(self.merge_context()):
            self.merge()

    def merge(self) -> None:
        """Fold the delta into the snapshot over the ingested prefix.

        Normally triggered by the merge policy; exposed so callers can force a
        merge (e.g. before a read-heavy phase).  Runs the three phases back to
        back: :meth:`prepare_merge` (capture the frozen slice),
        :func:`build_merge` (the pure graph patch), and
        :meth:`adopt_merge` (patch the graph, append a run).  They are public
        so a caller can time or schedule them one by one.
        """
        inputs = self.prepare_merge()
        build = build_merge(inputs)
        crash_point("merge-pre-adopt")
        self.adopt_merge(build, inputs)

    def prepare_merge(self) -> MergeInputs:
        """Capture what a merge through the current watermark folds in.

        Cheap relative to the build.  The freshly frozen slice is read off
        the tail of the closed-contact list past the restage cursor
        (everything before it was frozen by an earlier merge) plus the open
        runs, so the capture costs what the increment costs.  Before the
        first merge the frontier is empty, over the prefix's object ids
        (:meth:`~repro.streaming.ingest.StreamIngestor.prefix_domain`, which
        also checks every object covers the prefix), and the slice starts
        at the origin: until the overlay holds a graph no closed contact is
        released (see :meth:`_releasable_cursor`), so it reads them all from
        the floor.  The returned :class:`MergeInputs` shares no mutable
        state with the ingestor.
        """
        self._ensure_open()
        bound = self._ingestor.watermark
        origin = self._ingestor.origin
        if bound is None or origin is None:
            raise StreamingError("nothing to merge: no batch ingested yet")
        self._sync_delta()
        graph_config = ReachGraphConfig(interval_labels=self.streaming_config.graph_labels)
        graph_frontier = self._overlay.graph_frontier()
        if graph_frontier is None:
            graph_frontier = GraphFrontier.empty(
                self._ingestor.prefix_domain().object_ids,
                origin,
                graph_config.sorted_resolutions,
            )
            after, closed_from = None, None
        else:
            after, closed_from = self._overlay.snapshot_watermark, self._restage_cursor
        new_contacts = tuple(
            self._ingestor.contacts_through_watermark(after=after, closed_from=closed_from)
        )
        return MergeInputs(
            new_contacts=new_contacts,
            origin=origin,
            bound=bound,
            temporal_resolution=self.grid_config.temporal_resolution,
            graph_frontier=graph_frontier,
            graph_config=graph_config,
        )

    def adopt_merge(self, build: DagPatch, inputs: MergeInputs) -> None:
        """Atomically adopt the built half of a merge.

        Patches the ReachGraph (creating it on the first merge), appends the
        frozen slice as one snapshot run, and — once a level passes
        ``compaction_max_runs`` runs — folds it with a compaction.
        """
        graph_written_before = self._overlay.graph_records_written
        self._snapshot_records_written += self._overlay.adopt_increment(
            build,
            inputs.new_contacts,
            inputs.bound,
            origin=inputs.origin,
            temporal_resolution=inputs.temporal_resolution,
            graph_config=inputs.graph_config,
            repack_min_partitions=self.streaming_config.graph_repack_min_partitions,
        )
        self._graph_records_written += (
            self._overlay.graph_records_written - graph_written_before
        )
        self._finish_adopt(inputs.bound)
        # The run append above is the cheap part; a level-``L`` fold is
        # bounded by the level's size and fires only once per
        # compaction_max_runs**(L+1) merges.
        compactions_before = self._overlay.snapshot_compactions
        compacted = self._overlay.maybe_compact(
            self.streaming_config.compaction_max_runs
        )
        if compacted:
            self._snapshot_records_written += compacted
        self._compactions += self._overlay.snapshot_compactions - compactions_before
        self._maybe_repack()
        self._maybe_reclaim()

    def _maybe_repack(self) -> None:
        """Fold cold fragmented graph partitions when the config asks for it.

        Only an index placed on the overlay's own device is repacked — one
        attached out-of-band manages its own space.
        """
        min_partitions = self.streaming_config.graph_repack_min_partitions
        if not min_partitions:
            return
        processor = self._overlay.snapshot_processor
        if processor is None:
            return
        index = processor.index
        if not index.is_placed or index.storage is not self._overlay.storage:
            return
        repacks_before = index.num_repacks
        written_before = index.records_written
        retired = index.repack_frontier(min_partitions)
        self._graph_records_written += index.records_written - written_before
        self._graph_repacks += index.num_repacks - repacks_before
        if retired:
            # A repack appends one packed extent and tombstones the fragments
            # it folds: cached entries of the retired ids would never hit
            # again.
            self._overlay.note_partitions_retired(retired)

    def _finish_adopt(self, bound: TimeInstant) -> None:
        # Closed contacts are produced with non-decreasing end instants, so
        # everything before the restage cursor is frozen below every bound a
        # later merge can use — only the tail needs rescanning.  (Restaging
        # the full history here was quadratic on long streams and re-added
        # contacts the snapshot store already held.)
        tail = self._ingestor.closed_contacts_since(self._restage_cursor)
        frozen = 0
        for contact in tail:
            if contact.validity.end > bound:
                break
            frozen += 1
        self._restage_cursor += frozen
        for contact in tail[frozen:]:
            self._overlay.add_contact(contact)
        self._consumed_closed = self._ingestor.num_closed_contacts
        self._merges += 1
        self._cache.clear()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer a reachability query over everything ingested so far."""
        self._ensure_open()
        self._queries += 1
        cached = self._cache.get(query)
        if cached is not None:
            return cached
        result = self._overlay.evaluate(query, open_runs=self._ingestor.open_runs)
        self._cache.put(query, result)
        return result

    # ------------------------------------------------------------------
    # durability (persistent backends)
    # ------------------------------------------------------------------
    def _overlay_manifest(self) -> dict:
        store = self._overlay.snapshot_store
        runs, bound = self._ingestor.open_runs()
        return {
            "watermark": self._ingestor.watermark,
            "snapshot_watermark": self._overlay.snapshot_watermark,
            "store": None if store is None else store.manifest(),
            "delta": self._overlay.delta_records,
            "open": (
                []
                if bound is None
                else [(a, b, start, bound) for (a, b), start in runs if start <= bound]
            ),
            "graph": self._overlay.graph_catalog(),
        }

    def flush(self) -> None:
        """Persist the queryable state durably (a no-op on the sim backend).

        Writes the overlay manifest — snapshot-store run directory, buffered
        delta contacts, open contact runs, watermark, graph catalog — into
        the overlay storage system's metadata and flushes both storage
        systems, so a crash after this point loses nothing:
        :meth:`SnapshotQueryService.open` can reconstruct a service answering
        bit-identically at the flushed watermark, and
        :meth:`StreamingReachabilityService.open` can resume ingesting.

        The overlay flush is the commit point: the ingestor's device (whose
        journal checkpoint the manifest's watermark leans on) is flushed
        *first*, so a crash between the two flushes leaves the ingestor
        durably ahead of the manifest — recoverable — never behind it.  The
        ingestor checkpoints only the closed contacts from the restage
        cursor of the last manifest that *committed*: a crash before this
        flush's manifest commits reopens that one, whose snapshot lacks
        exactly those contacts.
        """
        self._flush_ingestor()
        crash_point("flush-post-ingestor")
        cursor = self._releasable_cursor()
        self._overlay.storage.put_metadata(
            _OVERLAY_MANIFEST_KEY, self._overlay_manifest()
        )
        crash_point("flush-post-manifest")
        self._overlay.storage.flush()
        self._committed_cursor = cursor

    def _flush_ingestor(self) -> None:
        """Checkpoint the ingestor device alone (truncating its WAL)."""
        self._ingestor.release_closed(self._committed_cursor)
        self._ingestor.flush()

    def _releasable_cursor(self) -> int:
        """The closed-contact position a manifest written now lets go of.

        Everything before the restage cursor is frozen in the snapshot — but
        the first merge's patch replays every contact from the origin, so
        while the overlay has no graph (a device written by a build whose
        merges could skip it) nothing is released.
        """
        return self._restage_cursor if self._overlay.has_reachgraph else 0

    def reclaim(self, trigger: float = 0.0) -> int:
        """Copy-forward reclaim of each device whose garbage ratio reaches ``trigger``.

        Returns the blocks freed.  The default, 0.0, reclaims both devices;
        the ``gc_trigger_ratio`` policy passes its ratio, so a pass copies
        only the device past it.

        A device's reclaim commits whatever metadata is current, so the
        durable overlay manifest must describe the *live* files before that
        catalog is rewritten — otherwise a crash after the reclaim could
        reopen a manifest naming run files the committed catalog no longer
        holds.  Copying the overlay therefore takes a full :meth:`flush`
        first (the ingestor first).  Copying only the ingestor device takes
        no checkpoint: its reclaim commits the catalog with the journal tail
        beside the previous checkpoint, which a restore replays.  After an
        overlay reclaim the overlay's superseded ledgers reset (the garbage
        they counted is gone).
        """
        self._ensure_open()
        copy_overlay = self._overlay.storage.garbage_ratio >= trigger
        copy_ingestor = self._ingestor.storage.garbage_ratio >= trigger
        if copy_overlay:
            self.flush()
        freed = 0
        if copy_overlay:
            freed = self._overlay.storage.reclaim()
            if freed:
                self._overlay.note_device_reclaimed()
        if copy_ingestor:
            freed += self._ingestor.storage.reclaim()
        if freed:
            self._reclaims += 1
            self._reclaimed_blocks += freed
        return freed

    def _maybe_reclaim(self) -> None:
        """Reclaim the devices whose garbage ratio passes the config knob.

        A pass due on the ``<name>-grid`` device alone checkpoints the
        ingestor first, as :meth:`flush` does before its manifest: the WAL
        truncation turns the journal into garbage, so the copy holds the
        checkpoint alone, not a journal tail the next flush would drop
        again.  (An explicit grid-only :meth:`reclaim` takes no checkpoint.)
        """
        ratio = self.streaming_config.gc_trigger_ratio
        overlay = self._overlay.storage.garbage_ratio
        if ratio > 0.0 and ratio <= max(overlay, self._ingestor.storage.garbage_ratio):
            if overlay < ratio:
                self._flush_ingestor()
            self.reclaim(ratio)

    def close(self) -> None:
        """Flush and release both storage systems.  Idempotent.

        Afterwards the service must not ingest or answer queries; with a
        persistent backend and a real ``storage_dir``, the state reopens via
        :meth:`SnapshotQueryService.open`.
        """
        if self._closed:
            return
        self.flush()
        self._overlay.storage.close()
        self._ingestor.storage.close()
        self._cache.clear()  # a closed service must not serve stale answers
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StreamingError(
                f"service {self.name!r} is closed; reopen its persisted state "
                "with SnapshotQueryService.open"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[TimeInstant]:
        """Last complete tick of the stream (``None`` before the first batch)."""
        return self._ingestor.watermark

    @property
    def ingestor(self) -> StreamIngestor:
        """The underlying ingestor (WAL, contacts, counters)."""
        return self._ingestor

    @property
    def overlay(self) -> ReachGraphDeltaOverlay:
        """The snapshot + delta overlay answering queries."""
        return self._overlay

    @property
    def num_merges(self) -> int:
        """Merges performed so far."""
        return self._merges

    @property
    def num_compactions(self) -> int:
        """Snapshot-store compactions performed so far."""
        return self._compactions

    @property
    def num_reclaims(self) -> int:
        """Device reclaim passes that actually freed blocks."""
        return self._reclaims

    @property
    def reclaimed_blocks(self) -> int:
        """Total device blocks freed by reclaim passes."""
        return self._reclaimed_blocks

    @property
    def snapshot_records_written(self) -> int:
        """Cumulative contact records written by merges and compactions.

        The service-lifetime write-amplification ledger: each merge adds
        only its freshly frozen slice (plus occasional compaction rewrites).
        """
        return self._snapshot_records_written

    @property
    def graph_records_written(self) -> int:
        """Cumulative ReachGraph vertex records written by merges.

        The graph-side write-amplification ledger: the first merge writes
        every vertex, each later merge only the fresh and dirtied partitions
        (plus repack rewrites).
        """
        return self._graph_records_written

    @property
    def stats(self) -> StreamingStats:
        """A snapshot of the service's counters."""
        return StreamingStats(
            events=self._ingestor.num_events,
            batches=self._batches,
            merges=self._merges,
            queries=self._queries,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            watermark=self._ingestor.watermark,
            snapshot_watermark=self._overlay.snapshot_watermark,
            delta_contacts=self._overlay.delta_size,
            snapshot_contacts=self._overlay.snapshot_size,
            snapshot_runs=self._overlay.snapshot_runs,
            snapshot_records_written=self._snapshot_records_written,
            superseded_blocks=self._overlay.snapshot_superseded_blocks,
            compactions=self._compactions,
            graph_records_written=self._graph_records_written,
            graph_superseded_blocks=self._overlay.graph_superseded_blocks,
            ingest_seconds=self._ingestor.ingest_seconds,
            reclaims=self._reclaims,
            reclaimed_blocks=self._reclaimed_blocks,
            graph_repacks=self._graph_repacks,
            label_rejections=self._overlay.label_rejections,
            label_frontier_prunes=self._overlay.label_frontier_prunes,
            label_full_relabels=self._overlay.label_full_relabels,
            bloom_rejections=self._overlay.bloom_rejections,
            partition_cache_hits=self._overlay.partition_cache.hits,
            partition_cache_misses=self._overlay.partition_cache.misses,
            snapshot_runs_skipped=self._overlay.snapshot_runs_skipped,
            snapshot_blocks_skipped=self._overlay.snapshot_blocks_skipped,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingReachabilityService(name={self.name!r}, "
            f"watermark={self.watermark}, merges={self._merges}, "
            f"delta={self._overlay.delta_size})"
        )


class SnapshotQueryService:
    """A read-only service reopened from a closed persistent storage system.

    What :meth:`StreamingReachabilityService.flush` makes durable is the
    *queryable* state — snapshot contact runs, buffered delta contacts, open
    contact runs, the watermark, and the ReachGraph fast path's partition
    extents plus catalog.  Reopening restores exactly that: answers are
    bit-identical to the service that was closed, at its final watermark,
    and queries the fast path can serve (no delta or open contact overlaps
    the interval) run through the restored ReachGraph index — the rest take
    the overlay union path (snapshot runs read from the reopened device, IO
    charged as usual).  Everything is read off the ``<name>-overlay`` device:
    the ingestor's ``<name>-grid`` device is never opened, and of the graph
    only what serving reads is rebuilt (see
    :meth:`~repro.reachgraph.ReachGraphIndex.restore`).  To *resume
    ingesting* instead of just querying, use
    :meth:`StreamingReachabilityService.open`.
    """

    def __init__(
        self,
        storage: StorageSystem,
        overlay: ReachGraphDeltaOverlay,
        open_runs: Sequence[OpenRun],
        watermark: Optional[TimeInstant],
    ) -> None:
        self._storage = storage
        self._overlay = overlay
        self._open_runs = list(open_runs)
        self._watermark = watermark
        self._queries = 0

    @classmethod
    def open(
        cls, storage_config: StorageConfig, name: str = "stream"
    ) -> "SnapshotQueryService":
        """Reopen the persisted state of the service that was named ``name``.

        ``storage_config`` must use a persistent backend and the same
        ``storage_dir`` the original service wrote to; ``name`` must match
        the original service's name (the overlay device is looked up as
        ``<name>-overlay``).
        """
        return cls._open(storage_config, name, writer_repack=None)

    @classmethod
    def _open(
        cls,
        storage_config: StorageConfig,
        name: str,
        writer_repack: Optional[int],
    ) -> "SnapshotQueryService":
        """:meth:`open`; a resuming writer passes its repack policy as
        ``writer_repack`` and its graph keeps the writer's working set
        (:meth:`~repro.reachgraph.ReachGraphIndex.restore`)."""
        if storage_config.backend == "sim" or storage_config.storage_dir is None:
            raise StreamingError(
                "reopening needs a persistent backend and a real storage_dir"
            )
        # Probe for the durable manifest before constructing the storage
        # system: attaching to a path that was never written would create a
        # fresh empty device file — junk in the operator's data directory on
        # what is purely a read operation with a wrong name or dir.
        suffix = BACKEND_FILE_SUFFIX[storage_config.backend]
        device_path = os.path.join(
            storage_config.storage_dir, f"{name}-overlay{suffix}"
        )
        missing = StreamingError(
            f"no persisted overlay manifest found for service {name!r} "
            f"in {storage_config.storage_dir!r} (was the service closed?)"
        )
        if not os.path.exists(device_path + ".manifest"):
            raise missing
        storage = StorageSystem(storage_config, name=f"{name}-overlay")
        # Everything after the device is open runs under one guard: a corrupt
        # manifest must not leak the open device handle (BaseException so even
        # a SimulatedCrash mid-restore releases it).
        try:
            manifest = storage.get_metadata(_OVERLAY_MANIFEST_KEY)
            if manifest is None:
                raise missing
            overlay = ReachGraphDeltaOverlay(storage)
            store = None
            if manifest["store"] is not None:
                store = ContactSnapshotStore.restore(storage, manifest["store"])
            overlay.attach_snapshot_store(store, manifest["snapshot_watermark"])
            overlay.restore_delta(manifest["delta"])
            # Every open record was written clipped at the manifest's
            # watermark, so the runs keep only the pair and the opening tick.
            open_runs = [((a, b), start) for a, b, start, _ in manifest["open"]]
            graph = manifest.get("graph")
            if graph is not None:
                from ..reachgraph import ReachGraphIndex, ReachGraphQueryProcessor

                # The graph rides the same commit as the store and the
                # watermark, and those two say which ticks it covers: nothing
                # outside this device is opened to serve from it.
                if store is None:
                    raise StreamingError(
                        f"overlay manifest of {name!r} names a graph but no "
                        "snapshot store"
                    )
                index = ReachGraphIndex.restore(
                    storage,
                    graph["index"],
                    TimeInterval(store.origin, manifest["snapshot_watermark"]),
                    repack_min_partitions=writer_repack,
                )
                overlay.attach_graph(ReachGraphQueryProcessor(index))
            return cls(storage, overlay, open_runs, manifest["watermark"])
        except BaseException:
            storage.release()
            raise

    def query(self, query: ReachabilityQuery) -> QueryResult:
        """Answer a query over the persisted prefix (union path, IO charged)."""
        self._queries += 1
        return self._overlay.evaluate(query, open_runs=self.open_runs)

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """The watermark the persisted state answers through."""
        return self._watermark

    def open_runs(self) -> Tuple[Iterable[OpenRun], Optional[TimeInstant]]:
        """The restored still-open runs as ``(pair, opened)``, and their bound."""
        return self._open_runs, self._watermark

    @property
    def overlay(self) -> ReachGraphDeltaOverlay:
        """The restored snapshot + delta overlay."""
        return self._overlay

    @property
    def storage(self) -> StorageSystem:
        """The reopened storage system (IO counters, paths)."""
        return self._storage

    def close(self) -> None:
        """Release the reopened device (the state stays on disk).

        Write-free: a read-only service has nothing to persist, and skipping
        the final manifest rewrite lets several readers hold snapshots of the
        same storage directory at once.
        """
        self._storage.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotQueryService(watermark={self._watermark}, "
            f"snapshot={self._overlay.snapshot_size}, "
            f"delta={self._overlay.delta_size})"
        )
