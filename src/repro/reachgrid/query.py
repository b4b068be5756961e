"""ReachGrid online query processing (Algorithm 1 of the paper).

The processor incrementally discovers the objects reachable from the query
source (the *seed set*) by sweeping the query interval in time order:

1. The query interval is quantized into the temporal grid intervals it
   overlaps.
2. At the start of each temporal interval the cells containing the current
   seeds are located through the external hash table and retrieved from disk;
   the *potential seed cells* ``N_i`` — cells within ``dT`` of the expanded
   MBRs of the seeds' trajectory segments — are retrieved as well.
3. A time sweep over the interval runs a *frontier join* at every tick: the
   tick's loaded positions are hashed into ``dT``-sided buckets once
   (:class:`~repro.contacts.join.SpatialHash`), and each pass of the tick's
   fixed point probes only what can add a seed — the seeds reached in the
   previous pass against the unreached objects around them, and the positions
   the previous pass's reads brought in against the seeds around them.  When
   fewer objects are unreached than seeds would be probed, the pass probes
   from the unreached side instead.  The objects a pass reaches enter the seed
   set together (one BFS level, with the time they became reachable) and
   their cells and potential seed cells are fetched before the next pass.
4. Processing stops as soon as the query destination enters the seed set or
   the whole query interval has been swept.

Cell retrievals are batched and issued in disk order: the index places the
cells of one temporal interval on consecutive blocks precisely so that the
sweep can read them (mostly) sequentially, and the processor preserves that
locality by sorting each batch of cell keys before reading.  The hash-table
lookups that locate a batch's cells are issued in object-id order, so the IO
ledger of a query depends on which objects a pass reached, never on the order
in which the join happened to find them.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import groupby, islice
from operator import itemgetter
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from ..contacts.join import SpatialHash
from ..core.errors import QueryError, UnknownObjectError
from ..core.types import (
    ObjectId,
    QueryResult,
    ReachabilityQuery,
    TimeInstant,
    TimeInterval,
)
from ..storage.stats import IOSnapshot
from ..trajectory.mbr import MBR
from .cells import CellKey
from .index import ReachGridIndex

__all__ = ["ReachGridQueryProcessor"]

#: The timestamp of an on-disk sample record ``(object_id, t, x, y)``.
_RECORD_TIME = itemgetter(1)


class _LoadedWindow:
    """What a query has read of one temporal interval, clipped to its window.

    ``positions[t][object]`` is the ``(x, y)`` of every loaded sample whose
    tick lies in the window; each cell is read at most once.
    """

    def __init__(
        self,
        index: ReachGridIndex,
        temporal_index: int,
        window: TimeInterval,
        threshold: float,
    ) -> None:
        self._index = index
        self._temporal_index = temporal_index
        self._window = window
        self._threshold = threshold
        self._loaded_cells: Set[CellKey] = set()
        self.positions: Dict[TimeInstant, Dict[ObjectId, Tuple[float, float]]] = {}
        self.cells_read = 0

    def admit(self, object_ids: List[ObjectId], from_time: TimeInstant) -> None:
        """Fetch what new seeds bring in: their cells, then their ``N_i`` cells.

        Two batches, each read in disk order: the cells holding the seeds
        during this interval (one hash lookup per seed), then the potential
        seed cells within ``dT`` of their trajectory MBRs from ``from_time``
        on — which are only known once the first batch is in memory.
        """
        index = self._index
        interval = self._temporal_index
        self._load(
            (interval, col, row)
            for object_id in object_ids
            for col, row in index.cells_of_object(object_id, interval)
        )
        self._load(
            key
            for object_id in object_ids
            for key in self._neighbourhood_keys(object_id, from_time)
        )

    def _load(self, keys: Iterable[CellKey]) -> None:
        """Read a batch of cells in disk (sorted-key) order."""
        index = self._index
        loaded = self._loaded_cells
        positions = self.positions
        first, last = self._window.start, self._window.end
        for key in sorted(key for key in set(keys) if key not in loaded):
            loaded.add(key)
            if not index.has_cell(key):
                continue
            self.cells_read += 1
            # A cell's records are ordered by timestamp: cut the window's run
            # out of them and file each tick's records in one update.  The
            # cell is read whole, so its blocks are decoded into one list.
            records = list(index.read_cell(key))
            lo = bisect_left(records, first, key=_RECORD_TIME)
            hi = bisect_right(records, last, key=_RECORD_TIME)
            for t, group in groupby(records[lo:hi], _RECORD_TIME):
                positions.setdefault(t, {}).update(
                    (record[0], record[2:]) for record in group
                )

    def _neighbourhood_keys(
        self, object_id: ObjectId, from_time: TimeInstant
    ) -> Iterable[CellKey]:
        """Potential-seed cells ``N_i`` around one seed's trajectory MBR."""
        positions = self.positions
        samples = [
            positions[t][object_id]
            for t in range(from_time, self._window.end + 1)
            if t in positions and object_id in positions[t]
        ]
        if not samples:
            return ()
        xs = [x for x, _ in samples]
        ys = [y for _, y in samples]
        margin = self._threshold
        rect = MBR(min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
        return self._index.geometry.cells_intersecting(rect, self._temporal_index)


class ReachGridQueryProcessor:
    """Evaluates reachability queries against a built :class:`ReachGridIndex`."""

    def __init__(self, index: ReachGridIndex) -> None:
        if not index.is_built:
            raise QueryError("ReachGrid index must be built before querying")
        self.index = index
        self._threshold = index.contact_config.distance_threshold

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, query: ReachabilityQuery) -> QueryResult:
        """Evaluate one reachability query and report IO/CPU cost."""
        dataset = self.index.dataset
        if query.source not in dataset:
            raise UnknownObjectError(query.source)
        if query.destination not in dataset:
            raise UnknownObjectError(query.destination)
        interval = query.interval.intersection(dataset.horizon)
        if interval is None:
            raise QueryError(
                f"query interval {query.interval} does not overlap the horizon "
                f"{dataset.horizon}"
            )

        storage = self.index.storage
        storage.reset_for_query()
        io_before = storage.snapshot()
        cpu_started = time.process_time()

        if query.source == query.destination:
            return self._result(True, interval.start, io_before, cpu_started, 0)

        reachable, earliest, cells_read = self._expand_seeds(
            query.source, query.destination, interval
        )
        return self._result(reachable, earliest, io_before, cpu_started, cells_read)

    # ------------------------------------------------------------------
    # core expansion
    # ------------------------------------------------------------------
    def _expand_seeds(
        self,
        source: ObjectId,
        destination: ObjectId,
        interval: TimeInterval,
    ) -> Tuple[bool, Optional[TimeInstant], int]:
        """Run the guided seed-set expansion of Algorithm 1."""
        geometry = self.index.geometry
        threshold = self._threshold
        seeds: Dict[ObjectId, TimeInstant] = {source: interval.start}
        cells_read = 0

        for temporal_index in geometry.temporal_indices_overlapping(interval):
            window = geometry.temporal_interval(temporal_index).intersection(interval)
            if window is None:
                continue
            # Locate and retrieve the cells of every current seed, then the
            # potential seed cells around their segments in this window.
            loaded = _LoadedWindow(self.index, temporal_index, window, threshold)
            loaded.admit(sorted(seeds), window.start)

            # Sweep the window tick by tick, discovering new seeds in the
            # order they become reachable.
            for t in window.instants():
                here = loaded.positions.get(t)
                if not here:
                    continue
                frontier: Collection[ObjectId] = seeds.keys() & here.keys()
                unreached = len(here) - len(frontier)
                if not frontier or not unreached:
                    continue
                grid = SpatialHash(threshold)
                grid.insert([(o, x, y) for o, (x, y) in here.items()])
                hashed = len(here)
                late: List[ObjectId] = []
                # Fixed point at this tick: a snapshot contact chain makes all
                # of its members reachable at the same instant (Property 5.1).
                # ``frontier`` holds the seeds no pass has probed from yet and
                # ``late`` the unreached objects no seed has been tested
                # against; everything else was cleared by an earlier pass.
                while True:
                    reached: Set[ObjectId] = set()
                    if unreached < len(frontier) + len(late):
                        # Fewer objects left to reach than probes to make:
                        # test each of them against the seeds around it.
                        late = [o for o in here if o not in seeds]
                    else:
                        for seed in frontier:
                            for o in grid.within(*here[seed]):
                                if o not in seeds:
                                    reached.add(o)
                    for o in late:
                        for other in grid.within(*here[o]):
                            if other in seeds:
                                reached.add(o)
                                break
                    if not reached:
                        break
                    newcomers = sorted(reached)
                    for o in newcomers:
                        seeds[o] = t
                    if destination in reached:
                        return True, t, cells_read + loaded.cells_read
                    loaded.admit(newcomers, t)
                    # The reads may have brought in more positions at this
                    # very tick; hash them and queue them for the next pass.
                    frontier = newcomers
                    late = []
                    if len(here) > hashed:
                        arrived = list(islice(here.items(), hashed, None))
                        grid.insert([(o, x, y) for o, (x, y) in arrived])
                        hashed = len(here)
                        late = [o for o, _ in arrived if o not in seeds]
                        frontier = newcomers + [o for o, _ in arrived if o in seeds]
                    unreached += len(late) - len(newcomers)
            cells_read += loaded.cells_read

        return destination in seeds, seeds.get(destination), cells_read

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _result(
        self,
        reachable: bool,
        earliest: Optional[TimeInstant],
        io_before: IOSnapshot,
        cpu_started: float,
        cells_read: int,
    ) -> QueryResult:
        storage = self.index.storage
        delta = storage.charge_since(io_before)
        return QueryResult(
            reachable=reachable,
            earliest_time=earliest if reachable else None,
            io=delta.normalized(storage.config.sequential_cost),
            random_ios=delta.random_reads,
            sequential_ios=delta.sequential_reads,
            cpu_seconds=time.process_time() - cpu_started,
            visited=cells_read,
        )
