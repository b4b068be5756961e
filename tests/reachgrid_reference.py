"""Reference oracles for ReachGrid query processing and the contact join.

Algorithm 1 and the grid-hash join exactly as they ran before the frontier
join (ISSUE 21): every pass of a tick's fixed point re-hashes **all** loaded
positions and enumerates **all** pairs within ``dT``, keeping the ones with
exactly one seed; every sample is a :class:`Point` in a per-tick dict.  Kept
here, out of ``src/``, as the implementations the production
:class:`~repro.reachgrid.ReachGridQueryProcessor` and
:func:`~repro.contacts.pairs_within_distance` must equal — answers, cells read
and IO ledger for the first, the pair list *in order* for the second.

The seed expansion differs from the parent's in two places, both marked: the
object→cells hash lookups of a batch go out in object-id order — the
newcomers of a pass (``new_objects.sort()``) and the seeds at the start of a
temporal interval (``sorted(seeds)``) — where the parent issued them in the
order its all-pairs join happened to report the pairs (the iteration order of
a bucket dict).  Which bucket block is touched first decides the
random/sequential split of a query, so without a canonical order the IO
ledger would pin the join's internals, not the algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import ContactNetworkError
from repro.core.types import ObjectId, Point, TimeInstant, TimeInterval
from repro.reachgrid import CellKey, ReachGridQueryProcessor
from repro.trajectory.mbr import MBR


def _grid_key(position: Point, cell_size: float) -> Tuple[int, int]:
    return (int(position.x // cell_size), int(position.y // cell_size))


def reference_pairs_within_distance(
    positions: Dict[ObjectId, Point], threshold: float
) -> List[Tuple[ObjectId, ObjectId]]:
    """All unordered pairs of objects within ``threshold`` of each other.

    Uses a uniform grid hash with cell side ``threshold`` so that only the 3x3
    neighbourhood of each cell needs to be examined.
    """
    if threshold <= 0:
        raise ContactNetworkError("distance threshold must be positive")
    cells: Dict[Tuple[int, int], List[ObjectId]] = defaultdict(list)
    for object_id, position in positions.items():
        cells[_grid_key(position, threshold)].append(object_id)

    threshold_sq = threshold * threshold
    pairs: List[Tuple[ObjectId, ObjectId]] = []
    for (cx, cy), members in cells.items():
        # Pairs inside the same cell.
        for i, a in enumerate(members):
            pa = positions[a]
            for b in members[i + 1 :]:
                pb = positions[b]
                dx = pa.x - pb.x
                dy = pa.y - pb.y
                if dx * dx + dy * dy <= threshold_sq:
                    pairs.append((a, b) if a < b else (b, a))
        # Pairs with forward neighbour cells (each unordered cell pair once).
        for dx_cell, dy_cell in ((1, -1), (1, 0), (1, 1), (0, 1)):
            neighbour = cells.get((cx + dx_cell, cy + dy_cell))
            if not neighbour:
                continue
            for a in members:
                pa = positions[a]
                for b in neighbour:
                    pb = positions[b]
                    dx = pa.x - pb.x
                    dy = pa.y - pb.y
                    if dx * dx + dy * dy <= threshold_sq:
                        pairs.append((a, b) if a < b else (b, a))
    return pairs


class ReferenceReachGridQueryProcessor(ReachGridQueryProcessor):
    """The all-pairs seed expansion; ``evaluate`` and the IO ledger are shared."""

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

            loaded_cells: Set[CellKey] = set()
            positions_by_tick: Dict[TimeInstant, Dict[ObjectId, Point]] = {}

            def load_cells(keys: Iterable[CellKey]) -> None:
                """Read a batch of cells in disk (sorted-key) order."""
                nonlocal cells_read
                pending = sorted(
                    key
                    for key in set(keys)
                    if key not in loaded_cells
                )
                for key in pending:
                    loaded_cells.add(key)
                    if not self.index.has_cell(key):
                        continue
                    cells_read += 1
                    for object_id, t, x, y in self.index.read_cell(key):
                        if window.contains(t):
                            positions_by_tick.setdefault(t, {})[object_id] = Point(x, y)

            def own_cell_keys(object_id: ObjectId) -> List[CellKey]:
                return [
                    (temporal_index, col, row)
                    for col, row in self.index.cells_of_object(object_id, temporal_index)
                ]

            def neighbourhood_keys(
                object_id: ObjectId, from_time: TimeInstant
            ) -> List[CellKey]:
                """Potential-seed cells ``N_i`` around one seed's trajectory MBR."""
                samples = [
                    positions_by_tick[t][object_id]
                    for t in range(from_time, window.end + 1)
                    if t in positions_by_tick and object_id in positions_by_tick[t]
                ]
                if not samples:
                    return []
                rect = MBR.from_points(samples).expanded(threshold)
                return list(geometry.cells_intersecting(rect, temporal_index))

            # Locate and retrieve the cells of every current seed (hash lookups
            # followed by one disk-ordered batch read), then the potential seed
            # cells within dT of their trajectory MBRs (a second batch).
            # Hash lookups in object-id order (see the module docstring).
            current_seeds = sorted(seeds)
            load_cells(
                key for seed in current_seeds for key in own_cell_keys(seed)
            )
            load_cells(
                key
                for seed in current_seeds
                for key in neighbourhood_keys(seed, window.start)
            )

            # Sweep the window tick by tick, discovering new seeds in the
            # order they become reachable.
            for t in window.instants():
                positions = positions_by_tick.get(t, {})
                if not positions:
                    continue
                # Fixed point at this tick: a snapshot contact chain makes all
                # of its members reachable at the same instant (Property 5.1).
                while True:
                    active_seeds = {
                        o for o, reached in seeds.items() if reached <= t and o in positions
                    }
                    if not active_seeds:
                        break
                    new_objects: List[ObjectId] = []
                    for a, b in reference_pairs_within_distance(positions, threshold):
                        a_is_seed = a in active_seeds
                        b_is_seed = b in active_seeds
                        if a_is_seed == b_is_seed:
                            continue
                        newcomer = b if a_is_seed else a
                        if newcomer not in seeds:
                            seeds[newcomer] = t
                            new_objects.append(newcomer)
                    if not new_objects:
                        break
                    if destination in seeds:
                        return True, seeds[destination], cells_read
                    # Hash lookups in object-id order (see the module docstring).
                    new_objects.sort()
                    load_cells(
                        key
                        for newcomer in new_objects
                        for key in own_cell_keys(newcomer)
                    )
                    load_cells(
                        key
                        for newcomer in new_objects
                        for key in neighbourhood_keys(newcomer, t)
                    )

        return destination in seeds, seeds.get(destination), cells_read
