"""ReachGrid index construction and disk placement.

Construction (Section 4.1):

1. Partition the horizon ``T`` into temporal intervals of ``RT`` ticks.
2. Within each temporal interval, partition the trajectory segments with a
   spatial grid of cell side ``RS``; a segment's samples are assigned to the
   cells that contain them (a segment spanning several cells contributes
   samples to each).
3. Disk placement: cells of interval ``T_i`` are written before cells of
   ``T_j`` for ``i < j``; within a cell, samples are ordered by timestamp.
   This is what allows query processing to stop reading as soon as a contact
   path is found.
4. An external hash table maps ``(object, temporal interval)`` to the cells
   holding that object's samples during the interval, so the query can locate
   the source (and newly discovered seeds) in a constant number of IOs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple

from ..core.config import ContactConfig, ReachGridConfig, StorageConfig
from ..core.errors import IndexConstructionError, IndexNotBuiltError
from ..core.types import ObjectId, TimeInstant
from ..storage import StorageSystem
from ..trajectory.model import TrajectoryDataset
from .cells import CellKey, GridGeometry

__all__ = ["ReachGridIndex", "ReachGridBuildReport"]

#: On-disk record of one trajectory sample: (object_id, t, x, y).
SampleRecord = Tuple[ObjectId, TimeInstant, float, float]


@dataclass(frozen=True, slots=True)
class ReachGridBuildReport:
    """Statistics collected while building a ReachGrid index."""

    num_cells: int
    num_records: int
    num_blocks: int
    build_seconds: float
    write_ios: int


class ReachGridIndex:
    """The ReachGrid spatiotemporal index over a trajectory dataset."""

    def __init__(
        self,
        dataset: TrajectoryDataset,
        config: ReachGridConfig | None = None,
        contact_config: ContactConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or ReachGridConfig()
        self.contact_config = contact_config or ContactConfig()
        self.storage = StorageSystem(storage_config, name="reachgrid", attach=False)
        self.geometry = GridGeometry(
            horizon=dataset.horizon,
            environment_size=dataset.environment_size,
            config=self.config,
        )
        self._cells_file = self.storage.new_blockfile("reachgrid-cells")
        self._object_cells = self.storage.new_hashtable("reachgrid-object-cells")
        self._built = False
        self.build_report: ReachGridBuildReport | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "ReachGridIndex":
        """Construct the index and place it on the simulated disk."""
        if self._built:
            raise IndexConstructionError("ReachGrid index already built")
        started = time.perf_counter()
        geometry = self.geometry

        # Pass 1: bucket every sample into its spatiotemporal cell, and record
        # which cells each object touches during each temporal interval.
        # Every trajectory covers the dataset horizon, so a sample's temporal
        # interval follows from its offset alone.
        rt = self.config.temporal_resolution
        cell_records: Dict[CellKey, List[SampleRecord]] = {}
        object_cells: Dict[ObjectId, Dict[int, Set[Tuple[int, int]]]] = {}
        for trajectory in self.dataset:
            object_id = trajectory.object_id
            start = trajectory.start_time
            positions = trajectory.positions
            cells = geometry.spatial.cells_of(positions)
            per_interval = object_cells.setdefault(object_id, {})
            for first in range(0, len(positions), rt):
                interval_index = first // rt
                touched = per_interval.setdefault(interval_index, set())
                for offset in range(first, min(first + rt, len(positions))):
                    col_row = cells[offset]
                    position = positions[offset]
                    touched.add(col_row)
                    cell_records.setdefault((interval_index, *col_row), []).append(
                        (object_id, start + offset, position.x, position.y)
                    )

        # Pass 2: disk placement.  Cells of earlier temporal intervals are
        # written first; within one interval cells follow (col, row) order, and
        # within one cell records are ordered by timestamp.
        by_time_then_object = itemgetter(1, 0)
        num_records = 0
        for key in sorted(cell_records):
            records = sorted(cell_records[key], key=by_time_then_object)
            self._cells_file.append_extent(key, records)
            num_records += len(records)

        # Pass 3: the external hash table that maps each object to its
        # trajectory's cells over time (Section 4.2), enabling constant-IO
        # location of any object's cells during any temporal interval.
        self._object_cells.build(
            (
                (
                    object_id,
                    {
                        interval_index: tuple(sorted(cells))
                        for interval_index, cells in per_interval.items()
                    },
                )
                for object_id, per_interval in object_cells.items()
            )
        )

        elapsed = time.perf_counter() - started
        self.build_report = ReachGridBuildReport(
            num_cells=len(cell_records),
            num_records=num_records,
            num_blocks=self._cells_file.num_blocks,
            build_seconds=elapsed,
            write_ios=self.storage.stats.writes,
        )
        self._built = True
        return self

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("ReachGridIndex.build() has not been called")

    # ------------------------------------------------------------------
    # access used by the query processor
    # ------------------------------------------------------------------
    def cells_of_object(self, object_id: ObjectId, temporal_index: int) -> List[Tuple[int, int]]:
        """Spatial cells containing ``object_id`` during temporal interval ``temporal_index``.

        This is the external hash lookup of Section 4.2: one bucket read per
        distinct object (repeated lookups hit the buffer pool).
        """
        self._require_built()
        per_interval = self._object_cells.get(object_id)
        if not per_interval:
            return []
        return list(per_interval.get(temporal_index, ()))

    def has_cell(self, key: CellKey) -> bool:
        """True when cell ``key`` holds at least one sample (in-memory metadata)."""
        self._require_built()
        return self._cells_file.has_extent(key)

    def read_cell(self, key: CellKey) -> Sequence[SampleRecord]:
        """Read every sample record of cell ``key`` from disk (charged IO)."""
        self._require_built()
        return self._cells_file.read_extent(key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of non-empty spatiotemporal cells."""
        self._require_built()
        return self._cells_file.num_extents

    @property
    def num_blocks(self) -> int:
        """Number of disk blocks occupied by the cells."""
        self._require_built()
        return self._cells_file.num_blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "built" if self._built else "not built"
        return (
            f"ReachGridIndex(dataset={self.dataset.name!r}, "
            f"RT={self.config.temporal_resolution}, RS={self.config.spatial_resolution}, "
            f"{status})"
        )
