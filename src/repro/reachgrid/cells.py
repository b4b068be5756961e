"""Spatiotemporal grid geometry for ReachGrid.

ReachGrid imposes two grids on the contact dataset (Section 4.1): a temporal
grid that partitions the horizon ``T`` into intervals of ``RT`` time instances
each, and a spatial grid of square cells of side ``RS`` that partitions the
environment within each temporal interval.  This module holds the pure
geometry: mapping times to temporal intervals, positions to spatial cells, and
rectangles to the set of cells they intersect.  No IO happens here.

The spatial half is :class:`SpatialGrid` — the one definition of the
column/row counts and of which cell a position falls in, shared by the batch
:class:`GridGeometry` and the streaming ingestor, so the layouts can never
diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

from ..core.config import ReachGridConfig
from ..core.errors import ConfigurationError
from ..core.types import Point, TimeInstant, TimeInterval
from ..trajectory.mbr import MBR

__all__ = ["CellKey", "GridGeometry", "SpatialGrid", "grid_axis_cells"]

#: A grid cell is identified by (temporal interval index, column, row).
CellKey = Tuple[int, int, int]


def grid_axis_cells(extent: float, resolution: float) -> int:
    """Number of grid cells of side ``resolution`` covering ``extent`` metres.

    Float-safe, so fractional resolutions (including values below one metre)
    produce the correct cell count.
    """
    if resolution <= 0:
        raise ConfigurationError("spatial resolution must be positive")
    return max(1, math.ceil(extent / resolution))


class SpatialGrid:
    """Square cells of side ``resolution`` laid over the environment.

    The column and row counts are computed once, here; assigning positions to
    cells afterwards costs two floor divisions and two clamps per position.
    """

    __slots__ = ("resolution", "num_columns", "num_rows")

    def __init__(self, environment_size: Tuple[float, float], resolution: float) -> None:
        if environment_size[0] <= 0 or environment_size[1] <= 0:
            raise ConfigurationError("environment dimensions must be positive")
        self.resolution = resolution
        self.num_columns = grid_axis_cells(environment_size[0], resolution)
        self.num_rows = grid_axis_cells(environment_size[1], resolution)

    def cells_of(self, positions: Iterable[Point]) -> List[Tuple[int, int]]:
        """``(column, row)`` of the cell containing each of ``positions``.

        Positions outside the environment are clamped to the border cells so
        that numerical jitter at the boundary never produces invalid keys.
        """
        resolution = self.resolution
        last_column = self.num_columns - 1
        last_row = self.num_rows - 1
        cells: List[Tuple[int, int]] = []
        for position in positions:
            column = int(position.x // resolution)
            if column < 0:
                column = 0
            elif column > last_column:
                column = last_column
            row = int(position.y // resolution)
            if row < 0:
                row = 0
            elif row > last_row:
                row = last_row
            cells.append((column, row))
        return cells


@dataclass(frozen=True, slots=True)
class GridGeometry:
    """The geometry of the ReachGrid spatiotemporal grid.

    Attributes
    ----------
    horizon:
        The full time horizon ``T`` being indexed.
    environment_size:
        Width and height of the environment ``E`` in metres.
    config:
        Temporal resolution ``RT`` (ticks per interval) and spatial resolution
        ``RS`` (metres per cell side).
    spatial:
        The spatial grid derived from the two fields above.
    """

    horizon: TimeInterval
    environment_size: Tuple[float, float]
    config: ReachGridConfig
    spatial: SpatialGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "spatial",
            SpatialGrid(self.environment_size, self.config.spatial_resolution),
        )

    # ------------------------------------------------------------------
    # temporal grid
    # ------------------------------------------------------------------
    @property
    def num_temporal_intervals(self) -> int:
        """Number of temporal grid intervals covering the horizon."""
        rt = self.config.temporal_resolution
        return -(-self.horizon.length // rt)

    def temporal_index(self, t: TimeInstant) -> int:
        """Index of the temporal interval containing tick ``t``."""
        if not self.horizon.contains(t):
            raise ConfigurationError(
                f"time {t} outside the indexed horizon {self.horizon}"
            )
        return (t - self.horizon.start) // self.config.temporal_resolution

    def temporal_interval(self, index: int) -> TimeInterval:
        """The time interval ``T_index`` of the temporal grid."""
        if index < 0 or index >= self.num_temporal_intervals:
            raise ConfigurationError(
                f"temporal interval index {index} out of range "
                f"[0, {self.num_temporal_intervals})"
            )
        rt = self.config.temporal_resolution
        start = self.horizon.start + index * rt
        end = min(start + rt - 1, self.horizon.end)
        return TimeInterval(start, end)

    def temporal_indices_overlapping(self, interval: TimeInterval) -> List[int]:
        """Indices of temporal intervals overlapping ``interval`` (clipped to T)."""
        clipped = interval.intersection(self.horizon)
        if clipped is None:
            return []
        return list(
            range(self.temporal_index(clipped.start), self.temporal_index(clipped.end) + 1)
        )

    # ------------------------------------------------------------------
    # spatial grid
    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Number of spatial grid columns."""
        return self.spatial.num_columns

    @property
    def num_rows(self) -> int:
        """Number of spatial grid rows."""
        return self.spatial.num_rows

    def spatial_cell(self, position: Point) -> Tuple[int, int]:
        """``(column, row)`` of the spatial cell containing ``position`` (clamped)."""
        return self.spatial.cells_of((position,))[0]

    def cell_key(self, t: TimeInstant, position: Point) -> CellKey:
        """Full spatiotemporal cell key for a sample at ``(t, position)``."""
        col, row = self.spatial_cell(position)
        return (self.temporal_index(t), col, row)

    def cell_bounds(self, col: int, row: int) -> MBR:
        """Spatial rectangle covered by cell ``(col, row)``."""
        rs = self.config.spatial_resolution
        return MBR(col * rs, row * rs, (col + 1) * rs, (row + 1) * rs)

    def cells_intersecting(self, rect: MBR, temporal_index: int) -> Iterator[CellKey]:
        """Cell keys of one temporal interval whose area intersects ``rect``."""
        rs = self.config.spatial_resolution
        col_lo = max(0, int(rect.min_x // rs))
        col_hi = min(self.num_columns - 1, int(rect.max_x // rs))
        row_lo = max(0, int(rect.min_y // rs))
        row_hi = min(self.num_rows - 1, int(rect.max_y // rs))
        for col in range(col_lo, col_hi + 1):
            for row in range(row_lo, row_hi + 1):
                yield (temporal_index, col, row)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def num_spatial_cells(self) -> int:
        """Spatial cells per temporal interval."""
        return self.num_columns * self.num_rows

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridGeometry(RT={self.config.temporal_resolution}, "
            f"RS={self.config.spatial_resolution}, "
            f"{self.num_temporal_intervals} x {self.num_columns}x{self.num_rows})"
        )
