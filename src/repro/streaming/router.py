"""Shard routers: how the event stream is partitioned across ingestors.

A :class:`ShardRouter` maps every :class:`~repro.streaming.events.SampleEvent`
to one of ``num_shards`` ingestion shards.  Routing must be *sticky per
object*: each :class:`~repro.streaming.ingest.StreamIngestor` enforces a dense
per-object horizon, so an object that hopped between shards would
tear a hole in both shards' horizons.  Both built-in routers guarantee
stickiness:

* :class:`HashRouter` — a pure function of the object id (a multiplicative
  Fibonacci hash, deterministic across runs and processes);
* :class:`SpatialCellRouter` — the paper-flavoured partitioning: the shard is
  chosen from the spatial grid cell of the object's *first observed*
  position, then pinned.  Objects that start near each other land on the same
  shard, which keeps most contact pairs intra-shard; pairs that still span
  shards are handled by the coordinator's cross-shard join.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from ..core.config import SHARD_ROUTERS
from ..core.errors import ConfigurationError
from ..reachgrid.cells import SpatialGrid
from ..core.types import ObjectId
from .events import SampleEvent

__all__ = ["ShardRouter", "HashRouter", "SpatialCellRouter", "make_router"]

#: 2^64 / golden ratio, the classic Fibonacci-hashing multiplier.
_FIB_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class ShardRouter(ABC):
    """Assigns every sample event to a shard, sticky per object."""

    name: str = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        self.num_shards = num_shards

    @abstractmethod
    def assign(self, event: SampleEvent) -> int:
        """The shard for this event (registers the object when first seen)."""

    @abstractmethod
    def shard_of(self, object_id: ObjectId) -> Optional[int]:
        """The shard an object is pinned to, or ``None`` if never routed."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashRouter(ShardRouter):
    """Routes by a deterministic hash of the object id.

    Stateless (the shard of an object is always computable), so it balances
    shards well under skewed spatial distributions but scatters spatially
    close objects — most contact pairs become cross-shard pairs.
    """

    name = "hash"

    def assign(self, event: SampleEvent) -> int:
        """The shard for ``event``, from the hash of its object id alone."""
        return self._shard(event.object_id)

    def shard_of(self, object_id: ObjectId) -> Optional[int]:
        """The shard any event for ``object_id`` would be assigned (never ``None``)."""
        return self._shard(object_id)

    def _shard(self, object_id: ObjectId) -> int:
        mixed = (object_id * _FIB_MULTIPLIER) & _MASK64
        return (mixed >> 32) % self.num_shards


class SpatialCellRouter(ShardRouter):
    """Routes by the spatial grid cell of the object's first observed position.

    The assignment is computed once per object and then pinned (objects move;
    shards must not).  Cells are striped across shards in row-major order, so
    neighbouring cells land on different shards while every shard covers a
    spread of the environment.
    """

    name = "spatial"

    def __init__(
        self,
        num_shards: int,
        environment_size: Tuple[float, float],
        spatial_resolution: float,
    ) -> None:
        super().__init__(num_shards)
        self.environment_size = environment_size
        self.spatial_resolution = spatial_resolution
        self._grid = SpatialGrid(environment_size, spatial_resolution)
        self._assignments: Dict[ObjectId, int] = {}

    def assign(self, event: SampleEvent) -> int:
        """The shard for ``event``, pinned at the object's first observed cell."""
        shard = self._assignments.get(event.object_id)
        if shard is None:
            ((column, row),) = self._grid.cells_of((event.position,))
            shard = (row * self._grid.num_columns + column) % self.num_shards
            self._assignments[event.object_id] = shard
        return shard

    def shard_of(self, object_id: ObjectId) -> Optional[int]:
        """The pinned shard of ``object_id``, or ``None`` if never observed."""
        return self._assignments.get(object_id)


def make_router(
    name: str,
    num_shards: int,
    environment_size: Tuple[float, float],
    spatial_resolution: float,
) -> ShardRouter:
    """Instantiate the shard router selected by name (see ``SHARD_ROUTERS``)."""
    if name == "hash":
        return HashRouter(num_shards)
    if name == "spatial":
        return SpatialCellRouter(num_shards, environment_size, spatial_resolution)
    raise ConfigurationError(
        f"unknown shard router {name!r}; choose one of {', '.join(SHARD_ROUTERS)}"
    )
