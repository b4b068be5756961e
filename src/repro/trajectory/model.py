"""Trajectory data model.

A trajectory ``r_i = {(v1, t1), ..., (vn, tn)}`` is a sequence of
position-vector / time-stamp pairs (Section 4 of the paper).  This module
represents trajectories densely sampled at every time instance of the horizon
(the generators produce one sample per tick), plus segment extraction over a
time window, which is the unit ReachGrid stores in its cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..core.errors import TrajectoryError, UnknownObjectError
from ..core.types import ObjectId, Point, TimeInstant, TimeInterval

__all__ = ["TrajectorySample", "Trajectory", "TrajectorySegment", "TrajectoryDataset"]


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One position-vector/time-stamp pair ``(v, t)`` of a trajectory."""

    object_id: ObjectId
    time: TimeInstant
    position: Point

    def as_tuple(self) -> Tuple[ObjectId, TimeInstant, float, float]:
        """Compact tuple form used when packing samples into disk blocks."""
        return (self.object_id, self.time, self.position.x, self.position.y)

    @staticmethod
    def from_tuple(raw: Tuple[ObjectId, TimeInstant, float, float]) -> "TrajectorySample":
        """Inverse of :meth:`as_tuple`."""
        object_id, time, x, y = raw
        return TrajectorySample(object_id, time, Point(x, y))


@dataclass(frozen=True, slots=True)
class TrajectorySegment:
    """The samples of one object restricted to a time window ``r_i(w)``."""

    object_id: ObjectId
    window: TimeInterval
    samples: Tuple[TrajectorySample, ...]

    def __post_init__(self) -> None:
        for sample in self.samples:
            if sample.object_id != self.object_id:
                raise TrajectoryError(
                    "segment contains a sample from a different object"
                )
            if not self.window.contains(sample.time):
                raise TrajectoryError("segment contains a sample outside its window")

    def positions(self) -> List[Point]:
        """The positions of the segment, in time order."""
        return [sample.position for sample in self.samples]

    def is_empty(self) -> bool:
        """True when the segment holds no samples."""
        return not self.samples

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TrajectorySample]:
        return iter(self.samples)


class Trajectory:
    """A densely sampled trajectory of one moving object.

    The trajectory covers an inclusive time horizon starting at
    ``start_time`` with one sample per tick; sample ``i`` corresponds to time
    instance ``start_time + i``.
    """

    __slots__ = ("object_id", "start_time", "_positions")

    def __init__(
        self,
        object_id: ObjectId,
        positions: Sequence[Point],
        start_time: TimeInstant = 0,
    ) -> None:
        if not positions:
            raise TrajectoryError(f"trajectory of object {object_id} has no samples")
        if start_time < 0:
            raise TrajectoryError("trajectory start_time must be non-negative")
        self.object_id = object_id
        self.start_time = start_time
        self._positions: Tuple[Point, ...] = tuple(positions)

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def end_time(self) -> TimeInstant:
        """Time instance of the last sample."""
        return self.start_time + len(self._positions) - 1

    @property
    def horizon(self) -> TimeInterval:
        """Time interval covered by the trajectory."""
        return TimeInterval(self.start_time, self.end_time)

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def positions(self) -> Tuple[Point, ...]:
        """The stored positions, one per tick from ``start_time`` (not a copy)."""
        return self._positions

    def _offset(self, t: TimeInstant) -> int:
        """Index of tick ``t`` in the position tuple (the one bounds check)."""
        offset = t - self.start_time
        if 0 <= offset < len(self._positions):
            return offset
        raise TrajectoryError(
            f"time {t} outside trajectory horizon {self.horizon} "
            f"of object {self.object_id}"
        )

    def position_at(self, t: TimeInstant) -> Point:
        """Position of the object at time instance ``t``."""
        return self._positions[self._offset(t)]

    def sample_at(self, t: TimeInstant) -> TrajectorySample:
        """The full sample (object, time, position) at instance ``t``."""
        return TrajectorySample(self.object_id, t, self.position_at(t))

    def samples(self) -> Iterator[TrajectorySample]:
        """Iterate every sample of the trajectory in time order."""
        for offset, position in enumerate(self._positions):
            yield TrajectorySample(self.object_id, self.start_time + offset, position)

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def segment(self, window: TimeInterval) -> TrajectorySegment:
        """The segment ``r_i(window)``: samples whose timestamps fall in ``window``.

        The window may extend beyond the trajectory horizon; only the
        overlapping samples are returned (possibly none).
        """
        overlap = window.intersection(self.horizon)
        if overlap is None:
            return TrajectorySegment(self.object_id, window, ())
        samples = tuple(
            TrajectorySample(self.object_id, t, self._positions[t - self.start_time])
            for t in overlap.instants()
        )
        return TrajectorySegment(self.object_id, window, samples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trajectory(object={self.object_id}, horizon={self.horizon}, "
            f"samples={len(self._positions)})"
        )


class TrajectoryDataset:
    """A collection of trajectories over a common horizon (the dataset ``R``).

    The dataset also records the spatial extent of the environment ``E``,
    which the grid indexes need when laying out spatial cells.
    """

    def __init__(
        self,
        trajectories: Iterable[Trajectory],
        environment_size: Tuple[float, float],
        name: str = "dataset",
    ) -> None:
        self._trajectories: Dict[ObjectId, Trajectory] = {}
        for trajectory in trajectories:
            if trajectory.object_id in self._trajectories:
                raise TrajectoryError(
                    f"duplicate trajectory for object {trajectory.object_id}"
                )
            self._trajectories[trajectory.object_id] = trajectory
        if not self._trajectories:
            raise TrajectoryError("dataset must contain at least one trajectory")
        widths = {len(t) for t in self._trajectories.values()}
        starts = {t.start_time for t in self._trajectories.values()}
        if len(widths) != 1 or len(starts) != 1:
            raise TrajectoryError(
                "all trajectories in a dataset must share the same horizon"
            )
        if environment_size[0] <= 0 or environment_size[1] <= 0:
            raise TrajectoryError("environment size must be positive in both axes")
        self.environment_size = (float(environment_size[0]), float(environment_size[1]))
        self.name = name

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def object_ids(self) -> List[ObjectId]:
        """Sorted list of object ids in the dataset."""
        return sorted(self._trajectories)

    @property
    def num_objects(self) -> int:
        """Number of moving objects."""
        return len(self._trajectories)

    @property
    def horizon(self) -> TimeInterval:
        """The common time horizon ``T`` of every trajectory."""
        any_trajectory = next(iter(self._trajectories.values()))
        return any_trajectory.horizon

    @property
    def num_instants(self) -> int:
        """Number of time instances in the horizon (``|T|``)."""
        return self.horizon.length

    def trajectory(self, object_id: ObjectId) -> Trajectory:
        """The trajectory of ``object_id``."""
        try:
            return self._trajectories[object_id]
        except KeyError as exc:
            raise UnknownObjectError(object_id) from exc

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._trajectories

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

    def __len__(self) -> int:
        return len(self._trajectories)

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------
    def positions_at(self, t: TimeInstant) -> Dict[ObjectId, Point]:
        """All object positions at time instance ``t``."""
        # Every trajectory shares the horizon, so one bounds check serves all.
        offset = next(iter(self._trajectories.values()))._offset(t)
        return {
            object_id: trajectory._positions[offset]
            for object_id, trajectory in self._trajectories.items()
        }

    def segments(self, window: TimeInterval) -> List[TrajectorySegment]:
        """Segments of every trajectory restricted to ``window`` (``R(window)``)."""
        return [trajectory.segment(window) for trajectory in self._trajectories.values()]

    def restricted(self, length: int, name: str | None = None) -> "TrajectoryDataset":
        """A copy of the dataset truncated to its first ``length`` time instances.

        Used by the experiments that grow ``|T|`` (Figures 9–11): all the
        restricted datasets share the same starting instant, as in the paper.
        """
        if length <= 0 or length > self.num_instants:
            raise TrajectoryError(
                f"restricted length {length} outside (0, {self.num_instants}]"
            )
        horizon = self.horizon
        window = TimeInterval(horizon.start, horizon.start + length - 1)
        trajectories = []
        for trajectory in self._trajectories.values():
            samples = [trajectory.position_at(t) for t in window.instants()]
            trajectories.append(
                Trajectory(trajectory.object_id, samples, start_time=horizon.start)
            )
        return TrajectoryDataset(
            trajectories,
            environment_size=self.environment_size,
            name=name or f"{self.name}-first{length}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrajectoryDataset(name={self.name!r}, objects={self.num_objects}, "
            f"horizon={self.horizon}, environment={self.environment_size})"
        )
