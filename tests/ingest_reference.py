"""Oracle for ``StreamIngestor.prefix_dataset``: the in-memory position buffer.

``StreamIngestor`` once kept a second copy of every ingested sample in
memory — one dense ``List[Point]`` per object — and sliced it to materialise
the stream prefix, checkpointing the whole buffer at every flush.  The
ingestor now reads the prefix back from its grid cells (the one store of
samples); this module keeps the buffer, fed the same batches, so the suites
can check the two agree at every bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import Point, StreamingError
from repro.streaming import StreamBatch
from repro.trajectory.model import Trajectory, TrajectoryDataset

__all__ = ["ReferencePositionBuffer", "trajectories_of"]


class ReferencePositionBuffer:
    """Dense per-object position buffers over an ingested stream."""

    def __init__(self, environment_size: Tuple[float, float]) -> None:
        self.environment_size = environment_size
        self.positions: Dict[int, List[Point]] = {}
        self.starts: Dict[int, int] = {}
        self.origin: Optional[int] = None
        self.watermark: Optional[int] = None

    def ingest(self, batch: StreamBatch) -> None:
        """Buffer a batch the ingestor accepted."""
        for event in batch.samples:
            positions = self.positions.get(event.object_id)
            if positions is None:
                self.positions[event.object_id] = [event.position]
                self.starts[event.object_id] = event.time
            else:
                positions.append(event.position)
            if self.origin is None or event.time < self.origin:
                self.origin = event.time
        if self.watermark is None or batch.watermark > self.watermark:
            self.watermark = batch.watermark

    def legacy_checkpoint_positions(self) -> Dict[int, List[Tuple[float, float]]]:
        """The ``positions`` field a checkpoint used to carry."""
        return {
            obj: [(p.x, p.y) for p in positions]
            for obj, positions in self.positions.items()
        }

    def prefix_dataset(self, through: Optional[int] = None) -> TrajectoryDataset:
        """The prefix ``[origin, min(watermark, through)]``, sliced from the buffer."""
        if self.watermark is None or self.origin is None:
            raise StreamingError("cannot materialize an empty stream prefix")
        end = self.watermark if through is None else min(self.watermark, through)
        expected_length = end - self.origin + 1
        trajectories = []
        for object_id in sorted(self.positions):
            start = self.starts[object_id]
            positions = self.positions[object_id]
            if start != self.origin or len(positions) < expected_length:
                raise StreamingError(
                    f"object {object_id} does not cover the prefix "
                    f"[{self.origin}, {end}]"
                )
            trajectories.append(
                Trajectory(object_id, positions[:expected_length], start_time=start)
            )
        return TrajectoryDataset(trajectories, environment_size=self.environment_size)


def trajectories_of(dataset: TrajectoryDataset) -> Dict[int, Tuple[int, Tuple[Point, ...]]]:
    """``{object: (start, positions)}`` — what two prefix datasets must share."""
    return {
        trajectory.object_id: (trajectory.start_time, trajectory.positions)
        for trajectory in dataset
    }
