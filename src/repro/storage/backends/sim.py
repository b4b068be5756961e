"""The in-memory simulated block device (the default backend).

The reproduction's original device: an in-memory array of Python payloads
with the full IO accounting, standing in for the paper's 5-disk Windows
server (Table 3).  The number of (normalized) IOs a query incurs is a
property of the index layout and the access pattern, not of a particular
physical disk, so this backend remains the right default for regenerating
the paper's figures; the persistent backends exist to run the same
workloads against a real on-disk layout.
"""

from __future__ import annotations

from typing import Any, ClassVar, List, Mapping

from .base import StorageBackend

__all__ = ["SimulatedBackend"]


class SimulatedBackend(StorageBackend):
    """Blocks held in a plain Python list; nothing survives :meth:`close`."""

    name: ClassVar[str] = "sim"
    persistent: ClassVar[bool] = False

    def __init__(self, sequential_cost: int = 20) -> None:
        super().__init__(sequential_cost=sequential_cost)
        self._blocks: List[Any] = []

    def _grow(self, count: int) -> None:
        self._blocks.extend([None] * count)

    def _store(self, block_id: int, payload: Any) -> None:
        self._blocks[block_id] = payload

    def _load(self, block_id: int) -> Any:
        return self._blocks[block_id]

    def _load_run(self, first_block: int, num_blocks: int) -> List[Any]:
        return self._blocks[first_block : first_block + num_blocks]

    def _reclaim_device(self, remap: Mapping[int, int], new_num_blocks: int) -> None:
        compacted: List[Any] = [None] * new_num_blocks
        for old_id, new_id in remap.items():
            compacted[new_id] = self._blocks[old_id]
        self._blocks = compacted
