"""IO accounting for the simulated storage substrate.

The paper measures query-processing cost in *normalized* IOs: sequential block
accesses are converted to random-access equivalents assuming one random access
costs as much as 20 sequential accesses (Section 6, citing Corral et al.).
:class:`IOStats` implements exactly that accounting and is shared by the
simulated disk, the buffer pool, and every index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["IOStats", "IOSnapshot"]


@dataclass(frozen=True, slots=True)
class IOSnapshot:
    """An immutable snapshot of IO counters, used to charge deltas to queries."""

    random_reads: int
    sequential_reads: int
    writes: int
    buffer_hits: int

    def normalized(self, sequential_cost: int = 20) -> float:
        """Normalized IO count: ``random + sequential / sequential_cost``."""
        return self.random_reads + self.sequential_reads / sequential_cost

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            random_reads=self.random_reads - other.random_reads,
            sequential_reads=self.sequential_reads - other.sequential_reads,
            writes=self.writes - other.writes,
            buffer_hits=self.buffer_hits - other.buffer_hits,
        )


@dataclass(slots=True)
class IOStats:
    """Mutable IO counters with random/sequential classification.

    A read is classified *sequential* when the accessed block immediately
    follows the previously accessed block on the same device, and *random*
    otherwise.  Buffer-pool hits are counted separately and cost nothing.
    """

    sequential_cost: int = 20
    random_reads: int = 0
    sequential_reads: int = 0
    writes: int = 0
    buffer_hits: int = 0
    _last_block: Optional[int] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_read(self, block_id: int) -> None:
        """Record a physical read of ``block_id`` (miss in the buffer pool)."""
        if self._last_block is not None and block_id == self._last_block + 1:
            self.sequential_reads += 1
        else:
            self.random_reads += 1
        self._last_block = block_id

    def record_read_run(self, first_block: int, num_blocks: int) -> None:
        """Record physical reads of ``num_blocks`` (>= 1) consecutive blocks.

        Charges exactly what :meth:`record_read` charges over the same blocks
        in ascending order: the first is classified against the previously
        accessed block, every later one follows its predecessor.
        """
        if self._last_block is not None and first_block == self._last_block + 1:
            self.sequential_reads += num_blocks
        else:
            self.random_reads += 1
            self.sequential_reads += num_blocks - 1
        self._last_block = first_block + num_blocks - 1

    def record_write(self, block_id: int) -> None:
        """Record a physical write of ``block_id``."""
        self.writes += 1
        self._last_block = block_id

    def record_buffer_hit(self, block_id: int) -> None:
        """Record a buffer-pool hit (no physical IO)."""
        self.buffer_hits += 1

    def reset_locality(self) -> None:
        """Forget the last accessed block (e.g. when the disk arm is reset)."""
        self._last_block = None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        """Number of physical block reads (random + sequential)."""
        return self.random_reads + self.sequential_reads

    def normalized(self) -> float:
        """Normalized IO count for all reads so far."""
        return self.random_reads + self.sequential_reads / self.sequential_cost

    def snapshot(self) -> IOSnapshot:
        """Capture the current counters as an immutable snapshot."""
        return IOSnapshot(
            random_reads=self.random_reads,
            sequential_reads=self.sequential_reads,
            writes=self.writes,
            buffer_hits=self.buffer_hits,
        )

    def delta_since(self, snapshot: IOSnapshot) -> IOSnapshot:
        """IO performed since ``snapshot`` was taken."""
        return self.snapshot() - snapshot

    def reset(self) -> None:
        """Zero every counter and forget locality state."""
        self.random_reads = 0
        self.sequential_reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self._last_block = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(random={self.random_reads}, sequential={self.sequential_reads}, "
            f"writes={self.writes}, hits={self.buffer_hits}, "
            f"normalized={self.normalized():.2f})"
        )
