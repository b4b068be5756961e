"""An LRU buffer pool fronting the block device.

Both ReachGrid and ReachGraph rely on buffering during query processing:
ReachGrid buffers the grid cells retrieved within a temporal interval, and
ReachGraph buffers whole partitions so that future vertices in the same
partition are served from memory.  The buffer pool implements the standard
database pattern — fixed capacity, least-recently-used eviction — and routes
misses to the underlying :class:`~repro.storage.backends.StorageBackend`,
which is where the IO accounting happens.  A frame holds the block the device
handed back — on a persistent device an
:class:`~repro.storage.backends.base.EncodedBlock` that decodes on first use —
so a run read through the pool decodes nothing until a reader asks.

Writes staged through :meth:`BufferPool.write` follow the classic write-back
discipline: the frame is marked dirty and the device write is deferred until
the frame is evicted (or the pool is flushed/cleared).  This matters for the
persistent backends — a dirty page silently dropped at eviction would read
back stale after a close/reopen cycle — and it is also the honest IO model:
a real buffer manager pays the write IO when the page leaves memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Set

from ..core.errors import BufferPoolError
from .backends.base import StorageBackend, block_payload
from .stats import IOStats

__all__ = ["BufferPool"]


class BufferPool:
    """Fixed-capacity LRU cache of device blocks with write-back.

    Parameters
    ----------
    disk:
        The block device to read from on a miss and write dirty frames back
        to on eviction.
    capacity:
        Maximum number of blocks held in memory at once.
    """

    def __init__(self, disk: StorageBackend, capacity: int = 256) -> None:
        if capacity <= 0:
            raise BufferPoolError("buffer pool capacity must be positive")
        self._disk = disk
        self._capacity = capacity
        self._frames: "OrderedDict[int, Any]" = OrderedDict()
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of resident blocks."""
        return self._capacity

    @property
    def stats(self) -> IOStats:
        """The IO counters of the underlying device."""
        return self._disk.stats

    @property
    def resident_blocks(self) -> int:
        """Number of blocks currently held in memory."""
        return len(self._frames)

    @property
    def dirty_blocks(self) -> int:
        """Number of resident blocks whose device write is still deferred."""
        return len(self._dirty)

    def contains(self, block_id: int) -> bool:
        """True when ``block_id`` is resident (does not touch recency)."""
        return block_id in self._frames

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def read(self, block_id: int) -> Any:
        """Return the payload of ``block_id``, fetching it on a miss."""
        if block_id in self._frames:
            self._frames.move_to_end(block_id)
            self.hits += 1
            self._disk.stats.record_buffer_hit(block_id)
            return block_payload(self._frames[block_id])
        payload = self._disk.read(block_id)
        self.misses += 1
        self._insert(block_id, payload)
        return payload

    def read_run(self, first_block: int, num_blocks: int) -> List[Any]:
        """Blocks of ``num_blocks`` consecutive ids from ``first_block``.

        Equivalent to :meth:`read` over the same blocks in ascending order —
        same payloads (a block is the payload or an
        :class:`~repro.storage.backends.base.EncodedBlock` decoding to it),
        IO charges, hit/miss counts, LRU order and evictions.  When no frame
        is dirty and no block of the run is resident (every block misses and
        every eviction is a plain drop — the state of any query after
        ``reset_for_query()``) that equivalence is immediate, so the whole
        run is fetched with one device call and nothing is decoded;
        otherwise the blocks are read one by one.
        """
        run = range(first_block, first_block + num_blocks)
        frames = self._frames
        if self._dirty or not frames.keys().isdisjoint(run):
            return [self.read(block_id) for block_id in run]
        blocks = self._disk.read_run(first_block, num_blocks)
        self.misses += len(blocks)
        frames.update(zip(run, blocks))
        for _ in range(len(frames) - self._capacity):
            frames.popitem(last=False)
        return blocks

    def write(self, block_id: int, payload: Any) -> None:
        """Stage a write: the frame turns dirty, the device write is deferred.

        The payload reaches the device when the frame is evicted, or when
        :meth:`flush` / :meth:`clear` / :meth:`invalidate` runs — whichever
        comes first.  Writers that must not lose data across a close/reopen
        cycle call :meth:`flush` before closing the storage system (the
        system's own ``flush``/``close`` do exactly that).
        """
        self._dirty.add(block_id)
        self._insert(block_id, payload)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _insert(self, block_id: int, payload: Any) -> None:
        self._frames[block_id] = payload
        self._frames.move_to_end(block_id)
        while len(self._frames) > self._capacity:
            evicted_id, evicted_payload = self._frames.popitem(last=False)
            self._write_back(evicted_id, evicted_payload)

    def _write_back(self, block_id: int, payload: Any) -> None:
        if block_id in self._dirty:
            self._dirty.discard(block_id)
            self._disk.write(block_id, payload)

    def flush(self) -> None:
        """Write every dirty frame back to the device (frames stay resident)."""
        for block_id in sorted(self._dirty):
            self._disk.write(block_id, self._frames[block_id])
        self._dirty.clear()

    def invalidate(self, block_id: Optional[int] = None) -> None:
        """Drop one block (or the whole pool when ``block_id`` is ``None``).

        Dirty frames are written back before being dropped — invalidation
        discards residency, never data.
        """
        if block_id is None:
            self.flush()
            self._frames.clear()
        elif block_id in self._frames:
            self._write_back(block_id, self._frames.pop(block_id))

    def clear(self) -> None:
        """Drop every resident block and zero the hit/miss counters.

        Dirty frames are written back first, as in :meth:`invalidate`.
        """
        self.flush()
        self._frames.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served from memory (0.0 when nothing was read)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(capacity={self._capacity}, resident={len(self._frames)}, "
            f"dirty={len(self._dirty)}, hits={self.hits}, misses={self.misses})"
        )
