"""External (disk-resident) hash tables.

Both indexes rely on external hash tables for constant-IO lookups:

* ReachGrid uses a hash table that maps an object id to the grid cell holding
  its trajectory segment at a given time (Section 4.2: "this can be executed
  in constant number of IOs assuming that an external hash table maps each
  object to its trajectory over time").
* ReachGraph stores one hash table ``Ht`` per time instance that maps an
  object to the partition (and vertex) containing ``o(t)`` (Section 5.1.3).

The table is bucketed onto disk blocks; a lookup reads exactly one block (the
bucket), which is what makes it "constant number of IOs".
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Tuple

from ..core.errors import StorageError
from .backends.base import StorageBackend
from .buffer import BufferPool

__all__ = ["ExternalHashTable"]


class ExternalHashTable:
    """A static external hash table built once and probed at query time.

    The table must be built with :meth:`build` before lookups.  Keys hash with
    Python's built-in ``hash``; each bucket occupies exactly one disk block.
    """

    def __init__(
        self,
        disk: StorageBackend,
        buffer_pool: BufferPool,
        name: str = "hashtable",
    ) -> None:
        self._disk = disk
        self._buffer = buffer_pool
        self._num_buckets = 0
        self._bucket_blocks: List[int] = []
        self._built = False
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(
        self,
        entries: Iterable[Tuple[Hashable, Any]],
        entries_per_bucket: int = 32,
    ) -> None:
        """Build the table from ``(key, value)`` pairs.

        ``entries_per_bucket`` controls the target load: the bucket count is
        chosen so the average bucket holds roughly that many entries.
        """
        if self._built:
            raise StorageError(f"hash table {self.name!r} already built")
        pairs = list(entries)
        if entries_per_bucket <= 0:
            raise StorageError("entries_per_bucket must be positive")
        self._num_buckets = max(1, -(-len(pairs) // entries_per_bucket))
        buckets: List[Dict[Hashable, Any]] = [dict() for _ in range(self._num_buckets)]
        for key, value in pairs:
            buckets[hash(key) % self._num_buckets][key] = value
        self._bucket_blocks = [self._disk.allocate(bucket) for bucket in buckets]
        self._built = True

    def adopt_buckets(self, bucket_blocks: List[int]) -> None:
        """Re-register bucket blocks that already live on the device.

        Reopen-path counterpart of :meth:`build` (see
        :meth:`~repro.storage.blockfile.BlockFile.adopt_extents`): the bucket
        payloads were written in a previous process; this restores the block
        directory so :meth:`get` hashes into them again.
        """
        if self._built:
            raise StorageError(f"hash table {self.name!r} already built")
        if not bucket_blocks:
            # A built table always has at least one bucket (see build), so an
            # empty list means the original was never built: stay unbuilt and
            # keep raising the not-built error instead of dividing by zero.
            return
        for block_id in bucket_blocks:
            if block_id < 0 or block_id >= self._disk.num_blocks:
                raise StorageError(
                    f"bucket block {block_id} of {self.name!r} lies beyond "
                    f"the device ({self._disk.num_blocks} blocks)"
                )
        self._bucket_blocks = list(bucket_blocks)
        self._num_buckets = len(self._bucket_blocks)
        self._built = True

    def remap_blocks(self, remap: Dict[int, int]) -> None:
        """Repoint every bucket after a copy-forward device reclaim.

        ``remap`` is the old-id → new-id mapping the reclaim applied; bucket
        payloads are untouched, only their block ids move.
        """
        self._bucket_blocks = [remap[block_id] for block_id in self._bucket_blocks]

    def update(self, key: Hashable, value: Any) -> None:
        """Overwrite (or insert) one entry in place (one bucket read + write).

        The incremental-maintenance hook: the ReachGraph object index patches
        an object's assignment history when a merge appends vertices, instead
        of rebuilding the whole table.  The write goes through the buffer
        pool's write-back path, so the device write is deferred until the
        frame is evicted or flushed — the same discipline every other staged
        write follows.
        """
        if not self._built:
            raise StorageError(f"hash table {self.name!r} has not been built")
        block_id = self._bucket_blocks[hash(key) % self._num_buckets]
        bucket: Dict[Hashable, Any] = dict(self._buffer.read(block_id))
        bucket[key] = value
        self._buffer.write(block_id, bucket)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value stored for ``key`` (one block read), or ``default``."""
        if not self._built:
            raise StorageError(f"hash table {self.name!r} has not been built")
        block_id = self._bucket_blocks[hash(key) % self._num_buckets]
        bucket: Dict[Hashable, Any] = self._buffer.read(block_id)
        return bucket.get(key, default)

    def lookup(self, key: Hashable) -> Any:
        """Like :meth:`get` but raises :class:`StorageError` on a missing key."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise StorageError(f"key {key!r} not found in hash table {self.name!r}")
        return value

    def __contains__(self, key: Hashable) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Every ``(key, value)`` entry, one block read per bucket.

        What a scan of the whole table costs: each bucket once, in hash
        order, where probing every key would read a bucket per key.
        """
        if not self._built:
            raise StorageError(f"hash table {self.name!r} has not been built")
        return [
            entry
            for block_id in self._bucket_blocks
            for entry in self._buffer.read(block_id).items()
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """Number of bucket blocks."""
        return self._num_buckets

    @property
    def bucket_blocks(self) -> List[int]:
        """Device block ids of the buckets, in hash order."""
        return list(self._bucket_blocks)

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._built

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExternalHashTable(name={self.name!r}, buckets={self._num_buckets})"
