"""Record-oriented files on top of the simulated disk.

Indexes in this library store variable numbers of fixed-size *records* (for
example the position/time pairs of a grid cell, or the vertices of a
ReachGraph partition).  A :class:`BlockFile` packs records into blocks of a
configured capacity and remembers which block range each named *extent*
occupies, so that an index can later read back exactly the records of one
cell/partition while the IO accountant observes the real block access pattern
(consecutive block ids → sequential IOs).  A read hands the records back as an
:class:`ExtentRecords` sequence: the whole run is charged when it is read,
each block is decoded when one of its records is first used.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterator, List, Sequence

from ..core.errors import StorageError
from .backends.base import StorageBackend, block_payload
from .buffer import BufferPool

__all__ = ["BlockFile", "Extent", "ExtentRecords"]


@dataclass(frozen=True, slots=True)
class Extent:
    """A contiguous run of blocks holding the records of one named unit.

    Attributes
    ----------
    key:
        The index-defined identifier of the unit (cell id, partition id, ...).
    first_block / num_blocks:
        Location of the extent on the device.
    num_records:
        Total number of records stored in the extent.
    """

    key: Any
    first_block: int
    num_blocks: int
    num_records: int

    @property
    def block_ids(self) -> range:
        """The block ids covered by this extent, in order."""
        return range(self.first_block, self.first_block + self.num_blocks)


#: Stands in for each record of a block not decoded yet.
_UNDECODED = object()


class ExtentRecords(SequenceABC):
    """The records of one extent, read and charged as one run of blocks.

    Read-only.  A block is decoded once, the first time one of its records is
    used: indexing a record decodes its block and writes its records into one
    flat list, so indexing a decoded record costs one list lookup; iterating
    or slicing decodes every block and chains their records at C speed.
    ``len()`` is the directory's record count; a block holding
    another number of records than the directory places in it raises
    :class:`~repro.core.errors.StorageError` when first used, never
    mis-addressed.  A slice is a plain list; the sequence compares equal to
    the list of its records.  Safe to share between threads: decoding a
    block twice stores equal records.
    """

    __slots__ = ("_key", "_blocks", "_records", "_per_block")

    def __init__(
        self, key: Any, blocks: List[Any], records_per_block: int, num_records: int
    ) -> None:
        self._key = key
        self._blocks = blocks
        self._records: List[Any] = [_UNDECODED] * num_records
        self._per_block = records_per_block

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: Any) -> Any:
        if index.__class__ is slice:
            return list(self)[index]
        record = self._records[index]
        if record is _UNDECODED:
            self._decode((index % len(self._records)) // self._per_block)
            record = self._records[index]
        return record

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self._payloads())

    def _payloads(self) -> List[Any]:
        """Every block's records, decoded and their counts checked in one
        pass over the blocks (a block decoded earlier is not decoded again)."""
        payloads = list(map(block_payload, self._blocks))
        expected = [self._per_block] * len(payloads)
        expected[-1] = len(self._records) - self._per_block * (len(payloads) - 1)
        try:
            counts = list(map(len, payloads))
        except TypeError:  # a block that was never written
            counts = []
        if counts != expected:
            for position in range(len(payloads)):
                self._decode(position)  # raises at the first bad block
        return payloads

    def _decode(self, position: int) -> None:
        payload = block_payload(self._blocks[position])
        start = position * self._per_block
        expected = min(self._per_block, len(self._records) - start)
        if payload is None or len(payload) != expected:
            raise StorageError(
                f"block {position} of extent {self._key!r} does not hold "
                f"the {expected} records its directory places there"
            )
        self._records[start : start + expected] = payload

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, ExtentRecords)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class BlockFile:
    """A sequence of extents packed onto a :class:`SimulatedDisk`.

    Writing is append-only and happens at index-construction time through
    :meth:`append_extent`.  Reading happens at query time through
    :meth:`read_extent` (whole unit) or :meth:`iter_extent_records`
    (record-at-a-time, stopping early without paying for unread blocks).
    """

    def __init__(
        self,
        disk: StorageBackend,
        buffer_pool: BufferPool,
        records_per_block: int = 64,
        name: str = "blockfile",
    ) -> None:
        if records_per_block <= 0:
            raise StorageError("records_per_block must be positive")
        self._disk = disk
        self._buffer = buffer_pool
        self._records_per_block = records_per_block
        self._extents: Dict[Any, Extent] = {}
        self._order: List[Any] = []
        self._superseded_blocks = 0
        self.name = name

    # ------------------------------------------------------------------
    # writing (construction time)
    # ------------------------------------------------------------------
    def append_extent(self, key: Any, records: Sequence[Any]) -> Extent:
        """Pack ``records`` into new blocks at the end of the file.

        The records of one extent are stored in the given order, which is how
        ReachGrid guarantees that the position/time pairs of a cell are read
        back ordered by timestamp.
        """
        if key in self._extents:
            raise StorageError(f"extent {key!r} already exists in {self.name}")
        records = list(records)
        num_blocks = max(1, -(-len(records) // self._records_per_block))
        first_block = self._disk.num_blocks
        for i in range(num_blocks):
            chunk = records[i * self._records_per_block : (i + 1) * self._records_per_block]
            self._disk.allocate(list(chunk))
        extent = Extent(
            key=key,
            first_block=first_block,
            num_blocks=num_blocks,
            num_records=len(records),
        )
        self._extents[key] = extent
        self._order.append(key)
        return extent

    def replace_extent(self, key: Any, records: Sequence[Any]) -> Extent:
        """Supersede extent ``key`` with a fresh copy holding ``records``.

        The device is append-only, so the new blocks land at the tail and the
        directory is repointed; the old blocks stay on the device as garbage
        (counted by :attr:`superseded_blocks` — the visible baseline for
        space-reclamation work).  The extent keeps its position in the
        write-order directory, so readers iterating :meth:`extent_keys`
        observe an unchanged key sequence.
        """
        old = self._extents.pop(key, None)
        if old is None:
            raise StorageError(f"cannot replace unknown extent {key!r} in {self.name}")
        position = self._order.index(key)
        del self._order[position]
        try:
            extent = self.append_extent(key, records)
        except BaseException:
            # Restore the directory so a failed rewrite never loses the
            # still-intact old extent.
            self._extents[key] = old
            self._order.insert(position, key)
            raise
        self._order.insert(position, self._order.pop())
        self._superseded_blocks += old.num_blocks
        return extent

    def drop_extent(self, key: Any) -> int:
        """Retire extent ``key``: its blocks become on-device garbage.

        The truncation/retirement hook (checkpointed WAL prefixes, folded
        snapshot runs): the extent leaves the directory — and therefore the
        durable catalog at the next flush — and its blocks join
        :attr:`superseded_blocks`, where a later
        :meth:`~repro.storage.StorageSystem.reclaim` can recycle them.
        Returns the number of blocks retired.
        """
        extent = self._extents.pop(key, None)
        if extent is None:
            raise StorageError(f"cannot drop unknown extent {key!r} in {self.name}")
        self._order.remove(key)
        self._superseded_blocks += extent.num_blocks
        return extent.num_blocks

    def remap_blocks(self, remap: Dict[int, int]) -> None:
        """Repoint every extent after a copy-forward device reclaim.

        ``remap`` is the old-id → new-id mapping the reclaim applied.  It is
        order-preserving and dense over the live blocks, so a live extent's
        contiguous block range stays contiguous — only ``first_block`` moves.
        The superseded ledger resets to zero: the garbage it counted no
        longer exists on the device.
        """
        for key, extent in list(self._extents.items()):
            if extent.num_blocks == 0:
                continue
            self._extents[key] = Extent(
                key=extent.key,
                first_block=remap[extent.first_block],
                num_blocks=extent.num_blocks,
                num_records=extent.num_records,
            )
        self._superseded_blocks = 0

    def adopt_extents(self, extents: Sequence[Extent]) -> None:
        """Re-register extents whose blocks already live on the device.

        The reopen path of a persistent :class:`~repro.storage.StorageSystem`
        uses this to reconstruct the extent directory from the durable
        catalog; the blocks themselves were written in a previous process.
        Only valid on a freshly created (empty) file.
        """
        if self._extents:
            raise StorageError(
                f"cannot adopt extents into non-empty block file {self.name!r}"
            )
        for extent in extents:
            if extent.first_block + extent.num_blocks > self._disk.num_blocks:
                raise StorageError(
                    f"extent {extent.key!r} of {self.name!r} lies beyond the "
                    f"device ({self._disk.num_blocks} blocks)"
                )
            self._extents[extent.key] = extent
            self._order.append(extent.key)

    # ------------------------------------------------------------------
    # reading (query time)
    # ------------------------------------------------------------------
    def extent(self, key: Any) -> Extent:
        """Return the extent descriptor for ``key``."""
        try:
            return self._extents[key]
        except KeyError as exc:
            raise StorageError(f"unknown extent {key!r} in {self.name}") from exc

    def has_extent(self, key: Any) -> bool:
        """True when an extent named ``key`` exists."""
        return key in self._extents

    def read_extent(self, key: Any) -> ExtentRecords:
        """Read every record of extent ``key`` (charges IO for all its blocks).

        The charge is made here, once; the returned sequence decodes a block
        when one of its records is first used (see :class:`ExtentRecords`).
        """
        extent = self.extent(key)
        blocks = self._buffer.read_run(extent.first_block, extent.num_blocks)
        return ExtentRecords(key, blocks, self._records_per_block, extent.num_records)

    def iter_extent_records(self, key: Any) -> Iterator[Any]:
        """Yield the records of extent ``key`` block by block.

        Stopping the iteration early (for example as soon as a contact path is
        found) avoids reading the remaining blocks of the extent, which is the
        early-termination behaviour the paper relies on.
        """
        extent = self.extent(key)
        for block_id in extent.block_ids:
            for record in self._buffer.read(block_id):
                yield record

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def records_per_block(self) -> int:
        """Configured record capacity of one block."""
        return self._records_per_block

    @property
    def num_extents(self) -> int:
        """Number of extents written so far."""
        return len(self._extents)

    @property
    def num_blocks(self) -> int:
        """Total number of blocks occupied by this file."""
        return sum(extent.num_blocks for extent in self._extents.values())

    @property
    def superseded_blocks(self) -> int:
        """Blocks orphaned by :meth:`replace_extent` (on-device garbage)."""
        return self._superseded_blocks

    def extent_keys(self) -> List[Any]:
        """The extent keys in the order they were written (disk order)."""
        return list(self._order)

    def __contains__(self, key: Any) -> bool:
        return key in self._extents

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockFile(name={self.name!r}, extents={len(self._extents)}, "
            f"blocks={self.num_blocks})"
        )
