"""A memory-mapped block array: fixed-size slots, OS-paged persistence.

Where :class:`~repro.storage.backends.file.FileBackend` models the
log-structured end of the design space (append-only, explicit page cache),
this backend models the update-in-place end: the device is one contiguous
array of fixed-size slots behind ``mmap``, so a block write lands directly in
the mapped page and rereads are served by the OS page cache.  Layout::

    [magic "RPMM"][version: u32][slot_bytes: u64]         file header
    [flag: u8][payload_bytes: u32][pickled payload ...]   one slot per block

Payloads that pickle beyond the slot capacity spill into an overflow table
(flag 2) carried by the manifest sidecar, so arbitrary payloads stay correct
while the common case — record-packed index blocks sized to a few KiB — stays
on the fast mapped path.  :meth:`~StorageBackend.flush` flushes the mapping
and atomically replaces the manifest (``<path>.manifest``) holding the block
count, the metadata channel, and the overflow table.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Any, ClassVar, Dict, Mapping, Optional

from ...core.errors import StorageError
from ...testing.faults import crash_point
from .base import (
    EncodedBlock,
    StorageBackend,
    encode_payload,
    load_manifest_sidecar,
    redo_reclaim_swap,
    write_manifest_sidecar,
)

__all__ = ["MmapBackend"]

_MAGIC = b"RPMM"
_FILE_HEADER = struct.Struct("<4sIQ")  # magic, version, slot_bytes
_SLOT_HEADER = struct.Struct("<BI")  # flag, payload length
_MANIFEST_VERSION = 1

_FLAG_EMPTY = 0
_FLAG_INLINE = 1
_FLAG_OVERFLOW = 2


class MmapBackend(StorageBackend):
    """Blocks in fixed-size slots of a memory-mapped file."""

    name: ClassVar[str] = "mmap"
    persistent: ClassVar[bool] = True

    def __init__(
        self,
        path: str,
        sequential_cost: int = 20,
        slot_bytes: int = 4096,
        initial_slots: int = 64,
    ) -> None:
        super().__init__(sequential_cost=sequential_cost)
        if slot_bytes <= _SLOT_HEADER.size:
            raise StorageError(
                f"slot_bytes must exceed the {_SLOT_HEADER.size}-byte slot header"
            )
        if initial_slots <= 0:
            raise StorageError("initial_slots must be positive")
        self._path = os.fspath(path)
        self._overflow: Dict[int, bytes] = {}
        # Settle any half-swapped reclaim image before the file is opened,
        # sized, or mapped (see redo_reclaim_swap).
        redo_reclaim_swap(self._path, self._manifest_path, _MANIFEST_VERSION)
        existing = os.path.exists(self._path) and os.path.getsize(self._path) > 0
        self._file = open(self._path, "r+b" if existing else "w+b")
        if existing:
            self._slot_bytes = self._read_header()
        else:
            self._slot_bytes = slot_bytes
            self._file.write(_FILE_HEADER.pack(_MAGIC, _MANIFEST_VERSION, slot_bytes))
            self._file.flush()
            os.ftruncate(
                self._file.fileno(),
                _FILE_HEADER.size + initial_slots * self._slot_bytes,
            )
        self._capacity = (
            os.path.getsize(self._path) - _FILE_HEADER.size
        ) // self._slot_bytes
        self._map = mmap.mmap(self._file.fileno(), 0)
        if existing:
            self._attach()

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def _slot_offset(self, block_id: int) -> int:
        return _FILE_HEADER.size + block_id * self._slot_bytes

    def _grow(self, count: int) -> None:
        needed = self._num_blocks + count
        if needed <= self._capacity:
            return
        capacity = max(self._capacity, 1)
        while capacity < needed:
            capacity *= 2
        self._map.flush()
        self._map.close()
        os.ftruncate(
            self._file.fileno(), _FILE_HEADER.size + capacity * self._slot_bytes
        )
        self._capacity = capacity
        self._map = mmap.mmap(self._file.fileno(), 0)

    def _store(self, block_id: int, payload: Any) -> None:
        blob = encode_payload(payload)
        offset = self._slot_offset(block_id)
        if len(blob) <= self._slot_bytes - _SLOT_HEADER.size:
            self._overflow.pop(block_id, None)
            self._map[offset : offset + _SLOT_HEADER.size] = _SLOT_HEADER.pack(
                _FLAG_INLINE, len(blob)
            )
            start = offset + _SLOT_HEADER.size
            self._map[start : start + len(blob)] = blob
        else:
            self._map[offset : offset + _SLOT_HEADER.size] = _SLOT_HEADER.pack(
                _FLAG_OVERFLOW, 0
            )
            self._overflow[block_id] = blob

    def _load(self, block_id: int) -> Any:
        offset = self._slot_offset(block_id)
        flag, length = _SLOT_HEADER.unpack_from(self._map, offset)
        if flag == _FLAG_EMPTY:
            return None  # allocated but never written
        if flag == _FLAG_OVERFLOW:
            blob = self._overflow.get(block_id)
            if blob is None:
                # The slot says "spilled" but the overflow table (persisted
                # only by flush()) does not have it: the device was reopened
                # without its manifest.  Fail loudly instead of KeyError.
                raise StorageError(
                    f"block {block_id} of {self._path!r} spilled past the "
                    "slot capacity and its overflow payload was lost — the "
                    "device was not flushed before reopening"
                )
            return EncodedBlock(blob)
        start = offset + _SLOT_HEADER.size
        # A copy of the slot, not a view: the block must decode the same after
        # an in-place write, a remap by _grow or reclaim, or close.
        return EncodedBlock(self._map[start : start + length])

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _flush_device(self) -> None:
        self._map.flush()
        write_manifest_sidecar(
            self._manifest_path,
            {
                "version": _MANIFEST_VERSION,
                "num_blocks": self._num_blocks,
                "metadata": dict(self._metadata),
                "overflow": dict(self._overflow),
            },
        )

    def _close_device(self) -> None:
        self._map.close()
        self._file.close()

    # ------------------------------------------------------------------
    # space reclamation
    # ------------------------------------------------------------------
    def _reclaim_device(self, remap: Mapping[int, int], new_num_blocks: int) -> None:
        # Build a compacted slot array sized to exactly the live blocks: this
        # is where the mmap file actually shrinks (``_grow`` only ever
        # doubles), recycling every slot a superseded block occupied.
        gc_path = self._path + ".gc"
        capacity = max(1, new_num_blocks)
        overflow: Dict[int, bytes] = {}
        with open(gc_path, "wb") as compacted:
            compacted.write(
                _FILE_HEADER.pack(_MAGIC, _MANIFEST_VERSION, self._slot_bytes)
            )
            compacted.truncate(_FILE_HEADER.size + capacity * self._slot_bytes)
            for old_id in sorted(remap):
                offset = self._slot_offset(old_id)
                header = self._map[offset : offset + _SLOT_HEADER.size]
                flag, length = _SLOT_HEADER.unpack(header)
                if flag == _FLAG_EMPTY:
                    continue  # allocated but never written: stays empty
                new_id = remap[old_id]
                compacted.seek(_FILE_HEADER.size + new_id * self._slot_bytes)
                if flag == _FLAG_OVERFLOW:
                    blob = self._overflow.get(old_id)
                    if blob is None:
                        raise StorageError(
                            f"block {old_id} of {self._path!r} spilled past "
                            "the slot capacity and its overflow payload was "
                            "lost — cannot reclaim an unflushed device"
                        )
                    compacted.write(header)
                    overflow[new_id] = blob
                else:
                    compacted.write(
                        self._map[offset : offset + _SLOT_HEADER.size + length]
                    )
            compacted.flush()
            os.fsync(compacted.fileno())
        crash_point("gc-post-copy")
        manifest = {
            "version": _MANIFEST_VERSION,
            "num_blocks": new_num_blocks,
            "metadata": dict(self._metadata),
            "overflow": overflow,
        }
        crash_point("gc-pre-commit")
        # THE commit (see FileBackend._reclaim_device): the gc-flagged
        # manifest makes attach finish the swap if the process dies here.
        write_manifest_sidecar(self._manifest_path, dict(manifest, log="gc"))
        self._map.close()
        self._file.close()
        os.replace(gc_path, self._path)
        self._file = open(self._path, "r+b")
        self._capacity = capacity
        self._map = mmap.mmap(self._file.fileno(), 0)
        self._overflow = overflow
        write_manifest_sidecar(self._manifest_path, manifest)

    # ------------------------------------------------------------------
    # reopen
    # ------------------------------------------------------------------
    def _read_header(self) -> int:
        self._file.seek(0)
        magic, version, slot_bytes = _FILE_HEADER.unpack(
            self._file.read(_FILE_HEADER.size)
        )
        if magic != _MAGIC:
            raise StorageError(f"{self._path!r} is not an mmap block array")
        if version != _MANIFEST_VERSION:
            raise StorageError(f"unsupported mmap layout version in {self._path!r}")
        return int(slot_bytes)

    def _attach(self) -> None:
        manifest = load_manifest_sidecar(self._manifest_path, _MANIFEST_VERSION)
        if manifest is not None:
            self._num_blocks = manifest["num_blocks"]
            self._metadata = dict(manifest["metadata"])
            self._overflow = dict(manifest["overflow"])
        else:
            # Best-effort recovery without a manifest: every written slot is
            # self-describing, so the block count is the highest flagged slot
            # (trailing allocated-but-unwritten blocks cannot be recovered).
            for slot in range(self._capacity - 1, -1, -1):
                offset = self._slot_offset(slot)
                if self._map[offset] != _FLAG_EMPTY:
                    self._num_blocks = slot + 1
                    break

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        """Path of the backing mapped file."""
        return self._path

    @property
    def _manifest_path(self) -> str:
        return self._path + ".manifest"

    @property
    def slot_bytes(self) -> int:
        """Fixed byte capacity of one slot (including its 5-byte header)."""
        return self._slot_bytes

    @property
    def num_overflow_blocks(self) -> int:
        """Blocks whose payloads spilled past the slot capacity."""
        return len(self._overflow)
