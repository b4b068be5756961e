"""An append-only block file: real persistence with an explicit page cache.

The on-disk layout is a log of self-describing records::

    [block_id: u64][payload_bytes: u64][pickled payload ...]

Writes only ever append — rewriting a block appends a new version and moves
the in-memory directory pointer, exactly the write pattern the interval-
ordered index placement produces (later intervals land after earlier ones).
An explicit LRU page cache holds recently read or written blocks — a written
payload, or the :class:`~repro.storage.backends.base.EncodedBlock` a log read
returned, which keeps its payload once decoded — so repeated reads of a hot
block pay neither the log read nor pickle decoding again; physical IO
accounting is unaffected (the charge is recorded before the cache is
consulted — the buffer pool one level up is the component that models
IO-free re-reads).

Durability contract: :meth:`~StorageBackend.flush` fsyncs the log and then
atomically replaces the manifest sidecar (``<path>.manifest``) holding the
directory, the block count, and the metadata channel.  Reopening reads the
manifest and then *replays* any self-describing records appended after the
manifest's tail offset, so writes that hit the log but missed the final
manifest rewrite are recovered rather than lost.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

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

__all__ = ["FileBackend"]

#: Log-record header: (block_id, payload length), little-endian u64 pairs.
_HEADER = struct.Struct("<QQ")

#: Manifest schema version (bumped on incompatible layout changes).
_MANIFEST_VERSION = 1


class FileBackend(StorageBackend):
    """Append-only block file with a manifest sidecar and an LRU page cache."""

    name: ClassVar[str] = "file"
    persistent: ClassVar[bool] = True

    def __init__(
        self,
        path: str,
        sequential_cost: int = 20,
        page_cache_blocks: int = 64,
    ) -> None:
        super().__init__(sequential_cost=sequential_cost)
        if page_cache_blocks < 0:
            raise StorageError("page_cache_blocks must be non-negative")
        self._path = os.fspath(path)
        self._cache_capacity = page_cache_blocks
        self._page_cache: "OrderedDict[int, Any]" = OrderedDict()
        #: block_id -> (log offset, payload length) of the live version.
        self._directory: Dict[int, Tuple[int, int]] = {}
        # A crash mid-reclaim can leave a committed-but-unswapped compacted
        # image (or an uncommitted stray one); settle that before the device
        # file is opened or sized.
        redo_reclaim_swap(self._path, self._manifest_path, _MANIFEST_VERSION)
        # A device with zero written blocks has an empty log, so the manifest
        # sidecar alone can mark an attachable (metadata-only) device.
        log_present = os.path.exists(self._path)
        existing = (
            log_present and os.path.getsize(self._path) > 0
        ) or os.path.exists(self._path + ".manifest")
        self._handle = open(self._path, "r+b" if existing and log_present else "w+b")
        self._tail = 0
        if existing:
            self._attach()

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def _grow(self, count: int) -> None:
        pass  # allocation is pure bookkeeping; the log grows on first write

    def _store(self, block_id: int, payload: Any) -> None:
        blob = encode_payload(payload)
        self._handle.seek(self._tail)
        self._handle.write(_HEADER.pack(block_id, len(blob)))
        self._handle.write(blob)
        self._directory[block_id] = (self._tail + _HEADER.size, len(blob))
        self._tail += _HEADER.size + len(blob)
        self._cache_put(block_id, payload)

    def _load(self, block_id: int) -> Any:
        if block_id in self._page_cache:
            self._page_cache.move_to_end(block_id)
            return self._page_cache[block_id]
        located = self._directory.get(block_id)
        if located is None:
            return None  # allocated but never written
        offset, length = located
        self._handle.seek(offset)
        block = EncodedBlock(self._handle.read(length))
        self._cache_put(block_id, block)
        return block

    def _cache_put(self, block_id: int, block: Any) -> None:
        if self._cache_capacity <= 0:
            return
        self._page_cache[block_id] = block
        self._page_cache.move_to_end(block_id)
        while len(self._page_cache) > self._cache_capacity:
            self._page_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _flush_device(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        write_manifest_sidecar(
            self._manifest_path,
            {
                "version": _MANIFEST_VERSION,
                "num_blocks": self._num_blocks,
                "directory": dict(self._directory),
                "tail": self._tail,
                "metadata": dict(self._metadata),
            },
        )

    def _close_device(self) -> None:
        self._handle.close()
        self._page_cache.clear()

    # ------------------------------------------------------------------
    # space reclamation
    # ------------------------------------------------------------------
    def _reclaim_device(self, remap: Mapping[int, int], new_num_blocks: int) -> None:
        # Copy the live record versions, in new-id order, into a compacted
        # sidecar log; superseded versions and dropped blocks are simply not
        # copied, so the log shrinks to exactly the live payload bytes.
        gc_path = self._path + ".gc"
        directory: Dict[int, Tuple[int, int]] = {}
        tail = 0
        with open(gc_path, "wb") as compacted:
            for old_id in sorted(remap):
                located = self._directory.get(old_id)
                if located is None:
                    continue  # allocated but never written: nothing to copy
                offset, length = located
                self._handle.seek(offset)
                blob = self._handle.read(length)
                new_id = remap[old_id]
                compacted.write(_HEADER.pack(new_id, length))
                compacted.write(blob)
                directory[new_id] = (tail + _HEADER.size, length)
                tail += _HEADER.size + length
            compacted.flush()
            os.fsync(compacted.fileno())
        crash_point("gc-post-copy")
        manifest = {
            "version": _MANIFEST_VERSION,
            "num_blocks": new_num_blocks,
            "directory": directory,
            "tail": tail,
            "metadata": dict(self._metadata),
        }
        crash_point("gc-pre-commit")
        # THE commit: after this manifest lands, attach redoes the swap even
        # if the process dies before the os.replace below (see
        # redo_reclaim_swap); before it, the old image stays authoritative.
        write_manifest_sidecar(self._manifest_path, dict(manifest, log="gc"))
        self._handle.close()
        os.replace(gc_path, self._path)
        self._handle = open(self._path, "r+b")
        self._directory = directory
        self._tail = tail
        self._page_cache.clear()
        write_manifest_sidecar(self._manifest_path, manifest)

    # ------------------------------------------------------------------
    # reopen
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        manifest = load_manifest_sidecar(self._manifest_path, _MANIFEST_VERSION)
        if manifest is not None:
            self._num_blocks = manifest["num_blocks"]
            self._directory = dict(manifest["directory"])
            self._tail = manifest["tail"]
            self._metadata = dict(manifest["metadata"])
        self._replay_from(self._tail)

    def _replay_from(self, offset: int) -> None:
        """Recover records appended after the last manifest rewrite."""
        end = os.path.getsize(self._path)
        while offset + _HEADER.size <= end:
            self._handle.seek(offset)
            block_id, length = _HEADER.unpack(self._handle.read(_HEADER.size))
            if offset + _HEADER.size + length > end:
                break  # torn final record: ignore past the last complete one
            self._directory[block_id] = (offset + _HEADER.size, length)
            self._num_blocks = max(self._num_blocks, block_id + 1)
            offset += _HEADER.size + length
        self._tail = offset

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        """Path of the backing log file."""
        return self._path

    @property
    def _manifest_path(self) -> str:
        return self._path + ".manifest"

    @property
    def page_cache_blocks(self) -> int:
        """Configured page-cache capacity (0 disables the cache)."""
        return self._cache_capacity
