"""Disk-resident storage substrate with pluggable block-device backends.

This subpackage stands in for the physical storage of the paper's testbed
(Table 3): a block device with a buffer pool, record-packed block files, and
external hash tables, all instrumented with random/sequential IO accounting.
The block device itself is pluggable (:mod:`repro.storage.backends`): the
default ``sim`` backend keeps blocks in memory exactly as the original
reproduction did, while the ``file`` and ``mmap`` backends place them in real
files with durable close/reopen semantics.

Typical usage::

    from repro.storage import StorageSystem

    storage = StorageSystem()
    blockfile = storage.new_blockfile("cells")
    blockfile.append_extent("cell-0", records)
    ...
    before = storage.snapshot()
    blockfile.read_extent("cell-0")
    charged = storage.charge_since(before)

Persistent usage adds a durability cycle::

    config = StorageConfig(backend="file", storage_dir="/data/run1")
    storage = StorageSystem(config, name="grid")
    ...
    storage.close()                              # fsync + durable catalog
    reopened = StorageSystem(config, name="grid")  # same files, same extents
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import StorageConfig
from ..core.errors import StorageError
from .backends import (
    BACKEND_FILE_SUFFIX,
    STORAGE_BACKENDS,
    FileBackend,
    MmapBackend,
    SimulatedBackend,
    StorageBackend,
    make_backend,
)
from .blockfile import BlockFile, Extent, ExtentRecords
from .buffer import BufferPool
from .hashtable import ExternalHashTable
from .stats import IOSnapshot, IOStats

__all__ = [
    "STORAGE_BACKENDS",
    "StorageBackend",
    "SimulatedBackend",
    "FileBackend",
    "MmapBackend",
    "make_backend",
    "BufferPool",
    "BlockFile",
    "Extent",
    "ExtentRecords",
    "ExternalHashTable",
    "IOStats",
    "IOSnapshot",
    "StorageSystem",
]

#: Metadata key under which the file/table catalog is persisted.
_CATALOG_KEY = "storage-system-catalog"


class StorageSystem:
    """Convenience bundle of one block device + one buffer pool + named files.

    Every index owns a :class:`StorageSystem`; the benchmark harness reads the
    IO counters from here after running a query.  ``name`` becomes the stem of
    the backing file when the configured backend is persistent — two systems
    sharing a ``storage_dir`` must use distinct names.  Creating a system
    whose backing file already exists *attaches* to it: blocks, block-file
    extents, and hash-table directories are restored from the durable catalog
    written by :meth:`flush`/:meth:`close`.  Write-path owners (index builds,
    stream ingestors) pass ``attach=False`` instead, which removes any
    leftover files first — a new index starts from an empty device even when
    a previous run wrote to the same directory and name.
    """

    def __init__(
        self,
        config: StorageConfig | None = None,
        name: str = "storage",
        attach: bool = True,
    ) -> None:
        self.config = config or StorageConfig()
        self.name = name
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self.disk = make_backend(self.config, path=self._device_path(attach))
        self.buffer_pool = BufferPool(self.disk, capacity=self.config.buffer_blocks)
        self._files: Dict[str, BlockFile] = {}
        self._tables: Dict[str, ExternalHashTable] = {}
        self._reclaims = 0
        self._reclaimed_blocks = 0
        catalog = self.disk.get_metadata(_CATALOG_KEY)
        if catalog is not None:
            self._restore_catalog(catalog)

    def _device_path(self, attach: bool) -> Optional[str]:
        if self.config.backend == SimulatedBackend.name:
            return None
        directory = self.config.storage_dir
        if directory is None:
            # Anonymous persistent storage: a private scratch directory that
            # is removed when this system is garbage collected (there is no
            # stable path to reopen, so keeping the files would only leak).
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-storage-")
            directory = self._tempdir.name
        else:
            os.makedirs(directory, exist_ok=True)
        suffix = BACKEND_FILE_SUFFIX[self.config.backend]
        path = os.path.join(directory, f"{self.name}{suffix}")
        if not attach:
            # Manifest first: a crash between the two removals must never
            # leave a manifest pointing into a device file that is gone (the
            # reverse order would make the next attach half-trust stale
            # directory offsets against an empty log).
            for stale in (path + ".manifest", path):
                if os.path.exists(stale):
                    os.remove(stale)
        return path

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def new_blockfile(self, name: str, records_per_block: int | None = None) -> BlockFile:
        """Create (and register) a new block file on this storage system."""
        if name in self._files:
            raise StorageError(f"block file {name!r} already exists in {self.name!r}")
        blockfile = BlockFile(
            self.disk,
            self.buffer_pool,
            records_per_block=records_per_block or self.config.block_size,
            name=name,
        )
        self._files[name] = blockfile
        return blockfile

    def new_hashtable(self, name: str) -> ExternalHashTable:
        """Create (and register) a new external hash table."""
        if name in self._tables:
            raise StorageError(f"hash table {name!r} already exists in {self.name!r}")
        table = ExternalHashTable(self.disk, self.buffer_pool, name=name)
        self._tables[name] = table
        return table

    def blockfile(self, name: str) -> BlockFile:
        """Return a previously created block file by name."""
        return self._files[name]

    def hashtable(self, name: str) -> ExternalHashTable:
        """Return a previously created hash table by name."""
        return self._tables[name]

    def blockfile_names(self) -> List[str]:
        """Names of every registered block file, in registration order."""
        return list(self._files)

    def drop_blockfile(self, name: str) -> int:
        """Unregister block file ``name``: its blocks become garbage.

        The file leaves the catalog (and therefore the durable manifest at
        the next flush); every block it occupied — live extents and its
        superseded ledger alike — turns into reclaimable garbage.  Returns
        the number of blocks that were still live in the file.
        """
        blockfile = self._files.pop(name, None)
        if blockfile is None:
            raise StorageError(f"no block file {name!r} in {self.name!r}")
        return blockfile.num_blocks

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        """True when blocks survive :meth:`close` and can be reopened."""
        return self.disk.persistent

    @property
    def path(self) -> Optional[str]:
        """Path of the backing device file (``None`` for the sim backend)."""
        return self.disk.path

    def put_metadata(self, key: str, value: Any) -> None:
        """Stash a picklable value on the device (durable after :meth:`flush`)."""
        self.disk.put_metadata(key, value)

    def get_metadata(self, key: str, default: Any = None) -> Any:
        """Return a value stashed with :meth:`put_metadata`, or ``default``."""
        return self.disk.get_metadata(key, default)

    def flush(self) -> None:
        """Write back dirty buffers, persist the catalog, fsync the device.

        A no-op beyond the buffer write-back for the sim backend.  After a
        flush, a crash loses nothing written so far; after :meth:`close`, the
        system can be reopened by constructing a new :class:`StorageSystem`
        with the same config and name.
        """
        self.buffer_pool.flush()
        self.disk.put_metadata(_CATALOG_KEY, self._build_catalog())
        self.disk.flush()

    # ------------------------------------------------------------------
    # space reclamation
    # ------------------------------------------------------------------
    @property
    def live_blocks(self) -> int:
        """Blocks referenced by a registered file extent or table bucket."""
        return sum(f.num_blocks for f in self._files.values()) + sum(
            t.num_buckets for t in self._tables.values()
        )

    @property
    def garbage_blocks(self) -> int:
        """Allocated blocks no live structure references (reclaimable)."""
        return self.disk.num_blocks - self.live_blocks

    @property
    def garbage_ratio(self) -> float:
        """Fraction of the device that is garbage (0.0 on an empty device)."""
        total = self.disk.num_blocks
        if total == 0:
            return 0.0
        return self.garbage_blocks / total

    @property
    def reclaims(self) -> int:
        """Completed :meth:`reclaim` passes that actually freed blocks."""
        return self._reclaims

    @property
    def reclaimed_blocks(self) -> int:
        """Total blocks freed by :meth:`reclaim` over this system's life."""
        return self._reclaimed_blocks

    def reclaim(self) -> int:
        """Copy live blocks forward, dropping every garbage block.  Durable.

        The device-level GC pass: collects the live block set from every
        registered file and table, builds an order-preserving dense remap,
        stages the remapped catalog, and hands the copy-forward to the
        backend — whose manifest write is the commit point (``gc-post-copy``
        / ``gc-pre-commit`` fault points sit around it), so a ``kill -9``
        anywhere reattaches to either the old image or the reclaimed one.
        Afterwards the device holds exactly the live blocks, every
        superseded ledger is zero, and the buffer pool has been invalidated
        (frames were keyed by pre-reclaim ids).  Returns the number of
        blocks freed (0 when the device had no garbage).
        """
        self.buffer_pool.flush()
        live: List[int] = []
        for blockfile in self._files.values():
            for key in blockfile.extent_keys():
                live.extend(blockfile.extent(key).block_ids)
        for table in self._tables.values():
            live.extend(table.bucket_blocks)
        live.sort()
        freed = self.disk.num_blocks - len(live)
        if freed <= 0:
            return 0
        remap = {old_id: new_id for new_id, old_id in enumerate(live)}
        for blockfile in self._files.values():
            blockfile.remap_blocks(remap)
        for table in self._tables.values():
            table.remap_blocks(remap)
        self.disk.put_metadata(_CATALOG_KEY, self._build_catalog())
        self.disk.reclaim(remap, len(live))
        self.buffer_pool.invalidate()
        self._reclaims += 1
        self._reclaimed_blocks += freed
        return freed

    def close(self) -> None:
        """Flush everything and release the device.  Idempotent."""
        if not self.disk.closed:
            self.flush()
            self.disk.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def release(self) -> None:
        """Release the device *without* flushing; backing files are kept.

        For read-only consumers (a reopened
        :class:`~repro.streaming.service.SnapshotQueryService`): they changed
        nothing worth persisting, and skipping the final manifest rewrite
        means concurrent readers of the same storage directory never race
        each other on the manifest sidecar.  Idempotent.
        """
        if not self.disk.closed:
            self.disk.discard()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def destroy(self) -> None:
        """Release the device and delete its backing files.  Idempotent.

        For storage systems nothing will ever reopen — a scratch copy of a
        device, a scratch build that failed: no final manifest
        is written (the data is being abandoned) and the device files are
        removed so a long-lived owner does not grow its storage directory
        with unreachable state.
        """
        path = self.disk.path
        self.disk.discard()
        if path is not None:
            for stale in (path + ".manifest", path):
                if os.path.exists(stale):
                    os.remove(stale)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def _build_catalog(self) -> Dict[str, Any]:
        files: List[Tuple[str, int, List[Tuple[Any, int, int, int]]]] = []
        for name, blockfile in self._files.items():
            extents = [
                (extent.key, extent.first_block, extent.num_blocks, extent.num_records)
                for extent in (blockfile.extent(key) for key in blockfile.extent_keys())
            ]
            files.append((name, blockfile.records_per_block, extents))
        tables = [
            (name, list(table.bucket_blocks)) for name, table in self._tables.items()
        ]
        return {"files": files, "tables": tables}

    def _restore_catalog(self, catalog: Dict[str, Any]) -> None:
        for name, records_per_block, extents in catalog["files"]:
            blockfile = BlockFile(
                self.disk,
                self.buffer_pool,
                records_per_block=records_per_block,
                name=name,
            )
            blockfile.adopt_extents(
                [
                    Extent(key=key, first_block=first, num_blocks=blocks, num_records=records)
                    for key, first, blocks, records in extents
                ]
            )
            self._files[name] = blockfile
        for name, bucket_blocks in catalog["tables"]:
            table = ExternalHashTable(self.disk, self.buffer_pool, name=name)
            table.adopt_buckets(bucket_blocks)
            self._tables[name] = table

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """The shared IO counters."""
        return self.disk.stats

    def snapshot(self) -> IOSnapshot:
        """Capture the current IO counters."""
        return self.disk.stats.snapshot()

    def charge_since(self, snapshot: IOSnapshot) -> IOSnapshot:
        """IO performed since ``snapshot``."""
        return self.disk.stats.delta_since(snapshot)

    def normalized_io_since(self, snapshot: IOSnapshot) -> float:
        """Normalized IO count since ``snapshot``."""
        return self.charge_since(snapshot).normalized(self.config.sequential_cost)

    def reset_for_query(self) -> None:
        """Reset per-query state: IO locality and the buffer pool contents.

        The paper's per-query numbers assume a cold buffer (cells retrieved
        during a temporal interval are discarded at its end; partitions are
        buffered only within one query), so the harness calls this before each
        measured query.
        """
        self.buffer_pool.clear()
        self.disk.stats.reset_locality()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageSystem(name={self.name!r}, backend={self.config.backend!r}, "
            f"blocks={self.disk.num_blocks}, files={list(self._files)}, "
            f"tables={list(self._tables)})"
        )
