"""The storage-backend contract shared by every block device implementation.

The paper's experiments measure index behaviour on a *block device*: what
matters to every layer above (buffer pool, block files, hash tables, snapshot
stores) is the block API — allocate / read / write — plus the random-vs-
sequential IO accounting the evaluation normalizes with.  This module factors
that contract out of the original in-memory ``SimulatedDisk`` so real
persistent devices (an append-only block file, a memory-mapped block array)
can slot in behind the same interface.

Concrete backends implement four primitives — :meth:`_grow`,
:meth:`_store`, :meth:`_load`, and (for persistent devices)
:meth:`_flush_device` / :meth:`_close_device` — and inherit the block
bookkeeping, bounds checks, IO accounting, and lifecycle guards from
:class:`StorageBackend`.  Blocks hold arbitrary picklable Python payloads
(one payload per block); record packing into fixed-capacity blocks happens
one level up, in :mod:`repro.storage.blockfile`.

A persistent device hands a read block back as an :class:`EncodedBlock`:
the bytes the read was charged for, captured at read time and decoded the
first time its payload is asked for.  :meth:`StorageBackend.read` returns
the payload; :meth:`StorageBackend.read_run` returns the blocks, so a
reader of a run decodes only the blocks it uses.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, List, Mapping, Optional

from ...core.errors import BlockOutOfRangeError, StorageError
from ..stats import IOStats

__all__ = [
    "EncodedBlock",
    "StorageBackend",
    "block_payload",
    "decode_payload",
    "encode_payload",
    "load_manifest_sidecar",
    "redo_reclaim_swap",
    "write_manifest_sidecar",
]


def encode_payload(payload: Any) -> bytes:
    """Serialize one block payload into the bytes a persistent device stores.

    With :func:`decode_payload`, the one boundary between Python objects and
    device bytes that every persistent backend goes through.
    """
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_payload(blob: bytes | memoryview) -> Any:
    """Rebuild the payload :func:`encode_payload` serialized into ``blob``."""
    return pickle.loads(blob)


class EncodedBlock:
    """One block's device bytes, captured when its read was charged.

    :meth:`payload` decodes them through :func:`decode_payload` on its first
    call, keeps the payload and drops the bytes.  The bytes are the block's
    own copy, so no later device write, remap, reclaim or close changes what
    it decodes to; two threads racing on the first call store equal payloads.
    A block compares equal to its payload.
    """

    __slots__ = ("_blob", "_payload")

    def __init__(self, blob: bytes) -> None:
        self._blob: Optional[bytes] = blob
        self._payload: Any = None

    def payload(self) -> Any:
        """The decoded payload (decoded on the first call)."""
        # The bytes are read first: once they are gone the payload is set.
        blob = self._blob
        if blob is None:
            return self._payload
        payload = decode_payload(blob)
        self._payload = payload
        self._blob = None
        return payload

    def __eq__(self, other: object) -> bool:
        return self.payload() == block_payload(other)

    __hash__ = None  # type: ignore[assignment]


def block_payload(block: Any) -> Any:
    """The payload of a block a read handed back (an :class:`EncodedBlock`
    is decoded; any other block already is its payload)."""
    return block.payload() if type(block) is EncodedBlock else block


def write_manifest_sidecar(path: str, manifest: Dict[str, Any]) -> None:
    """Atomically replace the manifest sidecar at ``path``.

    The durability-critical half of every persistent backend's flush, kept in
    one place so its guarantees cannot drift between backends: the pickled
    manifest is written to a temporary file, fsync'd, and moved into place
    with :func:`os.replace` — a crash leaves either the old manifest or the
    new one, never a torn mixture.
    """
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as sidecar:
        pickle.dump(manifest, sidecar, protocol=pickle.HIGHEST_PROTOCOL)
        sidecar.flush()
        os.fsync(sidecar.fileno())
    os.replace(temp_path, path)


def redo_reclaim_swap(path: str, manifest_path: str, expected_version: int) -> None:
    """Finish (or abandon) a copy-forward reclaim interrupted by a crash.

    Persistent backends commit a :meth:`StorageBackend.reclaim` by writing a
    manifest that carries ``log: "gc"`` *before* the compacted sidecar
    (``<path>.gc``) replaces the device file.  Run at attach time, before the
    device is opened, this redoes or rolls back whatever half of the swap a
    crash left behind:

    * manifest says ``gc`` and the sidecar exists — the commit happened but
      the swap did not: perform the :func:`os.replace` now.
    * manifest says ``gc`` and the sidecar is gone — the swap happened but
      the manifest rewrite did not: the manifest's directory already
      describes the (swapped-in) device file, so only the flag is cleared.
    * manifest does not say ``gc`` but a sidecar exists — an uncommitted
      copy from a reclaim that crashed before its commit point: delete it;
      the old device file is still authoritative.
    """
    gc_path = path + ".gc"
    manifest = load_manifest_sidecar(manifest_path, expected_version)
    if manifest is not None and manifest.get("log") == "gc":
        if os.path.exists(gc_path):
            os.replace(gc_path, path)
        committed = {key: value for key, value in manifest.items() if key != "log"}
        write_manifest_sidecar(manifest_path, committed)
    elif os.path.exists(gc_path):
        os.remove(gc_path)


def load_manifest_sidecar(path: str, expected_version: int) -> Optional[Dict[str, Any]]:
    """Load the manifest sidecar at ``path`` (``None`` when absent).

    Raises :class:`~repro.core.errors.StorageError` when the manifest's
    schema version does not match ``expected_version``.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as sidecar:
        manifest: Dict[str, Any] = pickle.load(sidecar)
    if manifest.get("version") != expected_version:
        raise StorageError(f"unsupported manifest version in {path!r}")
    return manifest


class StorageBackend(ABC):
    """An append-allocated array of blocks with IO accounting.

    The backend exposes three data operations: :meth:`allocate` a new block at
    the end of the device, :meth:`write` a payload into an allocated block,
    and :meth:`read` a payload back.  Reads and writes are recorded in an
    :class:`~repro.storage.stats.IOStats` instance; reads of consecutive
    block ids are counted as sequential.  Persistent backends additionally
    honour :meth:`flush` (make everything written so far durable) and
    :meth:`close` (flush, then release the device — afterwards every data
    operation raises :class:`~repro.core.errors.StorageError`).

    A small *metadata* channel (:meth:`put_metadata` / :meth:`get_metadata`)
    rides along with the device: persistent backends include it in their
    durable manifest, which is how :class:`~repro.storage.StorageSystem`
    persists its file/table catalog across a close/reopen cycle.
    """

    #: Canonical backend name, as accepted by ``StorageConfig.backend``.
    name: ClassVar[str] = "abstract"
    #: Whether blocks survive :meth:`close` and can be reopened by path.
    persistent: ClassVar[bool] = False

    def __init__(self, sequential_cost: int = 20) -> None:
        self.stats = IOStats(sequential_cost=sequential_cost)
        self._num_blocks = 0
        self._closed = False
        self._metadata: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # primitives implemented by concrete backends
    # ------------------------------------------------------------------
    @abstractmethod
    def _grow(self, count: int) -> None:
        """Extend the device by ``count`` empty blocks (already accounted)."""

    @abstractmethod
    def _store(self, block_id: int, payload: Any) -> None:
        """Place ``payload`` into allocated block ``block_id``."""

    @abstractmethod
    def _load(self, block_id: int) -> Any:
        """Return allocated block ``block_id``: its payload, or an
        :class:`EncodedBlock` of the bytes holding it (``None`` when the
        block was allocated but never written)."""

    def _load_run(self, first_block: int, num_blocks: int) -> List[Any]:
        """The blocks (as :meth:`_load` returns them) of ``num_blocks``
        consecutive allocated blocks, in order.

        Defaults to one :meth:`_load` per block, which keeps a backend's
        page cache in per-block order; a backend whose blocks are already
        Python objects overrides it with a single bulk operation.
        """
        return [
            self._load(block_id)
            for block_id in range(first_block, first_block + num_blocks)
        ]

    def _flush_device(self) -> None:
        """Make every stored payload (and the metadata) durable."""

    def _close_device(self) -> None:
        """Release device resources after the final flush."""

    # ------------------------------------------------------------------
    # lifecycle guards
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; data operations then raise."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"storage backend {self.name!r} is closed")

    def _check(self, block_id: int) -> None:
        if block_id < 0 or block_id >= self._num_blocks:
            raise BlockOutOfRangeError(block_id, self._num_blocks)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of blocks allocated so far."""
        return self._num_blocks

    def allocate(self, payload: Any = None) -> int:
        """Allocate a new block at the end of the device and return its id.

        Allocation itself is not charged as IO; the construction-cost
        experiments charge the *writes* performed through :meth:`write` (and
        through a non-``None`` initial payload, which is a write).
        """
        self._ensure_open()
        block_id = self._num_blocks
        self._grow(1)
        self._num_blocks += 1
        if payload is not None:
            self._store(block_id, payload)
            self.stats.record_write(block_id)
        return block_id

    def allocate_many(self, count: int) -> List[int]:
        """Allocate ``count`` consecutive empty blocks and return their ids."""
        self._ensure_open()
        if count < 0:
            raise StorageError("cannot allocate a negative number of blocks")
        first = self._num_blocks
        self._grow(count)
        self._num_blocks += count
        return list(range(first, first + count))

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def write(self, block_id: int, payload: Any) -> None:
        """Write ``payload`` into ``block_id`` (counted as one write IO)."""
        self._ensure_open()
        self._check(block_id)
        self._store(block_id, payload)
        self.stats.record_write(block_id)

    def read(self, block_id: int) -> Any:
        """Read the payload of ``block_id`` (counted as one read IO)."""
        self._ensure_open()
        self._check(block_id)
        self.stats.record_read(block_id)
        return block_payload(self._load(block_id))

    def read_run(self, first_block: int, num_blocks: int) -> List[Any]:
        """Read ``num_blocks`` consecutive blocks starting at ``first_block``.

        Returns the blocks in ascending order — each the payload :meth:`read`
        would return, or an :class:`EncodedBlock` that decodes to it — and
        charges the same IO as :meth:`read` over them, through one open
        check, one range check of both ends, and one
        :meth:`~repro.storage.stats.IOStats.record_read_run`.  A run reaching
        past the device raises before anything is charged.
        """
        self._ensure_open()
        if num_blocks <= 0:
            return []
        self._check(first_block)
        self._check(first_block + num_blocks - 1)
        self.stats.record_read_run(first_block, num_blocks)
        return self._load_run(first_block, num_blocks)

    def peek(self, block_id: int) -> Any:
        """Read a block without charging IO.

        Used by construction-time code that is charged separately, and by
        tests that need to inspect the layout.
        """
        self._ensure_open()
        self._check(block_id)
        return block_payload(self._load(block_id))

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Make everything written so far (payloads and metadata) durable.

        A no-op for non-persistent backends; persistent ones fsync their
        device and atomically rewrite their manifest.
        """
        self._ensure_open()
        self._flush_device()

    def close(self) -> None:
        """Flush, then release the device.  Idempotent.

        After closing, every data operation raises
        :class:`~repro.core.errors.StorageError`; persistent backends can be
        reopened from their path.
        """
        if self._closed:
            return
        self._flush_device()
        self._close_device()
        self._closed = True

    def discard(self) -> None:
        """Release the device *without* a final flush.  Idempotent.

        For abandoning a device nothing will ever reopen (a destroyed storage
        system, a simulated crash): skipping the flush
        avoids paying an fsync'd manifest write for data that is about to be
        deleted.  The caller owns removing the backing files.
        """
        if self._closed:
            return
        self._close_device()
        self._closed = True

    # ------------------------------------------------------------------
    # space reclamation
    # ------------------------------------------------------------------
    def reclaim(self, remap: Mapping[int, int], new_num_blocks: int) -> None:
        """Copy live blocks forward and shrink the device to their footprint.

        ``remap`` maps every *live* old block id to its new id; any allocated
        block missing from ``remap`` is garbage and is dropped.  The caller
        (:meth:`repro.storage.StorageSystem.reclaim`) guarantees the mapping
        is order-preserving and dense over ``range(new_num_blocks)``, and has
        already staged remapped catalog metadata through the metadata
        channel, so the commit the backend performs carries a consistent
        directory *and* catalog.

        Persistent backends commit through their manifest (with the
        ``gc-post-copy`` / ``gc-pre-commit`` fault points around the commit
        point); a crash anywhere inside leaves a device that reattaches to
        either the old image or the fully reclaimed one, never a mixture.
        """
        self._ensure_open()
        if new_num_blocks < 0 or new_num_blocks > self._num_blocks:
            raise StorageError(
                f"reclaim target of {new_num_blocks} blocks is outside the "
                f"device ({self._num_blocks} blocks)"
            )
        for old_id, new_id in remap.items():
            if not (0 <= old_id < self._num_blocks and 0 <= new_id < new_num_blocks):
                raise StorageError(
                    f"reclaim remap {old_id} -> {new_id} is out of range"
                )
        self._reclaim_device(remap, new_num_blocks)
        self._num_blocks = new_num_blocks

    def _reclaim_device(self, remap: Mapping[int, int], new_num_blocks: int) -> None:
        """Backend-specific half of :meth:`reclaim` (see its contract)."""
        raise StorageError(
            f"storage backend {self.name!r} does not support reclaim"
        )

    # ------------------------------------------------------------------
    # metadata channel
    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: Any) -> None:
        """Stash a picklable value under ``key`` (durable after :meth:`flush`)."""
        self._ensure_open()
        self._metadata[key] = value

    def get_metadata(self, key: str, default: Any = None) -> Any:
        """Return the value stashed under ``key``, or ``default``."""
        return self._metadata.get(key, default)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        """Filesystem path backing the device (``None`` for in-memory ones)."""
        return None

    def reset_stats(self) -> None:
        """Zero the IO counters (layout is preserved)."""
        self.stats.reset()

    def __len__(self) -> int:
        return self._num_blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(blocks={self._num_blocks}, "
            f"closed={self._closed}, {self.stats})"
        )
