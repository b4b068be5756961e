"""Configuration objects for datasets, storage, and index construction.

All tunables from the paper's experimental section are represented here so
that the benchmark harness can sweep them exactly as the paper does:

* ReachGrid: temporal resolution ``RT`` (ticks per temporal cell) and spatial
  resolution ``RS`` (metres per spatial cell) — Figure 8.
* ReachGraph: partition depth ``dp`` and the set of long-edge resolutions —
  Figure 12 and Table 4.
* Storage: block size, buffer pool capacity, and the sequential/random IO
  normalization factor (20 sequential = 1 random).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "StorageConfig",
    "ReachGridConfig",
    "ReachGraphConfig",
    "GrailConfig",
    "ContactConfig",
    "StreamingConfig",
    "STORAGE_BACKENDS",
    "DEFAULT_RESOLUTIONS",
]

#: Long-edge resolutions used by the paper's optimal ReachGraph (Section
#: 6.2.1.4): HN = DN1 ∪ DN2 ∪ ... ∪ DN32.
DEFAULT_RESOLUTIONS: Tuple[int, ...] = (2, 4, 8, 16, 32)

#: Block-device backends understood by :class:`StorageConfig` (implemented in
#: :mod:`repro.storage.backends`): ``sim`` is the in-memory simulated disk the
#: paper's figures run on, ``file`` an append-only block file with an explicit
#: page cache and fsync'd flush, ``mmap`` a memory-mapped block array.
STORAGE_BACKENDS: Tuple[str, ...] = ("sim", "file", "mmap")


@dataclass(frozen=True, slots=True)
class StorageConfig:
    """Parameters of the simulated disk and buffer pool.

    Attributes
    ----------
    block_size:
        Capacity of a disk block in *record slots* (the paper's 4 KiB page
        expressed in fixed-size records; see :mod:`repro.storage.blockfile`).
        The default of 16 keeps the blocks-per-dataset ratio of the scaled
        datasets comparable to the paper's multi-hundred-GB testbed, so the
        random/sequential IO trade-offs keep their shape.
    buffer_blocks:
        Number of blocks the LRU buffer pool can hold.
    sequential_cost:
        How many sequential accesses cost as much as one random access.  The
        paper normalizes with a factor of 20 (citing Corral et al.).
    backend:
        One of :data:`STORAGE_BACKENDS` — which block device implementation
        a :class:`~repro.storage.StorageSystem` places its blocks on.
    storage_dir:
        Directory holding the backing files of persistent backends.  ``None``
        (the default) uses a private temporary directory that is removed when
        the storage system is garbage collected — set a real directory to get
        close/reopen persistence.
    page_cache_blocks:
        Capacity of the ``file`` backend's explicit page cache, in blocks
        (``0`` disables it).  Distinct from ``buffer_blocks``: the buffer
        pool models IO-free re-reads, the page cache merely skips repeated
        payload decoding for blocks that are physically read again.
    mmap_slot_bytes:
        Fixed slot size of the ``mmap`` backend; payloads pickling past it
        spill into the backend's overflow table.
    """

    block_size: int = 16
    buffer_blocks: int = 256
    sequential_cost: int = 20
    backend: str = "sim"
    storage_dir: str | None = None
    page_cache_blocks: int = 64
    mmap_slot_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.buffer_blocks <= 0:
            raise ConfigurationError("buffer_blocks must be positive")
        if self.sequential_cost <= 0:
            raise ConfigurationError("sequential_cost must be positive")
        if self.backend not in STORAGE_BACKENDS:
            raise ConfigurationError(
                f"unknown storage backend {self.backend!r}; "
                f"choose one of {', '.join(STORAGE_BACKENDS)}"
            )
        if self.page_cache_blocks < 0:
            raise ConfigurationError("page_cache_blocks must be non-negative")
        if self.mmap_slot_bytes <= 8:
            raise ConfigurationError("mmap_slot_bytes must exceed the slot header")

    def with_backend(
        self, backend: str, storage_dir: str | None = None
    ) -> "StorageConfig":
        """Copy of this config on a different backend (and optional directory)."""
        if storage_dir is None:
            return replace(self, backend=backend)
        return replace(self, backend=backend, storage_dir=storage_dir)


@dataclass(frozen=True, slots=True)
class ContactConfig:
    """Parameters of contact extraction (the window trajectory join).

    ``distance_threshold`` is the paper's ``dT``: 25 m for Bluetooth-style
    individual contacts (RWP datasets), 300 m for DSRC vehicle contacts (VN
    datasets).
    """

    distance_threshold: float = 25.0

    def __post_init__(self) -> None:
        if self.distance_threshold <= 0:
            raise ConfigurationError("distance_threshold must be positive")


@dataclass(frozen=True, slots=True)
class ReachGridConfig:
    """ReachGrid construction parameters.

    Attributes
    ----------
    temporal_resolution:
        Number of time instances per temporal grid interval (the paper's
        optimal ``RT`` is 20 for both dataset families).
    spatial_resolution:
        Side length of a spatial grid cell in metres (the paper's optimal
        ``RS`` is 1024 m for RWP and 17 km for VN).
    """

    temporal_resolution: int = 20
    spatial_resolution: float = 1024.0

    def __post_init__(self) -> None:
        if self.temporal_resolution <= 0:
            raise ConfigurationError("temporal_resolution must be positive")
        if self.spatial_resolution <= 0:
            raise ConfigurationError("spatial_resolution must be positive")


@dataclass(frozen=True, slots=True)
class ReachGraphConfig:
    """ReachGraph construction parameters.

    Attributes
    ----------
    resolutions:
        Long-edge resolutions for the augmentation phase.  ``()`` builds a
        single-resolution graph (DN1 only), which is what the B-BFS baseline
        traverses.
    partition_depth:
        The disk-placement partition depth ``dp`` (paper optimum: 32).
    interval_labels:
        Maintain GRAIL-style min-postorder interval labels over the reduced
        DAG (see :mod:`repro.reachgraph.labels`).  Labels give queries O(1)
        negative rejection and frontier pruning; disabling them falls back
        to pure traversal.
    """

    resolutions: Tuple[int, ...] = DEFAULT_RESOLUTIONS
    partition_depth: int = 32
    interval_labels: bool = True
    #: Unused and not settable: labels are always computed in full.  Kept
    #: readable for callers that still pass it to ``ReachLabelIndex.build``.
    label_dirty_ratio: ClassVar[float] = 0.25

    def __post_init__(self) -> None:
        if self.partition_depth <= 0:
            raise ConfigurationError("partition_depth must be positive")
        seen = set()
        for resolution in self.resolutions:
            if resolution <= 1:
                raise ConfigurationError(
                    f"long-edge resolution must exceed 1, got {resolution}"
                )
            if resolution in seen:
                raise ConfigurationError(
                    f"duplicate long-edge resolution: {resolution}"
                )
            seen.add(resolution)

    @property
    def sorted_resolutions(self) -> Tuple[int, ...]:
        """Resolutions sorted ascending (DN2 before DN32)."""
        return tuple(sorted(self.resolutions))

    def with_resolutions(self, resolutions: Sequence[int]) -> "ReachGraphConfig":
        """Copy of this config with a different resolution set."""
        return replace(self, resolutions=tuple(resolutions))

    def with_partition_depth(self, depth: int) -> "ReachGraphConfig":
        """Copy of this config with a different partition depth."""
        return replace(self, partition_depth=depth)



@dataclass(frozen=True, slots=True)
class StreamingConfig:
    """Parameters of the streaming ingestion subsystem.

    Streaming ingestion stages new contacts in an in-memory delta overlay
    consulted at query time alongside the frozen snapshot indexes; once the
    delta holds ``max_delta_contacts`` contacts it is folded into a fresh
    snapshot, and every merge builds (first merge) or patches (every later
    one) the ReachGraph index over it, giving post-merge queries the paper's
    fast path (EMBANKS-style write-optimized staging in front of
    read-optimized indexes).

    Attributes
    ----------
    batch_ticks:
        How many time instances a replay source packs into one
        :class:`~repro.streaming.events.StreamBatch`.
    max_delta_contacts:
        The merge threshold: the service merges once the delta holds at
        least this many contacts.
    query_cache_size:
        Capacity of the service's LRU query-result cache (``0`` disables it);
        the cache is invalidated whenever the watermark advances.
    compaction_max_runs:
        Per-level fanout of the LSM path's size-ratio leveled compaction:
        once a merge leaves more than this many live runs on one level, a
        compaction folds that level's runs into a single run one level up
        (cascading if the next level overflows in turn), superseding the old
        extents.
    gc_trigger_ratio:
        Device garbage fraction past which the service runs
        :meth:`~repro.storage.StorageSystem.reclaim` on its devices after a
        merge adoption.  ``0.0`` (the default) disables automatic
        GC — garbage is still measured by the superseded-block ledgers and
        can be reclaimed explicitly via
        :meth:`~repro.streaming.service.StreamingReachabilityService.reclaim`.
    graph_repack_min_partitions:
        Cold-partition threshold of the incremental ReachGraph's frontier
        repack: once a merge leaves at least this many cold (closed)
        under-filled frontier partitions, they are repacked into
        depth-``dp``-sized extents to restore read locality.  ``0`` (the
        default) disables repacking.
    graph_labels:
        Maintain GRAIL-style interval labels on the merge-built ReachGraph
        (see :mod:`repro.reachgraph.labels`): queries reject provable
        negatives in O(1) and prune traversal frontiers without IO.  Labels
        are recomputed by every merge that adds a vertex and by every
        reopen, never persisted; disabling them reverts to pure traversal.
    partition_cache_size:
        Capacity (in graph partitions) of the cross-query partition cache
        the service's overlay keeps.  The cache is
        generation-stamped; a merge adoption drops the partitions it
        rewrote and a repack the ones it retired.  ``0`` disables it,
        restoring the
        per-query-only caching of earlier versions.
    """

    batch_ticks: int = 8
    max_delta_contacts: int = 256
    query_cache_size: int = 128
    compaction_max_runs: int = 4
    gc_trigger_ratio: float = 0.0
    graph_repack_min_partitions: int = 0
    graph_labels: bool = True
    partition_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.batch_ticks <= 0:
            raise ConfigurationError("batch_ticks must be positive")
        if self.max_delta_contacts <= 0:
            raise ConfigurationError("max_delta_contacts must be positive")
        if self.query_cache_size < 0:
            raise ConfigurationError("query_cache_size must be non-negative")
        if self.compaction_max_runs <= 0:
            raise ConfigurationError("compaction_max_runs must be positive")
        if not 0.0 <= self.gc_trigger_ratio < 1.0:
            raise ConfigurationError(
                "gc_trigger_ratio must be in [0.0, 1.0) (0 disables GC)"
            )
        if self.graph_repack_min_partitions < 0 or self.graph_repack_min_partitions == 1:
            raise ConfigurationError(
                "graph_repack_min_partitions must be 0 (disabled) or >= 2 "
                "(folding a single partition is pure write amplification)"
            )
        if self.partition_cache_size < 0:
            raise ConfigurationError("partition_cache_size must be non-negative")


@dataclass(frozen=True, slots=True)
class GrailConfig:
    """GRAIL baseline parameters.

    ``num_labelings`` is the paper's ``d``, the number of randomized interval
    labelings per vertex (GRAIL's default of 5 is used).
    """

    num_labelings: int = 5
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_labelings <= 0:
            raise ConfigurationError("num_labelings must be positive")
