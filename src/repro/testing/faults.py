"""Crash-injection fault points for recovery testing.

Production code calls :func:`crash_point` at the handful of places where a
``kill -9`` would be most damaging (between a manifest write and the device
flush, between the build and adopt halves of a merge, mid-compaction,
mid-reclaim).  The call is a dictionary-membership check when nothing is
armed, so leaving the probes in shipped code costs nothing.

Tests arm a point by name — optionally "after N hits" so a probe inside a
loop can fire on a chosen iteration — and the probe raises
:class:`SimulatedCrash`.  A simulated crash deliberately unwinds *without*
flushing anything: pairing it with :func:`simulate_kill` (which discards the
service's devices the way the kernel would on SIGKILL) leaves on disk exactly
what a real crash would leave.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "FAULT_POINT_DESCRIPTIONS",
    "KNOWN_FAULT_POINTS",
    "SimulatedCrash",
    "arm",
    "armed",
    "clear",
    "crash_point",
    "simulate_kill",
]


class SimulatedCrash(BaseException):
    """Raised by an armed :func:`crash_point`.

    Derives from ``BaseException`` so ordinary ``except Exception`` cleanup
    handlers — which a real ``kill -9`` would never run — do not swallow it.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


#: Every fault point compiled into production code, with where it sits and
#: what a crash there must leave behind.  The keys double as the registry:
#: :data:`KNOWN_FAULT_POINTS` is derived from this mapping, so adding a probe
#: means adding its description here — the two cannot drift apart.
FAULT_POINT_DESCRIPTIONS: Dict[str, str] = {
    "flush-post-ingestor": (
        "Inside StreamingReachabilityService.flush(), after the ingestor's "
        "state (including the WAL journal) is written back but before the "
        "manifest commits.  Recovery must replay the WAL tail past the last "
        "committed flush."
    ),
    "flush-post-manifest": (
        "Inside flush(), after the overlay manifest metadata is staged but "
        "before the storage flush commits it.  Recovery reopens the previous "
        "commit, with the ingestor's WAL durably ahead of it."
    ),
    "merge-pre-adopt": (
        "Between a merge's build phase resolving and adopt_merge() starting — "
        "the built artifacts exist only in memory.  A crash abandons the "
        "build: the manifest still describes the pre-merge commit, and "
        "recovery reopens pre-merge state."
    ),
    "compaction-mid": (
        "Mid-compaction, after the merged run is staged but before the "
        "superseded runs are retired in the manifest.  Recovery must come up "
        "on the pre-compaction run set."
    ),
    "gc-post-copy": (
        "Inside a backend's copy-forward reclaim, after the compacted "
        "sidecar image is written and fsynced but before the manifest "
        "commits the swap.  The sidecar is uncommitted garbage: recovery "
        "attaches the old image, deletes the stray sidecar, and loses "
        "nothing."
    ),
    "gc-pre-commit": (
        "Inside a backend's copy-forward reclaim, immediately before the "
        "manifest write that commits the compacted image (the remapped "
        "directory/catalog plus the log='gc' redo flag).  A crash on either "
        "side of the commit point must recover: before it the old image is "
        "authoritative; after it, attach redoes the file swap."
    ),
    "wal-truncate-pre-commit": (
        "Inside StreamIngestor.flush(), after the checkpointed journal "
        "prefix is dropped and the state snapshot staged, but before the "
        "storage flush commits either.  Recovery reopens the previous "
        "commit, whose catalog still holds the journal extents, and "
        "replays them as before."
    ),
    "repack-pre-adopt": (
        "Inside ReachGraphIndex.repack_frontier(), after the packed "
        "partition's extent is staged but before the superseded frontier "
        "partitions are retired.  The manifest still describes the "
        "pre-repack catalog, so recovery reopens the unpacked partitions."
    ),
}

#: Every fault point compiled into production code.  ``arm`` validates
#: against this so a typo in a test arms a real probe or fails loudly.
KNOWN_FAULT_POINTS: Tuple[str, ...] = tuple(FAULT_POINT_DESCRIPTIONS)

_armed: Dict[str, int] = {}


def arm(point: str, after: int = 0) -> None:
    """Arm ``point``; the probe raises on its ``after + 1``-th hit."""
    if point not in KNOWN_FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; known points: {KNOWN_FAULT_POINTS}"
        )
    if after < 0:
        raise ValueError("after must be >= 0")
    _armed[point] = after


def clear() -> None:
    """Disarm every fault point."""
    _armed.clear()


def armed() -> Tuple[str, ...]:
    """Names of currently armed fault points (order unspecified)."""
    return tuple(_armed)


def crash_point(point: str) -> None:
    """Raise :class:`SimulatedCrash` if ``point`` is armed (else no-op)."""
    remaining = _armed.get(point)
    if remaining is None:
        return
    if remaining > 0:
        _armed[point] = remaining - 1
        return
    del _armed[point]
    raise SimulatedCrash(point)


def simulate_kill(*storages: object) -> None:
    """Drop the given storage systems' devices as ``kill -9`` would.

    Each argument is a :class:`~repro.storage.StorageSystem` (or anything
    with a ``.disk`` exposing ``discard()``).  ``discard`` closes the device
    handle without the final flush, so the on-disk state is whatever earlier
    explicit flushes made durable — exactly the post-SIGKILL picture.
    """
    for storage in storages:
        disk = getattr(storage, "disk", storage)
        discard = getattr(disk, "discard", None)
        if discard is not None:
            discard()
