"""Merge policies: when does the delta get folded into a new snapshot?

The trade-off is the classic write/read amplification balance of staged
storage designs: merging often keeps queries on the fast frozen indexes but
pays repeated merge cost; merging rarely makes ingestion cheap but grows the
in-memory delta every query must scan.  Three policies cover the usual
operating points; all of them see the same :class:`MergeContext` after every
ingested batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..core.config import MERGE_POLICIES, StreamingConfig
from ..core.errors import ConfigurationError

__all__ = [
    "MergeContext",
    "MergePolicy",
    "DeltaSizePolicy",
    "ElapsedIntervalsPolicy",
    "AmplificationPolicy",
    "make_policy",
]


@dataclass(frozen=True, slots=True)
class MergeContext:
    """What a merge policy gets to look at after each ingested batch.

    Attributes
    ----------
    delta_contacts:
        Contacts currently buffered in the delta graph.
    snapshot_contacts:
        Contacts in the frozen snapshot (0 before the first merge).
    intervals_since_merge:
        Temporal grid intervals fully elapsed since the last merge (or since
        the stream origin when no merge has happened yet).
    watermark / snapshot_watermark:
        Current stream watermark and the watermark of the last merge.
    """

    delta_contacts: int
    snapshot_contacts: int
    intervals_since_merge: int
    watermark: Optional[int]
    snapshot_watermark: Optional[int]

    @property
    def amplification(self) -> float:
        """Delta size relative to snapshot size."""
        return self.delta_contacts / max(1, self.snapshot_contacts)


class MergePolicy(ABC):
    """Decides, after every batch, whether to fold the delta into a snapshot."""

    name: str = "abstract"

    @abstractmethod
    def should_merge(self, context: MergeContext) -> bool:
        """True when the service should merge now."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DeltaSizePolicy(MergePolicy):
    """Merge once the delta holds at least ``max_delta_contacts`` contacts."""

    name = "delta-size"

    def __init__(self, max_delta_contacts: int) -> None:
        if max_delta_contacts <= 0:
            raise ConfigurationError("max_delta_contacts must be positive")
        self.max_delta_contacts = max_delta_contacts

    def should_merge(self, context: MergeContext) -> bool:
        """True once the delta holds at least ``max_delta_contacts`` contacts."""
        return context.delta_contacts >= self.max_delta_contacts


class ElapsedIntervalsPolicy(MergePolicy):
    """Merge every ``max_elapsed_intervals`` temporal grid intervals.

    Mirrors the paper's interval-ordered placement: a merge boundary always
    coincides with work the grid has already organized by temporal interval.
    """

    name = "elapsed-intervals"

    def __init__(self, max_elapsed_intervals: int) -> None:
        if max_elapsed_intervals <= 0:
            raise ConfigurationError("max_elapsed_intervals must be positive")
        self.max_elapsed_intervals = max_elapsed_intervals

    def should_merge(self, context: MergeContext) -> bool:
        """True once ``max_elapsed_intervals`` grid intervals closed since the last merge."""
        return context.intervals_since_merge >= self.max_elapsed_intervals


class AmplificationPolicy(MergePolicy):
    """Merge when the delta outgrows ``max_amplification`` × snapshot size.

    Keeps the per-query overlay scan proportional to the read-optimized part,
    so query cost amplification stays bounded as the stream grows.
    """

    name = "amplification"

    def __init__(self, max_amplification: float) -> None:
        if max_amplification <= 0:
            raise ConfigurationError("max_amplification must be positive")
        self.max_amplification = max_amplification

    def should_merge(self, context: MergeContext) -> bool:
        """True once the delta/snapshot size ratio reaches ``max_amplification``."""
        if context.delta_contacts == 0:
            return False
        return context.amplification >= self.max_amplification


def make_policy(config: StreamingConfig) -> MergePolicy:
    """Instantiate the merge policy selected by a :class:`StreamingConfig`."""
    if config.merge_policy == "delta-size":
        return DeltaSizePolicy(config.max_delta_contacts)
    if config.merge_policy == "elapsed-intervals":
        return ElapsedIntervalsPolicy(config.max_elapsed_intervals)
    if config.merge_policy == "amplification":
        return AmplificationPolicy(config.max_amplification)
    raise ConfigurationError(  # pragma: no cover - StreamingConfig validates first
        f"unknown merge policy {config.merge_policy!r}; "
        f"choose one of {', '.join(MERGE_POLICIES)}"
    )
