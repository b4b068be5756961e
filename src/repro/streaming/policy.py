"""The merge policy: when does the delta get folded into a new snapshot?

The trade-off is the classic write/read amplification balance of staged
storage designs: merging often keeps queries on the fast frozen indexes but
pays repeated merge cost; merging rarely makes ingestion cheap but grows the
in-memory delta every query must scan.  One threshold sets the operating
point: the service merges once the delta holds
:attr:`~repro.core.config.StreamingConfig.max_delta_contacts` contacts.  The
policy sees the same :class:`MergeContext` after every ingested batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import StreamingConfig
from ..core.errors import ConfigurationError

__all__ = [
    "MergeContext",
    "DeltaSizePolicy",
    "make_policy",
]


@dataclass(frozen=True, slots=True)
class MergeContext:
    """What the merge policy gets to look at after each ingested batch.

    Attributes
    ----------
    delta_contacts:
        Contacts currently buffered in the delta graph.
    watermark / snapshot_watermark:
        Current stream watermark and the watermark of the last merge.
    """

    delta_contacts: int
    watermark: Optional[int]
    snapshot_watermark: Optional[int]


class DeltaSizePolicy:
    """Merge once the delta holds at least ``max_delta_contacts`` contacts."""

    def __init__(self, max_delta_contacts: int) -> None:
        if max_delta_contacts <= 0:
            raise ConfigurationError("max_delta_contacts must be positive")
        self.max_delta_contacts = max_delta_contacts

    def should_merge(self, context: MergeContext) -> bool:
        """True once the delta holds at least ``max_delta_contacts`` contacts."""
        return context.delta_contacts >= self.max_delta_contacts


def make_policy(config: StreamingConfig) -> DeltaSizePolicy:
    """The merge policy of a :class:`StreamingConfig`: its delta-size threshold."""
    return DeltaSizePolicy(config.max_delta_contacts)
