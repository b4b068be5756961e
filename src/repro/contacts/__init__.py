"""Contact extraction and contact-network models (including TEN)."""

from __future__ import annotations

from .join import (
    SpatialHash,
    build_contact_network,
    join_at_instant,
    pairs_within_distance,
)
from .network import Contact, ContactNetwork
from .ten import TENVertex, TimeExpandedNetwork

__all__ = [
    "Contact",
    "ContactNetwork",
    "TimeExpandedNetwork",
    "TENVertex",
    "build_contact_network",
    "join_at_instant",
    "pairs_within_distance",
    "SpatialHash",
]
