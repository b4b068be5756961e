"""ReachGraph: the precomputed multi-resolution reachability index of Section 5."""

from __future__ import annotations

from .augmentation import (
    AugmentationReport,
    WindowSweep,
    augment_dag,
    build_layer,
    next_window_start,
)
from .dag import (
    ComponentNode,
    ContactDag,
    DagPatch,
    DagPatchBuilder,
    HyperGraph,
    LongEdgeLayer,
)
from .index import (
    GraphDomain,
    GraphFrontier,
    GraphIncrementReport,
    ReachGraphBuildReport,
    ReachGraphIndex,
    VertexRecord,
    compute_graph_patch,
)
from .labels import ReachLabelIndex
from .partition import Partitioning, extend_partitioning, partition_hypergraph
from .query import STRATEGIES, PartitionCache, ReachGraphQueryProcessor
from .reduction import (
    ReductionCursor,
    ReductionFrontier,
    ReductionReport,
    reduce_contact_network,
    snapshot_components,
)

__all__ = [
    "ComponentNode",
    "ContactDag",
    "DagPatch",
    "DagPatchBuilder",
    "HyperGraph",
    "LongEdgeLayer",
    "reduce_contact_network",
    "snapshot_components",
    "ReductionCursor",
    "ReductionFrontier",
    "ReductionReport",
    "augment_dag",
    "build_layer",
    "next_window_start",
    "WindowSweep",
    "AugmentationReport",
    "partition_hypergraph",
    "extend_partitioning",
    "Partitioning",
    "ReachGraphIndex",
    "ReachGraphBuildReport",
    "GraphDomain",
    "GraphFrontier",
    "GraphIncrementReport",
    "compute_graph_patch",
    "VertexRecord",
    "ReachGraphQueryProcessor",
    "ReachLabelIndex",
    "PartitionCache",
    "STRATEGIES",
]
