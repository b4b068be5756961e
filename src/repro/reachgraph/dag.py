"""The reduced contact-network DAG (``DN``) and the ReachGraph hyper graph (``HN``).

After the reduction phase (Section 5.1.2.1) the contact network is a DAG whose
vertices are connected components of TEN snapshots.  Two consecutive identical
components are merged into one vertex that *persists* over a time interval
(the paper's second reduction step); the edge that skips the merged copies is
the aggregated edge and its weight is the length of the persisted interval.

After the augmentation phase (Section 5.1.2.2) the DAG additionally carries
*long edges* at a set of resolutions; the union of the base DAG (``DN_1``) and
the long-edge layers is the ReachGraph hyper graph ``HN``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import IndexConstructionError
from ..core.types import ObjectId, TimeInstant, TimeInterval

__all__ = [
    "ComponentNode",
    "ContactDag",
    "DagPatch",
    "DagPatchBuilder",
    "LongEdgeLayer",
    "HyperGraph",
]


@dataclass(slots=True)
class ComponentNode:
    """A DN vertex: a connected component persisting over a time interval.

    Every object in ``members`` is reachable from every other member at each
    instant of ``interval`` (snapshot symmetry + the component persisting
    unchanged).
    """

    node_id: int
    interval: TimeInterval
    members: FrozenSet[ObjectId]

    def active_at(self, t: TimeInstant) -> bool:
        """True when the component exists at time instance ``t``."""
        return self.interval.contains(t)

    def __hash__(self) -> int:
        return self.node_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        members = ",".join(f"o{m}" for m in sorted(self.members))
        return f"c{self.node_id}({{{members}}}, {self.interval})"


class ContactDag:
    """``DN_1``: component vertices plus the first-resolution edges.

    Vertices are stored in creation order, which is a topological order (an
    edge always points from a vertex that ends at ``t - 1`` to a vertex that
    starts at ``t``).
    """

    def __init__(self, horizon: TimeInterval, num_objects: int) -> None:
        self.horizon = horizon
        self.num_objects = num_objects
        self.nodes: List[ComponentNode] = []
        self.forward: Dict[int, List[int]] = {}
        self.backward: Dict[int, List[int]] = {}
        # (object, start_time) -> node_id assignment segments, per object.
        self._assignments: Dict[ObjectId, List[Tuple[TimeInstant, int]]] = {}

    # ------------------------------------------------------------------
    # construction helpers (used by the reduction phase)
    # ------------------------------------------------------------------
    def add_node(self, interval: TimeInterval, members: FrozenSet[ObjectId]) -> ComponentNode:
        """Append a new component vertex (keeps topological creation order)."""
        node = ComponentNode(len(self.nodes), interval, members)
        self.nodes.append(node)
        self.forward[node.node_id] = []
        self.backward[node.node_id] = []
        for member in members:
            self._assignments.setdefault(member, []).append(
                (interval.start, node.node_id)
            )
        return node

    def extend_node(self, node_id: int, new_end: TimeInstant) -> None:
        """Extend the persistence interval of a vertex (temporal merge step)."""
        node = self.nodes[node_id]
        if new_end < node.interval.end:
            raise IndexConstructionError("cannot shrink a component interval")
        node.interval = TimeInterval(node.interval.start, new_end)

    def add_edge(self, source_id: int, target_id: int) -> None:
        """Add a DN_1 edge (deduplicated)."""
        if target_id not in self.forward[source_id]:
            self.forward[source_id].append(target_id)
            self.backward[target_id].append(source_id)

    # ------------------------------------------------------------------
    # queries over the structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of component vertices."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of DN_1 edges (aggregated edges count once)."""
        return sum(len(targets) for targets in self.forward.values())

    def node(self, node_id: int) -> ComponentNode:
        """The vertex with identifier ``node_id``."""
        return self.nodes[node_id]

    def successors(self, node_id: int) -> List[int]:
        """DN_1 successors of a vertex."""
        return self.forward[node_id]

    def predecessors(self, node_id: int) -> List[int]:
        """DN_1 predecessors of a vertex."""
        return self.backward[node_id]

    def node_of(self, object_id: ObjectId, t: TimeInstant) -> int:
        """Identifier of the component containing ``object_id`` at time ``t``.

        This is an in-memory lookup used during construction and by the
        memory-resident baselines; disk-resident query processing goes through
        the external hash tables instead.
        """
        segments = self._assignments.get(object_id)
        if not segments:
            raise IndexConstructionError(f"object {object_id} has no assignments")
        # Binary search over the per-object (start_time, node) segments.
        lo, hi = 0, len(segments) - 1
        answer: Optional[int] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if segments[mid][0] <= t:
                answer = segments[mid][1]
                lo = mid + 1
            else:
                hi = mid - 1
        if answer is None or not self.nodes[answer].active_at(t):
            raise IndexConstructionError(
                f"object {object_id} has no component at time {t}"
            )
        return answer

    def assignment_segments(self, object_id: ObjectId) -> List[Tuple[TimeInstant, int]]:
        """The (start_time, node_id) assignment history of an object."""
        return list(self._assignments.get(object_id, ()))

    def nodes_active_at(self, t: TimeInstant) -> List[ComponentNode]:
        """All vertices whose persistence interval contains ``t``."""
        return [node for node in self.nodes if node.active_at(t)]

    def topological_order(self) -> List[int]:
        """Vertex ids in topological order (creation order by construction)."""
        return list(range(len(self.nodes)))

    def __iter__(self) -> Iterator[ComponentNode]:
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContactDag(nodes={self.num_nodes}, edges={self.num_edges})"


@dataclass(frozen=True, slots=True)
class DagPatch:
    """A pure description of how appended ticks change the reduced DAG.

    Computed off the live structures (a background thread may run it) by
    :func:`~repro.reachgraph.index.compute_graph_patch` from a captured
    :class:`~repro.reachgraph.index.GraphFrontier`, and applied atomically by
    :meth:`~repro.reachgraph.index.ReachGraphIndex.apply_increment`.  All
    fields are plain picklable data.

    Attributes
    ----------
    base_end / base_nodes:
        The frontier the patch extends: the last reduced tick and the vertex
        count it was computed against (application validates both).
    new_end:
        The last tick covered after application (the merge bound).
    extensions:
        ``(node_id, new_end)`` for every pre-existing open vertex whose
        component persisted into the appended ticks.
    new_nodes:
        ``(node_id, start, end, members)`` for vertices created at the
        frontier, in creation (= topological) order; ids continue the base
        numbering.
    new_edges:
        New DN_1 edges ``(source_id, target_id)``; targets are always new
        vertices, sources may be old (those become dirty).
    new_long_edges:
        ``(resolution, ((source_id, target_id), ...))`` for augmentation
        windows completed by the appended ticks.
    window_cursors:
        ``(resolution, next_window_start)`` after the patch — the resumption
        point the index stores for the next increment.
    """

    base_end: TimeInstant
    base_nodes: int
    new_end: TimeInstant
    extensions: Tuple[Tuple[int, TimeInstant], ...]
    new_nodes: Tuple[Tuple[int, TimeInstant, TimeInstant, Tuple[ObjectId, ...]], ...]
    new_edges: Tuple[Tuple[int, int], ...]
    new_long_edges: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
    window_cursors: Tuple[Tuple[int, TimeInstant], ...]

    @property
    def is_empty(self) -> bool:
        """True when the patch changes nothing (a zero-tick increment)."""
        return not (
            self.extensions
            or self.new_nodes
            or self.new_edges
            or self.new_long_edges
        )


class DagPatchBuilder:
    """A :class:`~repro.reachgraph.reduction.DagSink` recording ops as a patch.

    Stands in for the :class:`ContactDag` during the pure half of an
    incremental merge: the :class:`~repro.reachgraph.reduction.ReductionCursor`
    replays the appended ticks into this recorder, and the collected
    operations later replay onto the live DAG at adoption time.  Extensions
    collapse to their final end (extending the same open vertex across many
    ticks is one operation applied once).
    """

    def __init__(self, base_nodes: int) -> None:
        self._base_nodes = base_nodes
        self._extensions: Dict[int, TimeInstant] = {}
        self._new_nodes: List[Tuple[int, TimeInstant, TimeInstant, Tuple[ObjectId, ...]]] = []
        self._new_edges: List[Tuple[int, int]] = []
        self._next_node_id = base_nodes

    def add_node(self, interval: TimeInterval, members: FrozenSet[ObjectId]) -> int:
        """Record a vertex creation; returns the id it will receive."""
        node_id = self._next_node_id
        self._next_node_id += 1
        self._new_nodes.append(
            (node_id, interval.start, interval.end, tuple(sorted(members)))
        )
        return node_id

    def extend_node(self, node_id: int, new_end: TimeInstant) -> None:
        """Record an interval extension (folded to the final end per vertex)."""
        if node_id >= self._base_nodes:
            # A vertex created inside this very patch: fold the extension
            # into its recorded interval instead of emitting an operation.
            index = node_id - self._base_nodes
            recorded_id, start, _, members = self._new_nodes[index]
            self._new_nodes[index] = (recorded_id, start, new_end, members)
        else:
            self._extensions[node_id] = new_end

    def add_edge(self, source_id: int, target_id: int) -> None:
        """Record a DN_1 edge (the cursor never emits duplicates)."""
        self._new_edges.append((source_id, target_id))

    @property
    def new_node_views(self) -> List[Tuple[int, TimeInstant, TimeInstant]]:
        """``(node_id, start, end)`` views of the recorded vertices."""
        return [(node_id, start, end) for node_id, start, end, _ in self._new_nodes]

    @property
    def extensions(self) -> Dict[int, TimeInstant]:
        """Final extension end per pre-existing vertex."""
        return dict(self._extensions)

    @property
    def new_edges(self) -> List[Tuple[int, int]]:
        """The recorded DN_1 edges, in creation order."""
        return list(self._new_edges)

    def build(
        self,
        base_end: TimeInstant,
        new_end: TimeInstant,
        new_long_edges: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...],
        window_cursors: Tuple[Tuple[int, TimeInstant], ...],
    ) -> DagPatch:
        """Freeze everything recorded (plus the augmentation half) as a patch."""
        return DagPatch(
            base_end=base_end,
            base_nodes=self._base_nodes,
            new_end=new_end,
            extensions=tuple(sorted(self._extensions.items())),
            new_nodes=tuple(self._new_nodes),
            new_edges=tuple(self._new_edges),
            new_long_edges=new_long_edges,
            window_cursors=window_cursors,
        )


@dataclass(slots=True)
class LongEdgeLayer:
    """All long edges of one resolution ``L`` (the graph ``DN_L``)."""

    resolution: int
    forward: Dict[int, List[int]] = field(default_factory=dict)

    def add_edge(self, source_id: int, target_id: int) -> None:
        """Add a long edge (deduplicated)."""
        targets = self.forward.setdefault(source_id, [])
        if target_id not in targets:
            targets.append(target_id)

    def successors(self, node_id: int) -> List[int]:
        """Long-edge successors of ``node_id`` at this resolution."""
        return self.forward.get(node_id, [])

    @property
    def num_edges(self) -> int:
        """Number of long edges in the layer."""
        return sum(len(targets) for targets in self.forward.values())

    def average_degree(self) -> float:
        """Average out-degree over vertices that have at least one long edge.

        This is the quantity reported in Table 4 of the paper.
        """
        if not self.forward:
            return 0.0
        return self.num_edges / len(self.forward)


class HyperGraph:
    """``HN``: the base DAG plus long-edge layers at several resolutions."""

    def __init__(self, dag: ContactDag, layers: Iterable[LongEdgeLayer] = ()) -> None:
        self.dag = dag
        self.layers: Dict[int, LongEdgeLayer] = {}
        for layer in layers:
            self.add_layer(layer)

    def add_layer(self, layer: LongEdgeLayer) -> None:
        """Register a long-edge layer (one per resolution)."""
        if layer.resolution in self.layers:
            raise IndexConstructionError(
                f"duplicate long-edge layer for resolution {layer.resolution}"
            )
        self.layers[layer.resolution] = layer

    @property
    def resolutions(self) -> List[int]:
        """Available long-edge resolutions, ascending."""
        return sorted(self.layers)

    def layer(self, resolution: int) -> LongEdgeLayer:
        """The long-edge layer for ``resolution``."""
        return self.layers[resolution]

    @property
    def num_long_edges(self) -> int:
        """Total number of long edges across every layer."""
        return sum(layer.num_edges for layer in self.layers.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HyperGraph(nodes={self.dag.num_nodes}, base_edges={self.dag.num_edges}, "
            f"long_edges={self.num_long_edges}, resolutions={self.resolutions})"
        )
