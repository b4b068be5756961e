"""The augmentation phase: precomputing long edges at multiple resolutions.

Section 5.1.2.2 breaks the horizon into windows of length ``L`` for every
resolution ``L`` and adds a *long edge* from every component active at a
window start ``ta`` to every component active at ``ta + L`` that is reachable
from it through DN_1 paths confined to ``[ta, ta + L]``.  The union of DN_1
with the long-edge layers is the ReachGraph hyper graph ``HN``.

Reachability inside a window is computed with a single forward sweep per
window that propagates bitmasks of the window-start components along DN_1
edges (vertices are already in topological/creation order), which is far
cheaper than one BFS per start component.

:class:`WindowSweep` runs those windows.  It is built once per view list over
plain vertex views — ``(node_id, start, end)`` triples plus a successor
mapping — rather than over a :class:`~repro.reachgraph.dag.ContactDag`, so
the same sweep serves the batch build *and* the incremental merge path, which
runs it over a captured frontier while the live DAG keeps serving queries.
Its cost is per *window*, not per graph: consecutive windows of a resolution
carry the id-ordered list of vertices still alive forward, so a window touches
the vertices whose interval intersects it (plus the ones that just ended) and
nothing else — a vertex costs one visit per window it lives through, however
long the horizon grows.  A vertex alive over a whole window is left out of
its sweep: its predecessors end before the window and its successors start
after it, so it neither relays a mask nor yields an edge.  A ``(source,
target)`` pair belongs to exactly one window of a resolution (the source ends
before the target starts, which pins the one boundary pair they can
straddle), so the sweep never emits a duplicate — which is why layers (and a
merge's staged rows) take its edges by plain appends, with no membership
scan.  :func:`augment_dag` builds one sweep for all resolutions.

Windows are strictly append-processed: a window is swept exactly once, when
the horizon first reaches its end, and appended ticks can never change an
already swept window (new vertices always start past the old horizon end, so
no DN_1 path confined to an old window can reach them).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.types import TimeInstant
from .dag import ContactDag, HyperGraph, LongEdgeLayer

__all__ = [
    "AugmentationReport",
    "WindowSweep",
    "augment_dag",
    "build_layer",
    "next_window_start",
]

#: A vertex as the window sweep sees it: ``(node_id, start, end)``.  Views
#: must be supplied in ascending node-id order, which by construction is
#: nondecreasing-start (creation) order.
NodeView = Tuple[int, TimeInstant, TimeInstant]


@dataclass(frozen=True, slots=True)
class AugmentationReport:
    """Statistics of the augmentation phase (Table 4 reports the degrees)."""

    resolutions: Tuple[int, ...]
    long_edges_per_resolution: Dict[int, int]
    average_degree_per_resolution: Dict[int, float]
    build_seconds: float

    @property
    def total_long_edges(self) -> int:
        """Total number of long edges added across all resolutions."""
        return sum(self.long_edges_per_resolution.values())


def next_window_start(
    start: TimeInstant, end: TimeInstant, resolution: int
) -> TimeInstant:
    """First window start whose window ``[ta, ta + L]`` exceeds ``end``.

    Window starts are aligned to multiples of ``L`` from the horizon start;
    a window is processed once its end fits inside the horizon.  This is the
    resumption cursor the incremental path stores per resolution: every
    window before it has been swept, every window at or after it has not.
    """
    if end < start:
        return start
    processed = (end - start) // resolution
    return start + processed * resolution


def build_layer(dag: ContactDag, resolution: int) -> LongEdgeLayer:
    """Build the ``DN_L`` long-edge layer for one resolution ``L``."""
    return _build_layers(dag, (resolution,))[0]


def augment_dag(
    dag: ContactDag, resolutions: Sequence[int]
) -> Tuple[HyperGraph, AugmentationReport]:
    """Build the hyper graph ``HN`` by augmenting ``dag`` with long edges."""
    started = time.perf_counter()
    layers = _build_layers(dag, sorted(set(resolutions)))
    hypergraph = HyperGraph(dag, layers)
    report = AugmentationReport(
        resolutions=tuple(sorted(set(resolutions))),
        long_edges_per_resolution={
            layer.resolution: layer.num_edges for layer in layers
        },
        average_degree_per_resolution={
            layer.resolution: layer.average_degree() for layer in layers
        },
        build_seconds=time.perf_counter() - started,
    )
    return hypergraph, report


def _build_layers(dag: ContactDag, resolutions: Sequence[int]) -> List[LongEdgeLayer]:
    """One layer per resolution, all swept by one :class:`WindowSweep`.

    The sweep never emits a pair twice, so each layer's forward lists are
    filled by plain appends, in sweep order.
    """
    sweep = WindowSweep(
        [(node.node_id, node.interval.start, node.interval.end) for node in dag.nodes],
        dag.forward,
    )
    start, end = dag.horizon.start, dag.horizon.end
    layers: List[LongEdgeLayer] = []
    for resolution in resolutions:
        layer = LongEdgeLayer(resolution)
        forward = layer.forward
        for source_id, target_id in sweep.edges_through(resolution, start, end)[0]:
            targets = forward.get(source_id)
            if targets is None:
                targets = forward[source_id] = []
            targets.append(target_id)
        layers.append(layer)
    return layers


class WindowSweep:
    """The per-window long-edge sweep over one id-ordered list of vertex views.

    Built once per view list (a layer build, or one
    :func:`~repro.reachgraph.index.compute_graph_patch`); every resolution
    then runs its windows through :meth:`edges_through`.  ``views`` must be in
    ascending node-id order with nondecreasing starts and must include every
    vertex whose interval reaches the first window swept; ``successors`` maps
    a vertex to its DN_1 successors (vertices without any may be absent).
    """

    def __init__(
        self, views: Sequence[NodeView], successors: Mapping[int, Sequence[int]]
    ) -> None:
        self._views = views
        self._starts: List[TimeInstant] = []
        self._start_of: Dict[int, TimeInstant] = {}
        for node_id, start, _ in views:
            self._starts.append(start)
            self._start_of[node_id] = start
        self._successors_of = successors.get

    def edges_through(
        self, resolution: int, ta: TimeInstant, through: TimeInstant
    ) -> Tuple[List[Tuple[int, int]], TimeInstant]:
        """Long edges of every window ``[ta, ta + L]`` ending by ``through``.

        Sweeps the windows from the cursor ``ta`` in order and returns their
        edges — window by window, each in the sweep's deterministic order —
        together with the next cursor (the first window start not swept).
        """
        edges: List[Tuple[int, int]] = []
        alive: List[NodeView] = []
        taken = 0
        while ta + resolution <= through:
            tb = ta + resolution
            # Vertices intersecting [ta, tb], in id order: the survivors of
            # the previous window plus the ones that started since.
            started = bisect_right(self._starts, tb)
            alive.extend(self._views[taken:started])
            taken = started
            alive = [view for view in alive if view[2] >= ta]
            # A vertex spanning the whole window neither relays nor yields an
            # edge: its predecessors end before ta, its successors start
            # after tb.
            self._window_edges(
                [view for view in alive if view[1] > ta or view[2] < tb], ta, tb, edges
            )
            ta = tb
        return edges, ta

    def _window_edges(
        self,
        alive: List[NodeView],
        ta: TimeInstant,
        tb: TimeInstant,
        edges: List[Tuple[int, int]],
    ) -> None:
        """Append one window's edges: components at ``ta`` reaching ones at ``tb``.

        A forward sweep over ``alive`` — the vertices that intersect
        ``[ta, tb]`` without spanning it, in creation = topological order —
        propagates, for every vertex, the bitmask of window-start vertices
        that can reach it without leaving the window.
        """
        start_nodes = [node_id for node_id, start, _ in alive if start <= ta]
        if not start_nodes:
            return
        # Reachability masks; a start vertex reaches itself.
        masks: Dict[int, int] = {
            node_id: 1 << position for position, node_id in enumerate(start_nodes)
        }
        start_of = self._start_of.get
        successors_of = self._successors_of

        for node_id, _, _ in alive:
            mask = masks.get(node_id)
            if not mask:
                continue
            for successor_id in successors_of(node_id, ()):
                # The connecting edge happens at the successor's start; it must
                # stay inside the window.  A successor beyond the captured views
                # cannot start inside the window (views cover every vertex whose
                # interval reaches past ta, and successors start after their
                # source ends).
                successor_start = start_of(successor_id)
                if successor_start is None or successor_start > tb:
                    continue
                masks[successor_id] = masks.get(successor_id, 0) | mask

        for node_id, _, end in alive:
            if end < tb:
                continue
            remaining = masks.get(node_id, 0)
            while remaining:
                lowest_bit = remaining & (-remaining)
                source_id = start_nodes[lowest_bit.bit_length() - 1]
                if source_id != node_id:
                    edges.append((source_id, node_id))
                remaining ^= lowest_bit
