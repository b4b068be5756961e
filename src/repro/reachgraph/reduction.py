"""The reduction phase: contact network (TEN) → reduced DAG ``DN``.

Section 5.1.2.1 performs two lossless reduction steps:

1. **Snapshot reduction** — within every snapshot ``G_t``, all vertices of a
   connected component are collapsed to a single hyper vertex (every member is
   reachable from every other member at ``t``, Properties 5.1/5.2).  An edge
   joins a component of ``G_t`` to a component of ``G_{t+1}`` when the TEN has
   at least one edge between their members — i.e. exactly when the two
   components share an object (TEN cross-snapshot edges are the per-object
   holding edges).
2. **Temporal merge** — consecutive snapshots of an *identical* component are
   merged into one vertex that persists over an interval; the edge that enters
   the persisted vertex is the aggregated edge and its weight is the interval
   length.

Both steps are one forward pass over the snapshots, and that pass is
factored as a *resumable* :class:`ReductionCursor`: each
:meth:`~ReductionCursor.advance` consumes one snapshot's adjacency and emits
incremental operations (create a vertex, connect it, extend the vertices it
closes) into a :class:`DagSink`, and :meth:`~ReductionCursor.finish` extends
the vertices still open when the replay ends.  Batch reduction
(:func:`reduce_contact_network`) simply replays the whole horizon through a
cursor writing straight into a :class:`~repro.reachgraph.dag.ContactDag`;
every streaming merge resumes a cursor from a captured
:class:`ReductionFrontier` — the first one from an empty frontier at the
stream's origin — and records the same operations into a patch instead —
one code path, two write targets.

A tick costs what changed, not the object count: the cursor compares each
object's neighbour set with the previous tick's and recomputes only the
components holding an object whose set differs (a component with no such
member is the previous tick's, and its open vertex persists).  An open vertex
is extended once — when it closes or when the replay ends — not every tick
it persists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Protocol, Sequence, Set, Tuple

from ..core.errors import IndexConstructionError
from ..core.types import ObjectId, TimeInstant, TimeInterval
from ..contacts.network import ContactNetwork
from .dag import ContactDag

__all__ = [
    "DagSink",
    "ReductionCursor",
    "ReductionFrontier",
    "ReductionReport",
    "reduce_contact_network",
    "snapshot_components",
]


@dataclass(frozen=True, slots=True)
class ReductionReport:
    """Size statistics of the reduction (Section 6.2.1.1 reports these)."""

    ten_vertices: int
    ten_edges: int
    dag_vertices: int
    dag_edges: int
    build_seconds: float

    @property
    def vertex_reduction(self) -> float:
        """Fraction of TEN vertices removed by the reduction."""
        if self.ten_vertices == 0:
            return 0.0
        return 1.0 - self.dag_vertices / self.ten_vertices

    @property
    def edge_reduction(self) -> float:
        """Fraction of TEN edges removed by the reduction."""
        if self.ten_edges == 0:
            return 0.0
        return 1.0 - self.dag_edges / self.ten_edges


class DagSink(Protocol):
    """Where a :class:`ReductionCursor` writes its incremental operations.

    :class:`~repro.reachgraph.dag.ContactDag` satisfies this structurally (the
    batch build); the streaming merge path records the operations into a
    :class:`~repro.reachgraph.dag.DagPatch` builder instead.  Node ids are
    implicit: the cursor numbers vertices in creation order, and every sink
    must assign the same sequence (``ContactDag`` does — it numbers by
    ``len(nodes)``).

    A vertex is created with the one-tick interval of its first tick and
    extended at most once per replay: when it closes, or at
    :meth:`ReductionCursor.finish`.  Until the caller finishes the replay,
    the sink's ends of still-open vertices are stale.
    """

    def add_node(self, interval: TimeInterval, members: FrozenSet[ObjectId]) -> object:
        """Create the next vertex (id = number of vertices created so far)."""
        ...

    def extend_node(self, node_id: int, new_end: TimeInstant) -> None:
        """Extend the persistence interval of an open vertex (once per replay)."""
        ...

    def add_edge(self, source_id: int, target_id: int) -> None:
        """Add a DN_1 edge (deduplicated by the sink)."""
        ...


@dataclass(frozen=True, slots=True)
class ReductionFrontier:
    """The resumable state of a reduction, frozen at tick ``end``.

    Everything :meth:`ReductionCursor.resume` needs to continue the one-pass
    reduction past ``end`` without re-reading the DAG it came from: the
    per-object vertex assignments at ``end`` and the member sets of the still
    open vertices (the only vertices the temporal-merge test can extend).
    Captured by :meth:`ReachGraphIndex.frontier
    <repro.reachgraph.index.ReachGraphIndex.frontier>` on the live thread and
    handed to the pure patch computation, which may then run off-thread.
    """

    start: TimeInstant
    end: TimeInstant
    num_nodes: int
    object_ids: Tuple[ObjectId, ...]
    assignments: Tuple[Tuple[ObjectId, int], ...]
    open_members: Tuple[Tuple[int, Tuple[ObjectId, ...]], ...]


class ReductionCursor:
    """The paper's one-pass reduction, reformulated as resumable per-tick ops.

    ``advance(t, adjacency)`` consumes the snapshot graph ``G_t`` and emits
    the reduction's incremental operations into the sink: a component equal to
    a currently open vertex persists; anything else creates a vertex and
    connects it to the previous vertices of its members, which close.  The
    cursor owns all cross-tick state (assignments, open member sets), so it
    never reads the sink back — which is what lets the same code path drive
    both the batch build (sink = the DAG) and the pure streaming patch (sink =
    a recorder).

    A tick costs what changed since the previous one, not the object count:
    only the components holding an object whose neighbour set differs from
    the previous tick's are recomputed.  A component none of whose members
    changed had the same neighbours at ``t - 1``, so it was a component
    then too — the open vertex persists unchanged.  A fresh or resumed cursor
    has no previous tick and recomputes every component once.  An open vertex
    extends once, when it closes or at :meth:`finish`, so the sink's view of
    open vertices' ends lags until the caller finishes the replay.
    """

    def __init__(
        self,
        object_ids: Sequence[ObjectId],
        sink: DagSink,
        next_node_id: int = 0,
        next_tick: Optional[TimeInstant] = None,
        assignments: Optional[Mapping[ObjectId, int]] = None,
        open_members: Optional[Mapping[int, FrozenSet[ObjectId]]] = None,
    ) -> None:
        self._object_ids: Tuple[ObjectId, ...] = tuple(object_ids)
        self._position: Dict[ObjectId, int] = {
            object_id: position for position, object_id in enumerate(self._object_ids)
        }
        self._sink = sink
        self._next_node_id = next_node_id
        self._next_tick = next_tick
        self._assignments: Dict[ObjectId, int] = dict(assignments or {})
        self._open_members: Dict[int, FrozenSet[ObjectId]] = dict(open_members or {})
        # The end the sink holds for each open vertex (filled on the first tick).
        self._sink_ends: Dict[int, TimeInstant] = {}
        # The previous tick's adjacency; ``None`` until a tick was consumed.
        self._adjacency: Optional[Mapping[ObjectId, Set[ObjectId]]] = None

    @classmethod
    def resume(cls, frontier: ReductionFrontier, sink: DagSink) -> "ReductionCursor":
        """A cursor continuing a frozen reduction at ``frontier.end + 1``."""
        return cls(
            frontier.object_ids,
            sink,
            next_node_id=frontier.num_nodes,
            next_tick=frontier.end + 1,
            assignments=dict(frontier.assignments),
            open_members={
                node_id: frozenset(members)
                for node_id, members in frontier.open_members
            },
        )

    @property
    def next_node_id(self) -> int:
        """Id the next created vertex will receive."""
        return self._next_node_id

    def advance(self, t: TimeInstant, adjacency: Mapping[ObjectId, Set[ObjectId]]) -> None:
        """Consume snapshot ``G_t`` (its contact adjacency), emit the ops."""
        if self._next_tick is not None and t != self._next_tick:
            raise IndexConstructionError(
                f"reduction cursor expected tick {self._next_tick}, got {t}"
            )
        previous = self._adjacency
        if previous is None:
            # Vertices open before the first tick end where the sink has them.
            self._sink_ends = dict.fromkeys(self._open_members, t - 1)
            components = snapshot_components(self._object_ids, adjacency)
        else:
            changed = [
                object_id
                for object_id, neighbours in adjacency.items()
                if neighbours != previous.get(object_id)
            ]
            changed.extend(object_id for object_id in previous if object_id not in adjacency)
            components = self._components_of(changed, adjacency)
        assignments = self._assignments
        for members in components:
            if self._match_open_vertex(members) is not None:
                continue  # the same component persisted from t-1
            node_id = self._next_node_id
            self._next_node_id += 1
            self._sink.add_node(TimeInterval(t, t), members)
            # Edges from the previous vertices of every member (the TEN
            # holding edges collapse to component-to-component edges); those
            # vertices close at t - 1.
            sources: Set[int] = set()
            for member in members:
                prev = assignments.get(member)
                if prev is not None:
                    sources.add(prev)
                assignments[member] = node_id
            for source in sources:
                self._close(source, t - 1)
                self._sink.add_edge(source, node_id)
            self._open_members[node_id] = members
            self._sink_ends[node_id] = t
        self._adjacency = adjacency
        self._next_tick = t + 1

    def finish(self) -> None:
        """Extend every open vertex through the last consumed tick.

        Call once the replay is over (more ticks may follow): until then the
        sink holds an open vertex's end as of its creation, or of the last
        :meth:`finish`.
        """
        if self._next_tick is None:
            return
        last = self._next_tick - 1
        sink_ends = self._sink_ends
        for node_id, end in sink_ends.items():
            if end < last:
                self._sink.extend_node(node_id, last)
                sink_ends[node_id] = last

    def _close(self, node_id: int, last: TimeInstant) -> None:
        """Close an open vertex whose component lived through ``last``."""
        if self._open_members.pop(node_id, None) is None:
            return  # already closed by another component of this tick
        if self._sink_ends.pop(node_id) < last:
            self._sink.extend_node(node_id, last)

    def _components_of(
        self, changed: List[ObjectId], adjacency: Mapping[ObjectId, Set[ObjectId]]
    ) -> List[FrozenSet[ObjectId]]:
        """The components of ``G_t`` holding a changed object, in first-member order.

        Each is rebuilt by the BFS :func:`snapshot_components` runs from its
        first member, so member sets (and their iteration order) are the ones
        a full recomputation would produce.  A component with no member in
        ``object_ids`` is skipped, as the full recomputation never reaches it.
        """
        position = self._position
        firsts: List[Tuple[int, ObjectId, Optional[Set[ObjectId]]]] = []
        seen: Set[ObjectId] = set()
        for object_id in changed:
            if object_id in seen:
                continue
            members = _component(object_id, adjacency)
            seen.update(members)
            known = [(position[member], member) for member in members if member in position]
            if known:
                rank, first = min(known)
                firsts.append((rank, first, members if first == object_id else None))
        firsts.sort(key=lambda entry: entry[0])
        return [
            frozenset(held if held is not None else _component(root, adjacency))
            for _, root, held in firsts
        ]

    def _match_open_vertex(self, members: FrozenSet[ObjectId]) -> Optional[int]:
        """The id of an open vertex identical to ``members``, or ``None``.

        A vertex can be extended only when it is still open (it survived the
        previous tick) and has exactly the same member set; any member serves
        as the probe because an identical match implies every member carried
        the same assignment.
        """
        candidate = self._assignments.get(next(iter(members)))
        if candidate is None:
            return None
        if self._open_members.get(candidate) != members:
            return None
        return candidate


def reduce_contact_network(
    network: ContactNetwork,
    window: Optional[TimeInterval] = None,
) -> Tuple[ContactDag, ReductionReport]:
    """Build the reduced DAG ``DN`` of a contact network.

    Replays every snapshot of the (windowed) horizon through a
    :class:`ReductionCursor` writing directly into a fresh
    :class:`~repro.reachgraph.dag.ContactDag` — the same per-tick operations
    the streaming merge path applies incrementally.

    Parameters
    ----------
    network:
        The contact network to reduce.
    window:
        Restrict the reduction to a sub-interval of the horizon (used by the
        Figure 10/11 experiments that grow ``|T|``); defaults to the full
        horizon.

    Returns
    -------
    (dag, report):
        The reduced DAG and the size statistics comparing it against the TEN
        representation of the same window.
    """
    started = time.perf_counter()
    horizon = window.intersection(network.horizon) if window else network.horizon
    if horizon is None:
        raise ValueError("reduction window does not overlap the network horizon")

    dag = ContactDag(horizon, network.dataset.num_objects)
    cursor = ReductionCursor(network.object_ids, dag)
    for t in horizon.instants():
        cursor.advance(t, network.snapshot_adjacency(t))
    cursor.finish()

    ten_vertices = network.dataset.num_objects * horizon.length
    # One TEN edge per contact instant inside the window: each contact's
    # clipped length (zero or less when it misses the window).
    ten_edges = network.dataset.num_objects * (horizon.length - 1) + sum(
        max(
            0,
            min(contact.validity.end, horizon.end)
            - max(contact.validity.start, horizon.start)
            + 1,
        )
        for contact in network.contacts
    )
    report = ReductionReport(
        ten_vertices=ten_vertices,
        ten_edges=ten_edges,
        dag_vertices=dag.num_nodes,
        dag_edges=dag.num_edges,
        build_seconds=time.perf_counter() - started,
    )
    return dag, report


def snapshot_components(
    object_ids: Sequence[ObjectId],
    adjacency: Mapping[ObjectId, Set[ObjectId]],
) -> List[FrozenSet[ObjectId]]:
    """Connected components of one snapshot graph (singletons included).

    Components are enumerated in first-member order over ``object_ids``, which
    is what makes vertex numbering deterministic across the batch build and
    the incremental replay of the same snapshots.
    """
    components: List[FrozenSet[ObjectId]] = []
    seen: Set[ObjectId] = set()
    for object_id in object_ids:
        if object_id in seen:
            continue
        members = _component(object_id, adjacency)
        seen.update(members)
        components.append(frozenset(members))
    return components


def _component(
    root: ObjectId, adjacency: Mapping[ObjectId, Set[ObjectId]]
) -> Set[ObjectId]:
    """The members of ``root``'s component, in the insertion order of a BFS from it."""
    members: Set[ObjectId] = {root}
    if root not in adjacency:
        return members
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour not in members:
                members.add(neighbour)
                frontier.append(neighbour)
    return members
