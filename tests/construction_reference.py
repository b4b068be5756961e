"""Reference oracles for ReachGraph construction.

The per-window sweep and the per-root placement search exactly as the build
ran them before construction became per-window / per-vertex (ISSUE 19): each
window rescans every vertex view, each root re-walks its whole depth-``dp``
neighbourhood.  And the reduction cursor as it ran before it became
change-driven: every tick recomputes every component and extends every
persisting vertex.  Kept here, out of ``src/``, as the implementations the
production :class:`~repro.reachgraph.WindowSweep`,
:func:`~repro.reachgraph.extend_partitioning` and
:class:`~repro.reachgraph.ReductionCursor` must equal bit for bit — edge
order, member order and vertex numbering included.  Also the reduction
report's TEN edge count as it was taken before it became one subtraction per
contact: one step per contact instant inside the window.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import IndexConstructionError
from repro.core.types import ObjectId, TimeInstant, TimeInterval
from repro.reachgraph import ContactDag, ReductionFrontier
from repro.reachgraph.reduction import DagSink

NodeView = Tuple[int, TimeInstant, TimeInstant]


def window_edges(
    views: Sequence[NodeView],
    successors_of: Callable[[int], List[int]],
    ta: TimeInstant,
    tb: TimeInstant,
) -> List[Tuple[int, int]]:
    """Long edges of one window: components at ``ta`` reaching ones at ``tb``.

    A forward sweep over the vertices that intersect ``[ta, tb]`` (``views``
    must be in creation = topological order) propagates, for every vertex, the
    bitmask of window-start vertices that can reach it without leaving the
    window.  Returned pairs preserve the sweep's deterministic order; callers
    deduplicate via :meth:`LongEdgeLayer.add_edge`.
    """
    start_nodes = [node_id for node_id, start, end in views if start <= ta <= end]
    if not start_nodes:
        return []
    bit_of = {node_id: 1 << position for position, node_id in enumerate(start_nodes)}

    # Reachability masks; a start vertex reaches itself.
    masks: Dict[int, int] = dict(bit_of)
    starts: Dict[int, TimeInstant] = {node_id: start for node_id, start, _ in views}

    for node_id, start, end in views:
        if start > tb:
            break
        if end < ta:
            continue
        mask = masks.get(node_id, 0)
        if not mask:
            continue
        for successor_id in successors_of(node_id):
            # The connecting edge happens at the successor's start; it must
            # stay inside the window.  A successor beyond the captured views
            # cannot start inside the window (views cover every vertex whose
            # interval reaches past ta, and successors start after their
            # source ends).
            successor_start = starts.get(successor_id)
            if successor_start is None or successor_start > tb:
                continue
            masks[successor_id] = masks.get(successor_id, 0) | mask

    index_of = {bit_of[node_id]: node_id for node_id in start_nodes}
    edges: List[Tuple[int, int]] = []
    for node_id, start, end in views:
        if start > tb:
            break
        if not (start <= tb <= end):
            continue
        mask = masks.get(node_id, 0)
        if not mask:
            continue
        remaining = mask
        while remaining:
            lowest_bit = remaining & (-remaining)
            source_id = index_of[lowest_bit]
            if source_id != node_id:
                edges.append((source_id, node_id))
            remaining ^= lowest_bit
    return edges


def windows_edges(
    views: Sequence[NodeView],
    successors_of: Callable[[int], List[int]],
    resolution: int,
    ta: TimeInstant,
    through: TimeInstant,
) -> List[Tuple[int, int]]:
    """Every window ``[ta, ta + L]`` ending by ``through``, one rescan each."""
    edges: List[Tuple[int, int]] = []
    while ta + resolution <= through:
        edges.extend(window_edges(views, successors_of, ta, ta + resolution))
        ta += resolution
    return edges


def collect_unassigned_within_depth(
    dag: ContactDag,
    root_id: int,
    depth: int,
    partition_of: Container[int],
) -> List[int]:
    """Unassigned vertices within DN_1 distance ``depth`` of ``root_id``.

    The root itself is always included.  Already-assigned vertices are passed
    through (they do not join the partition) but do not block deeper
    unassigned vertices, mirroring the paper's "create a partition rooted at u
    if u is not already assigned" iteration.
    """
    collected: List[int] = []
    seen = {root_id}
    queue = deque([(root_id, 0)])
    while queue:
        node_id, distance = queue.popleft()
        if node_id not in partition_of:
            collected.append(node_id)
        if distance >= depth:
            continue
        for successor_id in dag.successors(node_id):
            if successor_id not in seen:
                seen.add(successor_id)
                queue.append((successor_id, distance + 1))
    return collected


def place(
    dag: ContactDag, root_ids: Iterable[int], depth: int, assigned: Set[int]
) -> List[List[int]]:
    """The placement loop over ``root_ids``: member lists of the partitions created.

    ``assigned`` holds the vertices placed before the loop resumes (empty for
    a batch build) and is updated in place.
    """
    created: List[List[int]] = []
    for root_id in sorted(root_ids):
        if root_id not in assigned:
            members = collect_unassigned_within_depth(dag, root_id, depth, assigned)
            assigned.update(members)
            created.append(members)
    return created


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
        if object_id not in adjacency:
            seen.add(object_id)
            components.append(frozenset((object_id,)))
            continue
        members: Set[ObjectId] = {object_id}
        frontier = [object_id]
        seen.add(object_id)
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency.get(current, set()):
                if neighbour not in members:
                    members.add(neighbour)
                    seen.add(neighbour)
                    frontier.append(neighbour)
        components.append(frozenset(members))
    return components


class ReductionCursor:
    """The paper's one-pass reduction, reformulated as resumable per-tick ops.

    ``advance(t, adjacency)`` consumes the snapshot graph ``G_t`` and emits
    the reduction's incremental operations into the sink: a component equal to
    a currently open vertex extends it; anything else creates a vertex and
    connects it to the previous vertices of its members.  The cursor owns all
    cross-tick state (assignments, open member sets), so it never reads the
    sink back — which is what lets the same code path drive both the batch
    build (sink = the DAG) and the pure streaming patch (sink = a recorder).
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
        self._sink = sink
        self._next_node_id = next_node_id
        self._next_tick = next_tick
        self._assignments: Dict[ObjectId, int] = dict(assignments or {})
        self._open_members: Dict[int, FrozenSet[ObjectId]] = dict(open_members or {})

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
        current: Dict[ObjectId, int] = {}
        current_open: Dict[int, FrozenSet[ObjectId]] = {}
        for members in snapshot_components(self._object_ids, adjacency):
            node_id = self._match_open_vertex(members)
            if node_id is not None:
                # The same component persisted from t-1: extend its interval.
                self._sink.extend_node(node_id, t)
            else:
                node_id = self._next_node_id
                self._next_node_id += 1
                self._sink.add_node(TimeInterval(t, t), members)
                # Edges from the previous vertices of every member (the TEN
                # holding edges collapse to component-to-component edges).
                sources: Set[int] = set()
                for member in members:
                    prev = self._assignments.get(member)
                    if prev is not None and prev != node_id:
                        sources.add(prev)
                for source in sources:
                    self._sink.add_edge(source, node_id)
            current_open[node_id] = members
            for member in members:
                current[member] = node_id
        self._assignments = current
        self._open_members = current_open
        self._next_tick = t + 1

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


def ten_edges(network, horizon: TimeInterval) -> int:
    """TEN edges of ``network`` over ``horizon``: one per object per tick
    transition, plus one per contact instant inside the window."""
    return network.dataset.num_objects * (horizon.length - 1) + sum(
        1
        for contact in network.contacts
        for _ in range(
            max(
                0,
                min(contact.validity.end, horizon.end)
                - max(contact.validity.start, horizon.start)
                + 1,
            )
        )
        if contact.validity.overlaps(horizon)
    )
