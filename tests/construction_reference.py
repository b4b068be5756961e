"""Reference oracles for ReachGraph construction.

The per-window sweep and the per-root placement search exactly as the build
ran them before construction became per-window / per-vertex (ISSUE 19): each
window rescans every vertex view, each root re-walks its whole depth-``dp``
neighbourhood.  Kept here, out of ``src/``, as the implementations the
production :class:`~repro.reachgraph.WindowSweep` and
:func:`~repro.reachgraph.extend_partitioning` must equal bit for bit — edge
order and member order included.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Container, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.types import TimeInstant
from repro.reachgraph import ContactDag

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
