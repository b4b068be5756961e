"""Disk placement of the ReachGraph hyper graph.

Section 5.1.3 partitions ``HN`` for disk placement: vertices are visited in
topological order (which is creation order here); each unassigned vertex
roots a new partition containing every unassigned vertex within DN_1 distance
``dp`` of it.  Long edges are ignored while partitioning so that each
partition preserves temporal locality.  Partitions are written to disk in the
order they are generated, each as one contiguous extent.

The batch build and every streaming increment place vertices through one
loop, :func:`extend_partitioning` (a batch build is the increment that starts
from nothing), and its cost is per *vertex*, not per root: roots share a
*cleared radius* per vertex — the largest remaining depth with which an
earlier root already expanded it — and a root that reaches a vertex with no
more depth left than that does not expand it again, because everything that
close behind it has been collected before and is therefore assigned.  A vertex
is re-expanded only by a root that reaches strictly farther past it than any
before, so the depth-``dp`` searches of neighbouring roots no longer re-walk
one another's neighbourhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from typing import Dict, List, Mapping, Sequence, Union

from ..core.errors import IndexConstructionError
from .dag import HyperGraph

__all__ = ["Partitioning", "extend_partitioning", "partition_hypergraph"]


@dataclass(frozen=True, slots=True)
class Partitioning:
    """The result of partitioning: per-vertex partition ids and member lists.

    Attributes
    ----------
    partition_of:
        ``partition_of[node_id]`` is the partition holding that vertex.
    slot_of:
        ``slot_of[node_id]`` is the vertex's position inside that partition:
        ``members[partition_of[v]][slot_of[v]] == v`` for every vertex.
    members:
        ``members[p]`` lists the vertex ids of partition ``p`` in the order
        they should be written inside the extent.  An empty list is a
        *tombstone*: a partition retired by a frontier repack whose vertices
        moved into a packed partition — the id stays reserved so later ids
        never shift.
    depth:
        The partition depth ``dp`` used.
    """

    partition_of: Dict[int, int]
    slot_of: Dict[int, int]
    members: List[List[int]]
    depth: int

    def add_partition(self, member_ids: List[int]) -> int:
        """Append a partition holding ``member_ids`` in extent order; returns its id.

        The one place a vertex's ``(partition, slot)`` is assigned, so the
        directory cannot drift from the member lists.  A vertex placed before
        moves here (a frontier repack folding its old partition); the member
        order of an existing partition never changes.
        """
        partition_id = len(self.members)
        self.partition_of.update(zip(member_ids, repeat(partition_id)))
        self.slot_of.update(zip(member_ids, count()))
        self.members.append(member_ids)
        return partition_id

    @property
    def num_partitions(self) -> int:
        """Number of live (non-tombstone) partitions."""
        return sum(1 for member_list in self.members if member_list)

    def partition_sizes(self) -> List[int]:
        """Vertex count of every live partition."""
        return [len(member_list) for member_list in self.members if member_list]

    def average_partition_size(self) -> float:
        """Mean number of vertices per live partition."""
        sizes = self.partition_sizes()
        if not sizes:
            return 0.0
        return sum(sizes) / len(sizes)


def partition_hypergraph(graph: HyperGraph, depth: int) -> Partitioning:
    """Partition the hyper graph with the paper's depth-``dp`` scheme."""
    partitioning = Partitioning(partition_of={}, slot_of={}, members=[], depth=depth)
    extend_partitioning(partitioning, graph.dag.forward, graph.dag.topological_order(), depth)
    return partitioning


def extend_partitioning(
    partitioning: Partitioning,
    successors: Union[Mapping[int, Sequence[int]], Sequence[Sequence[int]]],
    new_node_ids: Sequence[int],
    depth: int,
) -> List[int]:
    """Assign freshly appended vertices to partitions, in place.

    ``successors[v]`` is the ``DN_1`` successor list of vertex ``v`` (a
    DAG's ``forward`` map, or a writer's per-vertex tuples).

    The paper's partitioning loop, resumed: every *unassigned* vertex visited
    in topological (= id) order roots a new partition collecting the
    unassigned vertices within DN_1 distance ``depth`` of it.  Vertices
    already assigned stay exactly where they are — their extents on disk are
    immutable except for record rewrites — so only new vertices join (new)
    partitions.  Returns the ids of the partitions created, in creation
    order; the partitioning is updated in place.
    """
    if depth != partitioning.depth:
        raise IndexConstructionError(
            f"cannot extend a depth-{partitioning.depth} partitioning "
            f"with depth {depth}"
        )
    created: List[int] = []
    # Cleared radii are only valid while the DAG stands still: appended ticks
    # put unassigned vertices behind old ones, so every call starts afresh.
    cleared: Dict[int, int] = {}
    for root_id in sorted(new_node_ids):
        if root_id not in partitioning.partition_of:
            created.append(
                partitioning.add_partition(
                    _collect_unassigned_within_depth(
                        successors, root_id, depth, partitioning.partition_of, cleared
                    )
                )
            )
    return created


def _collect_unassigned_within_depth(
    forward: Union[Mapping[int, Sequence[int]], Sequence[Sequence[int]]],
    root_id: int,
    depth: int,
    partition_of: Mapping[int, int],
    cleared: Dict[int, int],
) -> List[int]:
    """Unassigned vertices within DN_1 distance ``depth`` of ``root_id``.

    A breadth-first search, level by level, in first-in-first-out order.  The
    root itself is always included.  Already-assigned vertices are passed
    through (they do not join the partition) but do not block deeper
    unassigned vertices, mirroring the paper's "create a partition rooted at u
    if u is not already assigned" iteration.

    ``cleared[v]`` is the largest remaining depth with which a root has
    expanded ``v``; once that root has been placed, every vertex within that
    distance of ``v`` is assigned.  A vertex reached with no more depth than
    its cleared radius is therefore not expanded.  The result is the one the
    unpruned search returns, order included: an unassigned vertex in range
    cannot lie within the cleared radius of a vertex on a shortest path to it,
    so every such path is walked at its true level, and the vertices that
    discover the collected ones keep their relative order.
    """
    collected: List[int] = []
    seen = {root_id}
    level = [root_id]
    remaining = depth
    while level:
        next_level: List[int] = []
        for node_id in level:
            if node_id not in partition_of:
                collected.append(node_id)
            if remaining > cleared.get(node_id, 0):
                cleared[node_id] = remaining
                for successor_id in forward[node_id]:
                    if successor_id not in seen:
                        seen.add(successor_id)
                        next_level.append(successor_id)
        level = next_level
        remaining -= 1
    return collected
