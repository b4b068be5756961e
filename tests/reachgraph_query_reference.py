"""Reference oracle for the bidirectional ReachGraph traversal.

The two frontier loops of BM-BFS / B-BFS exactly as they ran before ISSUE 24:
every neighbour that survives the ``seen`` and label checks is *read* — its
partition loaded, at a charged IO when the query has not touched it yet —
just to compare its interval against the midpoint.  The production
:class:`~repro.reachgraph.ReachGraphQueryProcessor` reads no neighbour for
that test: a DN_1 successor starts at ``end + 1`` of the vertex in hand, a
predecessor ends at ``start - 1``, and a forward child starts by the midpoint
exactly when its id is below the index's ``vertices_starting_by(mid)``
(vertex ids are in start order).  Kept here, out of ``src/``, as the
traversal the production one must equal: same answers, same ``visited``,
same label ledgers, and a set of partitions read that contains the
production one's.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.core.types import ObjectId, ReachabilityQuery, TimeInstant, TimeInterval
from repro.reachgraph import ReachGraphQueryProcessor
from repro.reachgraph.labels import ReachLabelIndex
from repro.reachgraph.query import _VertexCache


class ReferenceReachGraphQueryProcessor(ReachGraphQueryProcessor):
    """The production processor with the parent's two frontier loops."""

    def _bidirectional_bfs(
        self,
        query: ReachabilityQuery,
        interval: TimeInterval,
        cache: _VertexCache,
        use_long_edges: bool,
    ) -> Tuple[bool, int]:
        # The parent handed ``t2`` down to its backward loop; production no
        # longer does (a predecessor cannot start after it).
        self._t2 = interval.end
        return super()._bidirectional_bfs(query, interval, cache, use_long_edges)

    def _process_forward(
        self,
        queue: "deque[int]",
        seen: Set[int],
        own_objects: Set[ObjectId],
        other_objects: Set[ObjectId],
        cache: _VertexCache,
        mid: TimeInstant,
        starts_by_mid: int,  # unused: this loop reads each child's start
        use_long_edges: bool,
        visited: int,
        labels: Optional[ReachLabelIndex],
        target_vertex: int,
    ) -> Tuple[bool, int]:
        _, start, _, members, successors, _, long_successors = cache.get(
            queue.popleft()
        )
        visited += 1
        own_objects.update(members)
        if other_objects.intersection(members):
            return True, visited

        children: List[int] = []
        if use_long_edges:
            for resolution, targets in reversed(long_successors):
                if start + resolution <= mid:
                    children.extend(targets)
                    break
        children.extend(successors)

        for target_id in children:
            if target_id in seen:
                continue
            if labels is not None and labels.rejects(target_id, target_vertex):
                self.label_frontier_prunes += 1
                continue
            if cache.get(target_id)[1] > mid:  # [1] is ``start``
                continue
            seen.add(target_id)
            queue.append(target_id)
        return False, visited

    def _process_backward(
        self,
        queue: "deque[int]",
        seen: Set[int],
        own_objects: Set[ObjectId],
        other_objects: Set[ObjectId],
        cache: _VertexCache,
        mid: TimeInstant,
        visited: int,
        labels: Optional[ReachLabelIndex],
        source_vertex: int,
    ) -> Tuple[bool, int]:
        _, _, _, members, _, predecessors, _ = cache.get(queue.popleft())
        visited += 1
        own_objects.update(members)
        if other_objects.intersection(members):
            return True, visited

        for source_id in predecessors:
            if source_id in seen:
                continue
            if labels is not None and labels.rejects(source_vertex, source_id):
                self.label_frontier_prunes += 1
                continue
            source = cache.get(source_id)
            # [1] is ``start``, [2] is ``end``.
            if source[2] < mid or source[1] > self._t2:
                continue
            seen.add(source_id)
            queue.append(source_id)
        return False, visited
