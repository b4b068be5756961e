"""ReachGraph query processing: BM-BFS, B-BFS, and E-DFS (Section 5.2).

Three traversal strategies over the same disk-resident hyper graph:

* **BM-BFS** (the paper's contribution, Algorithm 2) — bidirectional
  multi-resolution BFS.  A forward BFS from the source's component at ``t1``
  explores the first half of the query interval while a backward BFS (over the
  reverse DN_1 edges) from the destination's component at ``t2`` explores the
  second half; the traversal terminates as soon as an object appears on both
  sides.  The forward traversal takes the highest-resolution long edges that
  fit before the interval midpoint, which lets it cover the half-interval in
  far fewer vertex visits.
* **B-BFS** — the same bidirectional traversal restricted to DN_1 edges.
* **E-DFS** — the naive baseline: an external DFS from the source component
  looking for the destination component, without inspecting component members
  and without bidirectional search.

Every strategy reads vertices through the partition extents written by
:class:`~repro.reachgraph.index.ReachGraphIndex`; a retrieved partition is
kept in a per-query cache (the buffer pool underneath also keeps its blocks),
so vertices of the same partition cost no further IO.  The bidirectional
strategies read only the vertices they visit: whether a neighbour lies on the
right side of the interval midpoint is decided from its id alone (vertex ids
are in start order, so a vertex starts by the midpoint exactly when its id is
below :meth:`~repro.reachgraph.index.ReachGraphIndex.vertices_starting_by`).
Two read-side accelerations sit in front of the traversal:

* when the index carries a :class:`~repro.reachgraph.labels.ReachLabelIndex`,
  the bidirectional strategies consult it first — a label rejection proves
  the query unreachable in O(1) with no partition IO, and during traversal
  the forward frontier drops children that provably cannot reach the
  destination component while the backward frontier drops predecessors the
  source component provably cannot reach (both exact: labels only ever
  reject provable negatives, so answers are bit-identical to pure
  traversal);
* an optional cross-query :class:`PartitionCache` — a shared LRU owned by
  the serving layer — short-circuits partition reads that an earlier query
  on the same graph already paid for.  A merge or a repack discards only the
  partitions it rewrote or retired (the rest still hold their extents'
  records); only attaching another graph empties it.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import QueryError, UnknownObjectError
from ..core.types import ObjectId, QueryResult, ReachabilityQuery, TimeInstant, TimeInterval
from .index import ReachGraphIndex, VertexRow
from .labels import ReachLabelIndex

__all__ = ["PartitionCache", "ReachGraphQueryProcessor", "STRATEGIES"]

#: The traversal strategies understood by :meth:`ReachGraphQueryProcessor.evaluate`.
STRATEGIES = ("bm-bfs", "b-bfs", "e-dfs", "e-bfs")


class PartitionCache:
    """A cross-query LRU of partition records, shared by every query path.

    Owned by the serving layer (one per delta overlay) and handed to every
    :class:`ReachGraphQueryProcessor` it creates, so every query against
    the same graph shares one cache.
    :meth:`discard` drops the partitions a mutation rewrote (merge adoption)
    or retired (frontier repack) and bumps :attr:`generation`; the rest stay,
    since an extent no mutation rewrote holds the same records.
    :meth:`invalidate` empties it when the graph is replaced (a reopen).
    Lookups are not keyed by generation: queries and adoption run on the
    same owning thread, so none spans an invalidation; the counter is the
    witness that one happened.  Entries are the record sequences
    :meth:`ReachGraphIndex.read_partition` returned, shared read-only: a
    block of one decodes when a query first indexes a record in it, and stays
    decoded for every later query that hits the entry.
    Single-threaded, like its owner: no lock guards it.  A capacity of ``0``
    disables caching (every lookup misses).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[int, Sequence[VertexRow]]" = OrderedDict()
        self._generation = 1
        self.hits = 0
        self.misses = 0

    @property
    def generation(self) -> int:
        """The current cache generation (bumped by :meth:`invalidate` and
        :meth:`discard`)."""
        return self._generation

    def lookup(self, partition_id: int) -> Optional[Sequence[VertexRow]]:
        """The cached records of a partition (shared: read-only), or ``None``."""
        records = self._entries.get(partition_id)
        if records is None:
            self.misses += 1
            return None
        self._entries.move_to_end(partition_id)
        self.hits += 1
        return records

    def insert(self, partition_id: int, records: Sequence[VertexRow]) -> None:
        """Remember a partition's records, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        self._entries[partition_id] = records
        self._entries.move_to_end(partition_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry and bump the generation (graph replaced)."""
        self._entries.clear()
        self._generation += 1

    def discard(self, partition_ids: Iterable[int]) -> None:
        """Drop the entries of partitions a mutation rewrote or retired and
        bump the generation; every other entry still holds its extent's
        records."""
        for partition_id in partition_ids:
            self._entries.pop(partition_id, None)
        self._generation += 1

    def __len__(self) -> int:
        return len(self._entries)


class _VertexCache:
    """Per-query view of the partitions a traversal has touched.

    A vertex is addressed as ``records[slot]`` of its partition
    (:meth:`ReachGraphIndex.locate`), so loading a partition — from the
    shared :class:`PartitionCache` when one is attached and holds it, from
    disk otherwise (then published back so later queries skip the IO) —
    costs nothing per record, and decodes no block, the traversal never asks
    for.
    """

    def __init__(
        self, index: ReachGraphIndex, shared: Optional[PartitionCache] = None
    ) -> None:
        self._index = index
        self._shared = shared
        self._partitions: Dict[int, Sequence[VertexRow]] = {}

    def get(self, node_id: int) -> VertexRow:
        partition_id, slot = self._index.locate(node_id)
        records = self._partitions.get(partition_id)
        if records is None:
            records = self._load(partition_id)
        return records[slot]

    def _load(self, partition_id: int) -> Sequence[VertexRow]:
        shared = self._shared
        records = shared.lookup(partition_id) if shared is not None else None
        if records is None:
            records = self._index.read_partition(partition_id)
            if shared is not None:
                shared.insert(partition_id, records)
        self._partitions[partition_id] = records
        return records


class ReachGraphQueryProcessor:
    """Evaluates reachability queries against a built :class:`ReachGraphIndex`."""

    def __init__(
        self,
        index: ReachGraphIndex,
        partition_cache: Optional[PartitionCache] = None,
        use_labels: bool = True,
    ) -> None:
        if not index.is_built:
            raise QueryError("ReachGraph index must be built before querying")
        self.index = index
        #: Shared cross-query cache (attached by the serving layer), or None.
        self.partition_cache = partition_cache
        #: Consult interval labels when the index carries them.  Exposed as a
        #: toggle so experiments can measure traversal-only cost on the same
        #: index without rebuilding it label-free.
        self.use_labels = use_labels
        #: Queries answered unreachable by the O(1) label check alone.
        self.label_rejections = 0
        #: Frontier expansions skipped because labels proved them useless.
        self.label_frontier_prunes = 0

    def _labels(self) -> Optional[ReachLabelIndex]:
        return self.index.labels if self.use_labels else None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, query: ReachabilityQuery, strategy: str = "bm-bfs"
    ) -> QueryResult:
        """Evaluate one reachability query with the chosen traversal strategy."""
        if strategy not in STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        domain = self.index.domain
        assert domain is not None, "a built index has a domain"
        if query.source not in domain:
            raise UnknownObjectError(query.source)
        if query.destination not in domain:
            raise UnknownObjectError(query.destination)
        interval = query.interval.intersection(domain.horizon)
        if interval is None:
            raise QueryError(
                f"query interval {query.interval} does not overlap the horizon "
                f"{domain.horizon}"
            )

        storage = self.index.storage
        storage.reset_for_query()
        io_before = storage.snapshot()
        cpu_started = time.process_time()
        cache = _VertexCache(self.index, shared=self.partition_cache)

        if query.source == query.destination:
            reachable, visited = True, 0
        elif strategy in ("bm-bfs", "b-bfs"):
            reachable, visited = self._bidirectional_bfs(
                query, interval, cache, use_long_edges=(strategy == "bm-bfs")
            )
        elif strategy == "e-bfs":
            reachable, visited = self._external_search(
                query, interval, cache, depth_first=False
            )
        else:  # e-dfs
            reachable, visited = self._external_search(
                query, interval, cache, depth_first=True
            )

        delta = storage.charge_since(io_before)
        return QueryResult(
            reachable=reachable,
            earliest_time=None,
            io=delta.normalized(storage.config.sequential_cost),
            random_ios=delta.random_reads,
            sequential_ios=delta.sequential_reads,
            cpu_seconds=time.process_time() - cpu_started,
            visited=visited,
        )

    # ------------------------------------------------------------------
    # BM-BFS / B-BFS (Algorithm 2)
    # ------------------------------------------------------------------
    def _bidirectional_bfs(
        self,
        query: ReachabilityQuery,
        interval: TimeInterval,
        cache: _VertexCache,
        use_long_edges: bool,
    ) -> Tuple[bool, int]:
        mid = interval.midpoint
        # Ids below this bound are exactly the vertices starting by ``mid``.
        starts_by_mid = self.index.vertices_starting_by(mid)
        v1 = self.index.find_vertex_id(query.source, interval.start)
        v2 = self.index.find_vertex_id(query.destination, interval.end)

        labels = self._labels()
        if labels is not None and labels.rejects(v1, v2):
            # The query is reachable iff the DAG reaches v2 from v1 (a
            # temporal handoff path visits a chain of components connected
            # by DN_1 edges); a label rejection proves there is no such
            # path, so the negative needs no partition IO at all.
            self.label_rejections += 1
            return False, 0

        objects_forward: Set[ObjectId] = set(cache.get(v1)[3])
        objects_backward: Set[ObjectId] = set(cache.get(v2)[3])
        visited = 2
        if objects_forward & objects_backward:
            return True, visited

        queue_forward: deque[int] = deque([v1])
        queue_backward: deque[int] = deque([v2])
        seen_forward: Set[int] = {v1}
        seen_backward: Set[int] = {v2}

        while queue_forward or queue_backward:
            if queue_forward:
                found, visited = self._process_forward(
                    queue_forward,
                    seen_forward,
                    objects_forward,
                    objects_backward,
                    cache,
                    mid,
                    starts_by_mid,
                    use_long_edges,
                    visited,
                    labels,
                    v2,
                )
                if found:
                    return True, visited
            if queue_backward:
                found, visited = self._process_backward(
                    queue_backward,
                    seen_backward,
                    objects_backward,
                    objects_forward,
                    cache,
                    mid,
                    visited,
                    labels,
                    v1,
                )
                if found:
                    return True, visited
        return False, visited

    def _process_forward(
        self,
        queue: "deque[int]",
        seen: Set[int],
        own_objects: Set[ObjectId],
        other_objects: Set[ObjectId],
        cache: _VertexCache,
        mid: TimeInstant,
        starts_by_mid: int,
        use_long_edges: bool,
        visited: int,
        labels: Optional[ReachLabelIndex],
        target_vertex: int,
    ) -> Tuple[bool, int]:
        # One positional unpack per visit (records are plain tuples in
        # ``VertexRecord`` field order); this is the traversal hot path.
        _, start, _, members, successors, _, long_successors = cache.get(
            queue.popleft()
        )
        visited += 1
        own_objects.update(members)
        if other_objects.intersection(members):
            return True, visited

        children: List[int] = []
        if use_long_edges:
            # Highest-resolution long edges whose window fits before the
            # interval midpoint are taken first; they let the traversal leap
            # over long stretches of the first half-interval.  The record
            # stores its (non-empty) groups ascending by resolution.
            for resolution, targets in reversed(long_successors):
                if start + resolution <= mid:
                    children.extend(targets)
                    break
        children.extend(successors)

        for target_id in children:
            if target_id in seen:
                continue
            # Every vertex of a v1→v2 path reaches v2, so a child the labels
            # prove cannot reach the destination component contributes
            # nothing: skip it before paying its partition read.
            if labels is not None and labels.rejects(target_id, target_vertex):
                self.label_frontier_prunes += 1
                continue
            # A long edge lands anywhere inside its window and a DN_1
            # successor starts at ``end + 1``; either way the child starts
            # past the midpoint exactly when its id is past the bound, so
            # the test reads no partition.
            if target_id >= starts_by_mid:
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
        _, start, _, members, _, predecessors, _ = cache.get(queue.popleft())
        visited += 1
        own_objects.update(members)
        if other_objects.intersection(members):
            return True, visited

        # The backward traversal covers components that can still pass the
        # item onwards during the second half of the query interval.  Every
        # DN_1 predecessor ends at ``start - 1`` (and so starts before ``t2``,
        # as this vertex does): no read decides whether it qualifies.
        predecessors_fit = start > mid
        for source_id in predecessors:
            if source_id in seen:
                continue
            # Mirror of the forward prune: every vertex of a v1→v2 path is
            # reachable from v1, so a predecessor the labels prove v1 cannot
            # reach is useless to the backward half.
            if labels is not None and labels.rejects(source_vertex, source_id):
                self.label_frontier_prunes += 1
                continue
            if not predecessors_fit:
                continue
            seen.add(source_id)
            queue.append(source_id)
        return False, visited

    # ------------------------------------------------------------------
    # E-DFS / E-BFS baselines
    # ------------------------------------------------------------------
    def _external_search(
        self,
        query: ReachabilityQuery,
        interval: TimeInterval,
        cache: _VertexCache,
        depth_first: bool,
    ) -> Tuple[bool, int]:
        t1, t2 = interval.start, interval.end
        v1 = self.index.find_vertex_id(query.source, t1)
        v2 = self.index.find_vertex_id(query.destination, t2)
        if v1 == v2:
            return True, 1

        frontier: deque[int] = deque([v1])
        seen: Set[int] = {v1}
        visited = 0
        while frontier:
            node_id = frontier.pop() if depth_first else frontier.popleft()
            successors = cache.get(node_id)[4]
            visited += 1
            if node_id == v2:
                return True, visited
            for target_id in successors:
                if target_id in seen:
                    continue
                if cache.get(target_id)[1] > t2:
                    continue
                seen.add(target_id)
                frontier.append(target_id)
        return False, visited
