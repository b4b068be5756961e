"""GRAIL: randomized interval labelling for graph reachability (Yildirim et al.).

GRAIL is the state-of-the-art memory-resident reachability index the paper
compares against (Section 6.4, Table 5).  Each vertex receives ``d`` interval
labels; label ``i`` of vertex ``v`` is ``[low_i(v), rank_i(v)]`` where
``rank_i`` is the post-order rank of a randomized DFS and ``low_i`` is the
minimum rank in ``v``'s subtree.  ``u`` can reach ``v`` only if every label of
``v`` is contained in the corresponding label of ``u``; queries run a DFS that
prunes with this containment test.

Two query modes are provided, matching the two halves of Table 5:

* **memory-resident** — the labels and adjacency live in memory; queries
  report pure CPU time.
* **disk-resident** — vertex records (labels + successors) are packed onto
  disk blocks *in creation order*, exactly the layout the paper assumes for
  GRAIL ("the vertices are placed on disk in the same order they are
  generated"), and queries are charged the block reads of the pruned DFS.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..core.config import GrailConfig, StorageConfig
from ..core.errors import IndexConstructionError, IndexNotBuiltError, QueryError
from ..core.types import QueryResult, ReachabilityQuery
from ..reachgraph.dag import ContactDag
from ..storage import StorageSystem

__all__ = ["GrailIndex"]

#: One GRAIL interval: (low, rank), both inclusive post-order ranks.
Label = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class _GrailVertexRecord:
    """On-disk record of one DN vertex for the disk-resident GRAIL variant."""

    node_id: int
    start: int
    end: int
    labels: Tuple[Label, ...]
    successors: Tuple[int, ...]


class GrailIndex:
    """GRAIL interval labelling over a reduced contact DAG ``DN``."""

    def __init__(
        self,
        dag: ContactDag,
        config: GrailConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> None:
        self.dag = dag
        self.config = config or GrailConfig()
        self.storage = StorageSystem(storage_config, name="grail", attach=False)
        self._vertex_file = self.storage.new_blockfile("grail-vertices")
        self._labels: List[Tuple[Label, ...]] = []
        self._records_per_extent = self.storage.config.block_size
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "GrailIndex":
        """Compute the ``d`` randomized labelings and lay vertices out on disk."""
        if self._built:
            raise IndexConstructionError("GRAIL index already built")
        rng = random.Random(self.config.seed)
        per_vertex: List[List[Label]] = [[] for _ in range(self.dag.num_nodes)]
        for _ in range(self.config.num_labelings):
            lows, ranks = self._random_labeling(rng)
            for node_id in range(self.dag.num_nodes):
                per_vertex[node_id].append((lows[node_id], ranks[node_id]))
        self._labels = [tuple(labels) for labels in per_vertex]

        # Disk layout: vertices in creation (topological) order, packed into
        # fixed-size chunks, one extent per chunk.
        chunk: List[_GrailVertexRecord] = []
        chunk_index = 0
        for node_id in self.dag.topological_order():
            node = self.dag.node(node_id)
            chunk.append(
                _GrailVertexRecord(
                    node_id=node_id,
                    start=node.interval.start,
                    end=node.interval.end,
                    labels=self._labels[node_id],
                    successors=tuple(self.dag.successors(node_id)),
                )
            )
            if len(chunk) == self._records_per_extent:
                self._vertex_file.append_extent(chunk_index, chunk)
                chunk_index += 1
                chunk = []
        if chunk:
            self._vertex_file.append_extent(chunk_index, chunk)
        self._built = True
        return self

    def _random_labeling(self, rng: random.Random) -> Tuple[List[int], List[int]]:
        """One randomized post-order labeling of the DAG.

        The post-order rank is produced by a DFS from the roots with children
        visited in random order; ``low`` values are then folded bottom-up
        (children precede parents in reverse topological order, so a single
        reverse sweep suffices).
        """
        num_nodes = self.dag.num_nodes
        ranks = [0] * num_nodes
        visited = [False] * num_nodes
        counter = 0

        roots = [
            node_id
            for node_id in self.dag.topological_order()
            if not self.dag.predecessors(node_id)
        ]
        rng.shuffle(roots)
        for root in roots:
            if visited[root]:
                continue
            # Iterative post-order DFS with randomized child order.
            stack: List[Tuple[int, int]] = [(root, 0)]
            children_cache: Dict[int, List[int]] = {}
            visited[root] = True
            while stack:
                node_id, child_index = stack[-1]
                if node_id not in children_cache:
                    children = list(self.dag.successors(node_id))
                    rng.shuffle(children)
                    children_cache[node_id] = children
                children = children_cache[node_id]
                if child_index < len(children):
                    stack[-1] = (node_id, child_index + 1)
                    child = children[child_index]
                    if not visited[child]:
                        visited[child] = True
                        stack.append((child, 0))
                else:
                    counter += 1
                    ranks[node_id] = counter
                    stack.pop()

        lows = list(ranks)
        for node_id in reversed(self.dag.topological_order()):
            for child in self.dag.successors(node_id):
                if lows[child] < lows[node_id]:
                    lows[node_id] = lows[child]
        return lows, ranks

    # ------------------------------------------------------------------
    # label containment
    # ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("GrailIndex.build() has not been called")

    def labels_of(self, node_id: int) -> Tuple[Label, ...]:
        """The ``d`` interval labels of a vertex."""
        self._require_built()
        return self._labels[node_id]

    @staticmethod
    def _contains(outer: Sequence[Label], inner: Sequence[Label]) -> bool:
        """True when every ``inner`` interval is contained in ``outer``'s."""
        for (outer_low, outer_rank), (inner_low, inner_rank) in zip(outer, inner):
            if inner_low < outer_low or inner_rank > outer_rank:
                return False
        return True

    # ------------------------------------------------------------------
    # memory-resident query (Table 5a)
    # ------------------------------------------------------------------
    def evaluate_memory(self, query: ReachabilityQuery) -> QueryResult:
        """Evaluate a query entirely in memory; only CPU time is reported."""
        self._require_built()
        interval = query.interval.intersection(self.dag.horizon)
        if interval is None:
            raise QueryError("query interval does not overlap the indexed horizon")
        cpu_started = time.process_time()
        source_vertex = self.dag.node_of(query.source, interval.start)
        target_vertex = self.dag.node_of(query.destination, interval.end)
        visited_counter = [0]
        reachable = self._dfs_memory(source_vertex, target_vertex, set(), visited_counter)
        return QueryResult(
            reachable=reachable,
            cpu_seconds=time.process_time() - cpu_started,
            visited=visited_counter[0],
        )

    def _dfs_memory(
        self, current: int, target: int, seen: Set[int], visited_counter: List[int]
    ) -> bool:
        if current == target:
            return True
        seen.add(current)
        visited_counter[0] += 1
        target_labels = self._labels[target]
        for child in self.dag.successors(current):
            if child in seen:
                continue
            if not self._contains(self._labels[child], target_labels):
                continue
            if self._dfs_memory(child, target, seen, visited_counter):
                return True
        return False

    # ------------------------------------------------------------------
    # disk-resident query (Table 5b)
    # ------------------------------------------------------------------
    def evaluate_disk(self, query: ReachabilityQuery) -> QueryResult:
        """Evaluate a query reading vertex records from the simulated disk."""
        self._require_built()
        interval = query.interval.intersection(self.dag.horizon)
        if interval is None:
            raise QueryError("query interval does not overlap the indexed horizon")
        storage = self.storage
        storage.reset_for_query()
        io_before = storage.snapshot()
        cpu_started = time.process_time()

        source_vertex = self.dag.node_of(query.source, interval.start)
        target_vertex = self.dag.node_of(query.destination, interval.end)
        target_labels = self._labels[target_vertex]

        # Extents hold a fixed number of vertices in id order, so a vertex is
        # addressed inside its extent; nothing is done per record read.
        per_extent = self._records_per_extent
        extents: Dict[int, Sequence[_GrailVertexRecord]] = {}

        def fetch(node_id: int) -> _GrailVertexRecord:
            extent_key, slot = divmod(node_id, per_extent)
            records = extents.get(extent_key)
            if records is None:
                records = extents[extent_key] = self._vertex_file.read_extent(extent_key)
            return records[slot]

        visited = 0
        stack = [source_vertex]
        seen = {source_vertex}
        reachable = False
        while stack:
            node_id = stack.pop()
            record = fetch(node_id)
            visited += 1
            if node_id == target_vertex:
                reachable = True
                break
            for child in record.successors:
                if child in seen:
                    continue
                child_record = fetch(child)
                if not self._contains(child_record.labels, target_labels):
                    continue
                seen.add(child)
                stack.append(child)

        delta = storage.charge_since(io_before)
        return QueryResult(
            reachable=reachable,
            io=delta.normalized(storage.config.sequential_cost),
            random_ios=delta.random_reads,
            sequential_ios=delta.sequential_reads,
            cpu_seconds=time.process_time() - cpu_started,
            visited=visited,
        )
