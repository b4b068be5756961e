"""GRAIL-style interval labels over the reduced DAG, a pure function of ``DN_1``.

The :class:`ReachLabelIndex` assigns every DN vertex a label
``[low(v), rank(v)]`` where ``rank`` is a postorder DFS rank over ``DN_1``
and ``low(v)`` is the minimum rank reachable from ``v`` (including ``v``
itself).  The classic GRAIL containment property follows: if ``u`` reaches
``v`` then ``low(u) <= rank(v) <= rank(u)``.  The contrapositive is the fast
path — whenever ``rank(v)`` falls outside ``[low(u), rank(u)]`` the target is
*provably* unreachable from ``u``, with no traversal and no IO.  The test is
one-sided: a rank inside the interval proves nothing, and the exact
traversal remains the tie-breaker.

The labels are made one way only: a deterministic postorder over the
``DN_1`` successor lists — roots in id order, children in successor-list
order, lows folded in reverse id order.  Vertex creation order is a
topological order (an edge always points from a vertex that ends at
``t - 1`` to one that starts at ``t``), so a vertex with a predecessor is
always reached from a smaller root, and ``reversed(range(num_nodes))`` sees
every successor before its predecessors.  The same successor lists give the
same labels in any process, so labels are never persisted: a build labels
the DAG it built, a merge that adds a vertex or a ``DN_1`` edge relabels the
grown successor lists, and a reopen labels the successor tuples of the vertex
records it reads anyway.

Long edges are shortcuts over ``DN_1`` paths, so reachability over ``DN_1``
equals reachability over the hyper graph — the labels are computed on the
base DAG only and remain valid for pruning long-edge traversal too.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple, Union

from .dag import ContactDag

__all__ = ["ReachLabelIndex"]

#: ``successors[v]`` is the ``DN_1`` successor list of vertex ``v``, for every
#: id in ``range(len(successors))``: a list of tuples (vertex records, a
#: writer's working set) or a DAG's id-keyed ``forward`` map.
SuccessorLists = Union[Sequence[Sequence[int]], Mapping[int, Sequence[int]]]


def _postorder_labels(successors: SuccessorLists) -> Tuple[List[int], List[int]]:
    """The ``(ranks, lows)`` of the one deterministic postorder labelling."""
    num_nodes = len(successors)
    ranks = [0] * num_nodes
    visited = [False] * num_nodes
    counter = 0
    for root in range(num_nodes):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(successors[root]))]
        while stack:
            node_id, children = stack[-1]
            for child in children:
                if not visited[child]:
                    visited[child] = True
                    stack.append((child, iter(successors[child])))
                    break
            else:
                stack.pop()
                counter += 1
                ranks[node_id] = counter
    lows = list(ranks)
    for node_id in range(num_nodes - 1, -1, -1):
        low = lows[node_id]
        for child in successors[node_id]:
            if lows[child] < low:
                low = lows[child]
        lows[node_id] = low
    return ranks, lows


class ReachLabelIndex:
    """Min-postorder interval labels of the ``DN_1`` successor lists.

    :meth:`build` labels a :class:`~repro.reachgraph.dag.ContactDag`; the
    constructor labels plain successor lists (a restore hands it the vertex
    records' ``successors`` tuples, a writer its working set's);
    :meth:`relabel` labels successor lists that grew.
    """

    def __init__(self, successors: SuccessorLists) -> None:
        self._ranks, self._lows = _postorder_labels(successors)
        # Ledgers.
        self.full_relabels = 0
        self.rejections = 0

    @classmethod
    def build(cls, dag: ContactDag, dirty_ratio: object = None) -> "ReachLabelIndex":
        """Label every vertex of ``dag``.

        ``dirty_ratio`` is accepted and unused: labels are always computed
        in full, and the keyword is kept for callers that still pass it.
        """
        return cls(dag.forward)

    def relabel(self, successors: SuccessorLists) -> None:
        """Recompute every label over grown successor lists (counted in
        ``full_relabels``)."""
        self._ranks, self._lows = _postorder_labels(successors)
        self.full_relabels += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_labels(self) -> int:
        """Number of labelled vertices."""
        return len(self._ranks)

    def label(self, node_id: int) -> Tuple[int, int]:
        """The ``(low, rank)`` interval of a vertex."""
        return (self._lows[node_id], self._ranks[node_id])

    def rejects(self, source_id: int, target_id: int) -> bool:
        """True when labels *prove* ``target_id`` is unreachable from ``source_id``.

        One-sided: ``False`` means "maybe reachable" and the caller must fall
        back to exact traversal.  A ``True`` answer is always exact.
        """
        if source_id == target_id:
            return False
        rank = self._ranks[target_id]
        if rank > self._ranks[source_id] or rank < self._lows[source_id]:
            self.rejections += 1
            return True
        return False

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_consistency(self, dag: ContactDag) -> None:
        """Raise when any label violates the containment invariant.

        Verifies ``rank(child) < rank(parent)`` and
        ``low(parent) <= low(child)`` for every DN_1 edge — the two local
        conditions that make :meth:`rejects` exact.  Used by tests.
        """
        if dag.num_nodes != len(self._ranks):
            raise AssertionError("label index does not cover the DAG")
        for node_id in range(dag.num_nodes):
            if self._lows[node_id] > self._ranks[node_id]:
                raise AssertionError(f"low > rank at vertex {node_id}")
            for child in dag.successors(node_id):
                if self._ranks[child] >= self._ranks[node_id]:
                    raise AssertionError(
                        f"edge {node_id}->{child} violates rank ordering"
                    )
                if self._lows[child] < self._lows[node_id]:
                    raise AssertionError(
                        f"edge {node_id}->{child} violates low containment"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReachLabelIndex(labels={self.num_labels}, "
            f"relabels={self.full_relabels})"
        )
