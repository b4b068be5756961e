"""Reference interval labelling: the postorder the labels were first made by.

Before the labels became a pure function of the successor lists they were
also persisted in the graph catalog, as the ``"labels"`` entry this module
reproduces.  :func:`reference_labels` is that labelling as it was written —
roots are the vertices without predecessors, in id order; children in
successor order; lows folded in reverse id order — so a test can hold
:class:`~repro.reachgraph.ReachLabelIndex` to the labels an older writer
catalogued, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.reachgraph import ContactDag


def reference_labels(dag: ContactDag) -> Tuple[List[int], List[int]]:
    """``(ranks, lows)`` of the deterministic postorder over ``dag``'s DN_1."""
    num_nodes = dag.num_nodes
    ranks = [0] * num_nodes
    visited = [False] * num_nodes
    counter = 0
    for root in range(num_nodes):
        if visited[root] or dag.predecessors(root):
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        visited[root] = True
        while stack:
            node_id, child_index = stack[-1]
            successors = dag.successors(node_id)
            if child_index < len(successors):
                stack[-1] = (node_id, child_index + 1)
                child = successors[child_index]
                if not visited[child]:
                    visited[child] = True
                    stack.append((child, 0))
            else:
                stack.pop()
                counter += 1
                ranks[node_id] = counter
    assert all(visited), "every vertex of a DAG is reachable from a root"
    lows = list(ranks)
    for node_id in range(num_nodes - 1, -1, -1):
        for child in dag.successors(node_id):
            lows[node_id] = min(lows[node_id], lows[child])
    return ranks, lows


def legacy_catalog_entry(dag: ContactDag) -> Dict[str, object]:
    """The ``"labels"`` entry an older writer put in the graph catalog.

    Less its two per-patch ledger counters; a reader today looks only at
    whether the entry is there.
    """
    ranks, lows = reference_labels(dag)
    return {
        "ranks": ranks,
        "lows": lows,
        "next_new_rank": 0,
        "dirty_ratio": 0.25,
        "full_relabels": 0,
    }
