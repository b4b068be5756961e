"""The resident-DAG writer: an oracle for the writer's working set.

Before the working set, a writer kept the whole ``ContactDag`` and every
``LongEdgeLayer`` in memory and made each record it wrote from them; a
resumed writer first materialised that graph from every extent (deriving
predecessor lists in source-id order).  :class:`ResidentDagIndex` is that
writer, kept here verbatim but for the renamed helpers it calls and the
directory chunk each of its writes appends through the library's packer
(the same chunk, at the same point, as the library's writer), so tests can
drive a service with it beside one running the library's writer and pin
that both leave the same bytes: the same extent records and block ids, the
same object-index buckets, catalog and labels, at every merge.

Install it for one service's calls with :func:`resident_dag_writer`: the
streaming overlay creates and restores its index through
``repro.reachgraph.ReachGraphIndex``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Set, Tuple

import repro.reachgraph as reachgraph_package
from repro.core import IndexConstructionError, TimeInterval
from repro.reachgraph import ContactDag, HyperGraph, LongEdgeLayer, ReachGraphIndex
from repro.reachgraph.index import (
    GraphDomain,
    GraphFrontier,
    GraphIncrementReport,
    _pack_chunk,
    _pack_segments,
)
from repro.reachgraph.labels import ReachLabelIndex
from repro.reachgraph.partition import Partitioning, extend_partitioning
from repro.reachgraph.reduction import ReductionFrontier
from repro.testing.faults import crash_point


@contextlib.contextmanager
def resident_dag_writer(monkeypatch) -> Iterator[None]:
    """Within the block, services create and restore :class:`ResidentDagIndex`."""
    with monkeypatch.context() as patched:
        patched.setattr(reachgraph_package, "ReachGraphIndex", ResidentDagIndex)
        yield


class ResidentDagIndex(ReachGraphIndex):
    """A ReachGraph writer holding the whole graph in memory."""

    @classmethod
    def restore(cls, storage, catalog, horizon, repack_min_partitions=None):
        # The serving state only; the graph materialises on first write.
        return super().restore(storage, catalog, horizon)

    def _materialize_graph(self) -> HyperGraph:
        assert self.domain is not None
        records = self._read_graph_records()
        dag = ContactDag(self.domain.horizon, len(self.domain.object_ids))
        for _, start, end, members, _, _, _ in records:
            dag.add_node(TimeInterval(start, end), frozenset(members))
        layers = {
            resolution: LongEdgeLayer(resolution)
            for resolution in self.config.sorted_resolutions
        }
        for node_id, _, _, _, successors, _, long_successors in records:
            for successor_id in successors:
                dag.add_edge(node_id, successor_id)
            for resolution, targets in long_successors:
                for target_id in targets:
                    layers[resolution].add_edge(node_id, target_id)
        return HyperGraph(dag, list(layers.values()))

    def frontier(self) -> GraphFrontier:
        assert self.domain is not None
        dag = self.dag
        horizon = dag.horizon
        object_ids = self.domain.object_ids

        assignments: List[Tuple[int, int]] = []
        open_ids: List[int] = []
        open_seen: Set[int] = set()
        for object_id in object_ids:
            node_id = dag.node_of(object_id, horizon.end)
            assignments.append((object_id, node_id))
            if node_id not in open_seen:
                open_seen.add(node_id)
                open_ids.append(node_id)
        open_members = tuple(
            (node_id, tuple(sorted(dag.node(node_id).members)))
            for node_id in sorted(open_ids)
        )
        reduction = ReductionFrontier(
            start=horizon.start,
            end=horizon.end,
            num_nodes=dag.num_nodes,
            object_ids=object_ids,
            assignments=tuple(assignments),
            open_members=open_members,
        )
        floor = (
            min(self._window_cursors.values())
            if self._window_cursors
            else horizon.end + 1
        )
        recent_nodes = tuple(
            (node.node_id, node.interval.start, node.interval.end)
            for node in dag.nodes
            if node.interval.end >= floor
        )
        recent_edges = tuple(
            (node_id, tuple(dag.successors(node_id)))
            for node_id, _, _ in recent_nodes
            if dag.successors(node_id)
        )
        return GraphFrontier(
            reduction=reduction,
            window_cursors=tuple(sorted(self._window_cursors.items())),
            recent_nodes=recent_nodes,
            recent_edges=recent_edges,
        )

    def _start_graph(self, patch) -> None:
        object_ids = {member for _, _, _, members in patch.new_nodes for member in members}
        horizon = TimeInterval(patch.base_end + 1, patch.new_end)
        self.domain = GraphDomain(object_ids, horizon)
        self._hypergraph = HyperGraph(
            ContactDag(horizon, len(object_ids)),
            [LongEdgeLayer(resolution) for resolution in self.config.sorted_resolutions],
        )
        self._adopt_partitioning(
            Partitioning(
                partition_of={}, slot_of={}, members=[], depth=self.config.partition_depth
            )
        )

    def apply_increment(self, patch) -> GraphIncrementReport:
        first = not self._built
        if first:
            if patch.base_nodes:
                raise IndexConstructionError("stale patch: the index is empty")
            self._start_graph(patch)
        hypergraph = self.hypergraph
        dag = hypergraph.dag
        assert self.partitioning is not None and self.domain is not None
        started = time.perf_counter()
        if not first and (
            dag.num_nodes != patch.base_nodes or dag.horizon.end != patch.base_end
        ):
            raise IndexConstructionError("stale patch")
        dirty: Set[int] = set()

        for node_id, new_end in patch.extensions:
            dag.extend_node(node_id, new_end)
            dirty.add(node_id)
        for node_id, start, end, members in patch.new_nodes:
            node = dag.add_node(TimeInterval(start, end), frozenset(members))
            assert node.node_id == node_id
        self._vertex_starts.extend([start for _, start, _, _ in patch.new_nodes])
        joined: List[Tuple[int, int]] = []
        for source_id, target_id in patch.new_edges:
            if target_id not in dag.successors(source_id):
                joined.append((source_id, target_id))
            dag.add_edge(source_id, target_id)
            if source_id < patch.base_nodes:
                dirty.add(source_id)
        dag.horizon = TimeInterval(dag.horizon.start, patch.new_end)

        new_long_edges = 0
        for resolution, edges in patch.new_long_edges:
            layer = hypergraph.layer(resolution)
            for source_id, target_id in edges:
                layer.add_edge(source_id, target_id)
                new_long_edges += 1
                if source_id < patch.base_nodes:
                    dirty.add(source_id)
        self._window_cursors.update(dict(patch.window_cursors))

        if first:
            if self.config.interval_labels:
                self._labels = ReachLabelIndex.build(dag)
        elif self._labels is not None and (patch.new_nodes or patch.new_edges):
            self._labels.relabel(dag.forward)

        new_node_ids = [node_id for node_id, _, _, _ in patch.new_nodes]
        new_partition_ids = extend_partitioning(
            self.partitioning, dag.forward, new_node_ids, self.config.partition_depth
        )
        records_written = 0
        for partition_id in new_partition_ids:
            records = self._make_records(self.partitioning.members[partition_id])
            self._partitions_file.append_extent(partition_id, records)
            records_written += len(records)

        dirty_partitions = sorted({self._partition_of_vertex[node_id] for node_id in dirty})
        for partition_id in dirty_partitions:
            records = self._make_records(self.partitioning.members[partition_id])
            self._partitions_file.replace_extent(partition_id, records)
            records_written += len(records)
        self._append_chunk(
            _pack_chunk(
                patch.base_nodes,
                [start for _, start, _, _ in patch.new_nodes],
                [end for _, _, end, _ in patch.new_nodes],
                patch.extensions,
                [source_id for source_id, _ in joined],
                [target_id for _, target_id in joined],
                [
                    (partition_id, self.partitioning.members[partition_id])
                    for partition_id in new_partition_ids
                ],
                objects=self.domain.object_ids if first else (),
            )
        )

        appended: Dict[int, List[Tuple[int, int]]] = {}
        if first:
            self._build_object_index(dag.assignment_segments)
        else:
            for node_id, start, _, members in patch.new_nodes:
                for member in members:
                    appended.setdefault(member, []).append((start, node_id))
        for object_id, segments in appended.items():
            existing = self._object_index.get(object_id)
            if existing is None:
                raise IndexConstructionError(
                    f"object {object_id} joined the stream mid-prefix; the "
                    "object index has no assignment history for it"
                )
            starts, nodes = existing
            new_starts, new_nodes = _pack_segments(segments)
            self._object_index.update(object_id, (starts + new_starts, nodes + new_nodes))

        self.domain.horizon = dag.horizon
        self.dataset = None
        self.network = None
        self._records_written += records_written
        if first:
            self._built = True
        else:
            self._increments += 1
        return GraphIncrementReport(
            new_nodes=len(patch.new_nodes),
            extended_nodes=len(patch.extensions),
            new_edges=len(patch.new_edges),
            new_long_edges=new_long_edges,
            new_partitions=len(new_partition_ids),
            rewritten_partitions=tuple(dirty_partitions),
            records_written=records_written,
            apply_seconds=time.perf_counter() - started,
        )

    def repack_frontier(self, min_partitions: int = 2) -> int:
        self._require_built()
        if self._storage is None:
            return ()
        dag = self.dag
        ceiling = min(
            min(self._window_cursors.values(), default=dag.horizon.end + 1),
            dag.horizon.end,
        )
        runs: List[List[int]] = []
        current: List[int] = []
        for key in self._partitions_file.extent_keys():
            partition_id = int(key)
            member_ids = self.partitioning.members[partition_id]
            if (
                member_ids
                and partition_id not in self._packed_partitions
                and all(dag.node(node_id).interval.end < ceiling for node_id in member_ids)
            ):
                current.append(partition_id)
            else:
                if len(current) >= min_partitions:
                    runs.append(current)
                current = []
        if len(current) >= min_partitions:
            runs.append(current)

        packed = []
        for group in runs:
            merged = [
                node_id
                for partition_id in group
                for node_id in self.partitioning.members[partition_id]
            ]
            packed_id = len(self.partitioning.members)
            records = self._make_records(merged)
            self._partitions_file.append_extent(packed_id, records)
            crash_point("repack-pre-adopt")
            for partition_id in group:
                self._partitions_file.drop_extent(partition_id)
                self.partitioning.members[partition_id] = []
            self._packed_partitions.add(self.partitioning.add_partition(merged))
            packed.append((packed_id, merged))
            self._records_written += len(records)
            self._repacks += 1
        retired = tuple(partition_id for group in runs for partition_id in group)
        if packed:
            self._append_chunk(
                _pack_chunk(self.dag.num_nodes, partitions=packed, retired=retired)
            )
        return retired
