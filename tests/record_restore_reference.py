"""The record-derived restore: an oracle for the directory-built serving state.

Before the ReachGraph kept a directory, a reopen read every partition extent
once and rebuilt the serving state from the vertex records themselves: the
partitioning from the extents' record order, the vertex starts from the
records (refusing a device whose starts decrease with id), the labels from
the records' ``DN_1`` successor tuples, and each object's assignment history
— the domain's objects — from the records' members.  :func:`record_state` is
that restore, kept here verbatim but for returning what it built instead of
installing it; :func:`serving_state` reads the same fields off a restored
index, so tests can pin that a restore from the directory serves exactly
what the records say.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.core import IndexConstructionError
from repro.reachgraph import ReachGraphIndex
from repro.reachgraph.index import _pack_segments
from repro.reachgraph.labels import ReachLabelIndex
from repro.reachgraph.partition import Partitioning


def _read_graph_records(index: ReachGraphIndex):
    partitions = index._partitions_file
    partition_members: Dict[int, List[int]] = {}
    records = []
    for key in partitions.extent_keys():
        extent_records = partitions.read_extent(key)
        partition_members[int(key)] = [record[0] for record in extent_records]
        records.extend(extent_records)
    records.sort(key=itemgetter(0))
    for expected_id, record in enumerate(records):
        if record[0] != expected_id:
            raise IndexConstructionError(
                f"partition extents are missing vertex {expected_id}"
            )
        if expected_id and record[1] < records[expected_id - 1][1]:
            raise IndexConstructionError(
                f"vertex {expected_id} starts at t={record[1]}, before "
                f"vertex {expected_id - 1} (t={records[expected_id - 1][1]}): "
                "vertex ids are not in start order"
            )
    return partition_members, records


def record_state(index: ReachGraphIndex) -> dict:
    """The serving state the records on ``index``'s device say it has."""
    partition_members, records = _read_graph_records(index)
    partitioning = Partitioning(
        partition_of={}, slot_of={}, members=[], depth=index.config.partition_depth
    )
    for partition_id in range(max(partition_members, default=-1) + 1):
        partitioning.add_partition(partition_members.get(partition_id, []))
    starts = array("q", [record[1] for record in records])
    labels = (
        ReachLabelIndex([record[4] for record in records])
        if index.config.interval_labels
        else None
    )
    truth: Dict[int, List[Tuple[int, int]]] = {}
    for node_id, start, _, members, _, _, _ in records:
        segment = (start, node_id)
        for member in members:
            truth.setdefault(member, []).append(segment)
    return {
        "members": partitioning.members,
        "locate": {
            node_id: (partitioning.partition_of[node_id], partitioning.slot_of[node_id])
            for node_id in range(len(records))
        },
        "starts": list(starts),
        "labels": (
            None
            if labels is None
            else [labels.label(node_id) for node_id in range(len(records))]
        ),
        "histories": {
            object_id: tuple(
                list(memoryview(run).cast("q")) for run in _pack_segments(segments)
            )
            for object_id, segments in truth.items()
        },
        "object_ids": tuple(sorted(truth)),
        "horizon": index.domain.horizon,
    }


def serving_state(index: ReachGraphIndex) -> dict:
    """The same fields, as ``index`` serves them."""
    num_vertices = index.num_vertices
    labels = index.labels
    return {
        "members": index.partitioning.members,
        "locate": {node_id: index.locate(node_id) for node_id in range(num_vertices)},
        "starts": list(index._vertex_starts),
        "labels": (
            None
            if labels is None
            else [labels.label(node_id) for node_id in range(num_vertices)]
        ),
        "histories": {
            object_id: tuple(
                list(memoryview(run).cast("B").cast("q"))
                for run in index._object_index.get(object_id)
            )
            for object_id in index.domain.object_ids
        },
        "object_ids": index.domain.object_ids,
        "horizon": index.domain.horizon,
    }
