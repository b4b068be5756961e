"""Reusable cross-method equivalence assertions.

Every index, baseline, and streaming service in this repo answers the same
question; the strongest guarantee the test suite gives is that they all
answer it *identically*.  This module is the one place that comparison loop
lives: hand it a ground-truth evaluator and a mapping of named methods, and
it asserts that every method returns the reference verdict (and, when asked,
the exact earliest reach time) on every query — collecting all disagreements
before failing so a mismatch report shows the full picture.

Used by ``test_streaming.py``, ``test_stream_equivalence.py``,
``test_integration_equivalence.py`` and the recovery and union-path suites.  ``CallCounter``,
the helper behind the suites' count gates (calls, never clocks), is shared
from here too.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Mapping, Optional

from repro.baselines.reference import evaluate_reachability
from repro.contacts import build_contact_network
from repro.contacts.network import ContactNetwork
from repro.core import (
    STORAGE_BACKENDS,
    QueryResult,
    ReachabilityQuery,
    StorageConfig,
    TimeInterval,
)
from repro.reachgraph.index import _CHUNK_SECTIONS
from repro.trajectory.model import TrajectoryDataset

__all__ = [
    "CallCounter",
    "EQUIVALENCE_BACKENDS",
    "EQUIVALENCE_LABEL_MODES",
    "backend_storage_config",
    "prefix_network",
    "reference_evaluator",
    "assert_methods_agree",
    "assert_reopened_matches_prefix",
]

Evaluator = Callable[[ReachabilityQuery], QueryResult]

#: The storage-backend axis of the equivalence suites: the streaming service
#: must answer bit-identically no matter which block device its snapshot
#: extents land on.
EQUIVALENCE_BACKENDS = tuple(b for b in STORAGE_BACKENDS if b != "sim")

#: The interval-label axis: whether the ReachGraph fast path consults the
#: GRAIL-style label index (O(1) negative rejection + frontier pruning) or
#: traverses unpruned must never change an answer — labels are a one-sided
#: filter whose ``True`` verdicts are provably exact, so both settings answer
#: bit-identically at every watermark.
EQUIVALENCE_LABEL_MODES = (True, False)


class CallCounter:
    """Counts calls of ``owner.name`` (patched on the class) without changing them."""

    def __init__(self, monkeypatch, *targets):
        self.calls = {}
        for owner, name in targets:
            self._patch(monkeypatch, owner, name)

    def _patch(self, monkeypatch, owner, name):
        key = f"{owner.__name__}.{name}"
        self.calls[key] = 0
        descriptor = owner.__dict__[name]
        real = getattr(descriptor, "__func__", descriptor)

        def counted(*args, **kwargs):
            self.calls[key] += 1
            return real(*args, **kwargs)

        wrapped = classmethod(counted) if isinstance(descriptor, classmethod) else counted
        monkeypatch.setattr(owner, name, wrapped)

    def reset(self):
        for key in self.calls:
            self.calls[key] = 0


def backend_storage_config(
    backend: str, storage_dir: Optional[str] = None
) -> Optional[StorageConfig]:
    """A storage config placing a service's blocks on ``backend``.

    ``"sim"`` returns ``None`` (the services' default config).  Persistent
    backends without a ``storage_dir`` run in anonymous scratch directories
    that vanish with the storage system — pass a real directory (e.g. a
    pytest ``tmp_path``) when the test exercises close/reopen.
    """
    if backend == "sim":
        return None
    return StorageConfig(backend=backend, storage_dir=storage_dir)


def prefix_network(
    dataset: TrajectoryDataset,
    threshold: float,
    through: Optional[int] = None,
) -> ContactNetwork:
    """The batch contact network of ``dataset`` up to instant ``through``.

    With ``through=None`` the full horizon is used.  This is the ground truth
    a streaming service must match after ingesting the prefix that ends at
    ``through`` (its watermark).
    """
    window = None
    if through is not None:
        window = TimeInterval(dataset.horizon.start, through)
    return build_contact_network(dataset, threshold, window=window)


def reference_evaluator(network: ContactNetwork) -> Evaluator:
    """The batch ``reference`` evaluator bound to a contact network."""
    return lambda query: evaluate_reachability(network, query)


def assert_methods_agree(
    reference: Evaluator,
    methods: Mapping[str, Evaluator],
    queries: Iterable[ReachabilityQuery],
    check_earliest: bool = False,
    require_earliest: bool = False,
    context: str = "",
) -> None:
    """Assert every method returns the reference verdict on every query.

    With ``check_earliest`` the earliest reach time of reachable queries is
    compared too — but only when the method reports one (bidirectional
    traversals legitimately return ``None``).  ``require_earliest``
    additionally treats a missing earliest time as a disagreement, for
    methods that are supposed to compute it exactly (ReachGrid, SPJ, the
    streaming union path).  All disagreements are collected before failing so
    the assertion message shows every mismatch, not just the first.
    """
    disagreements = []
    for query in queries:
        expected = reference(query)
        for name, evaluate in methods.items():
            actual = evaluate(query)
            if bool(actual.reachable) != bool(expected.reachable):
                disagreements.append(
                    f"{name}: {query}: reachable={actual.reachable}, "
                    f"reference says {expected.reachable}"
                )
            elif check_earliest and expected.reachable:
                if actual.earliest_time is None:
                    if require_earliest:
                        disagreements.append(
                            f"{name}: {query}: earliest_time missing, "
                            f"reference says {expected.earliest_time}"
                        )
                elif actual.earliest_time != expected.earliest_time:
                    disagreements.append(
                        f"{name}: {query}: earliest_time={actual.earliest_time}, "
                        f"reference says {expected.earliest_time}"
                    )
    suffix = f" [{context}]" if context else ""
    assert not disagreements, (
        f"{len(disagreements)} disagreement(s) with the reference evaluator"
        f"{suffix}:\n" + "\n".join(disagreements)
    )


def assert_reopened_matches_prefix(
    reopened,
    dataset: TrajectoryDataset,
    threshold: float,
    queries: Iterable[ReachabilityQuery],
    context: str = "",
) -> None:
    """The close/reopen axis of the equivalence contract, in one call.

    ``reopened`` is a read-only restored ``SnapshotQueryService``: whatever
    watermark it reports is the prefix it promised, and every answer must match the batch reference
    evaluator over exactly that prefix.  Earliest reach times are compared
    whenever the service reports them, but not *required* — a reopened
    service whose delta is empty answers through the restored ReachGraph
    fast path, whose bidirectional traversal legitimately omits them.
    """
    network = prefix_network(dataset, threshold, through=reopened.watermark)
    assert_methods_agree(
        reference_evaluator(network),
        {"reopened": reopened.query},
        queries,
        check_earliest=True,
        context=context or f"reopened at watermark {reopened.watermark}",
    )


def graph_state(index):
    """Everything a placed index holds on its device and in its directory."""
    partitions = index._partitions_file
    table = index._object_index
    labels = index.labels
    catalog = dict(index.catalog())
    catalog.pop("name")
    return {
        "members": [list(members) for members in index.partitioning.members],
        "extents": {
            key: list(partitions.read_extent(key)) for key in partitions.extent_keys()
        },
        "extent_blocks": {
            key: partitions.extent(key).block_ids for key in partitions.extent_keys()
        },
        "num_buckets": table.num_buckets,
        "bucket_blocks": table.bucket_blocks,
        "buckets": [
            index.storage.buffer_pool.read(block_id) for block_id in table.bucket_blocks
        ],
        "labels": (
            None
            if labels is None
            else [labels.label(node_id) for node_id in range(labels.num_labels)]
        ),
        "full_relabels": None if labels is None else labels.full_relabels,
        "catalog": catalog,
        "records_written": index.records_written,
    }


def rewrite_directory_start(storage, graph_name: str, victim: int, start: int) -> None:
    """Set vertex ``victim``'s start in the directory of ``graph_name`` on
    ``storage``: the chunk that added the vertex is rewritten in place, in
    the same blocks of the same sizes."""
    directory_file = storage.blockfile(f"{graph_name}-directory")
    for key in directory_file.extent_keys():
        pieces = list(directory_file.read_extent(key))
        chunk = bytearray(b"".join(pieces))
        first_vertex, num_starts = array("q", chunk[:16])
        if first_vertex <= victim < first_vertex + num_starts:
            break
    else:
        raise AssertionError(f"no directory chunk adds vertex {victim}")
    # The header (the first vertex and each section's length), then the starts.
    at = 8 * (len(_CHUNK_SECTIONS) + 1 + victim - first_vertex)
    chunk[at : at + 8] = array("q", [start]).tobytes()
    offsets = [0]
    for piece in pieces:
        offsets.append(offsets[-1] + len(piece))
    directory_file.replace_extent(
        key, [bytes(chunk[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    )
