"""ReachGraph index construction, disk placement, and incremental maintenance.

Putting the pieces together (Sections 5.1.1–5.1.3):

1. extract the contact network of the dataset (window trajectory join),
2. *reduce* it to the component DAG ``DN`` (snapshot components + temporal
   merging with aggregated edges),
3. *augment* ``DN`` with long edges at the configured resolutions, producing
   the hyper graph ``HN``,
4. *partition* ``HN`` by DN_1 depth ``dp`` in topological order and write each
   partition as one contiguous extent on the simulated disk, and
5. build the external hash tables that map an object and a time instance to
   the vertex/partition containing ``o(t)``.

The per-vertex disk record also stores the reverse DN_1 adjacency so that the
backward half of the bidirectional traversal never needs a second structure
(the paper stores the reverse graph alongside ``HN``).

Beyond the one-shot build, the index is *maintainable*: the streaming merge
path appends contacts at the frontier instead of rebuilding.
:meth:`ReachGraphIndex.frontier` captures the resumable state on the live
thread, :func:`compute_graph_patch` replays the appended ticks through the
same reduction/augmentation code the batch build uses — purely, so a
background thread may run it — and :meth:`ReachGraphIndex.apply_increment`
applies the patch: open component vertices are extended or split, successor
edges and newly complete augmentation windows are added, fresh vertices are
partitioned, and only *dirty* partitions (those holding a changed record) are
rewritten on disk, with :attr:`~ReachGraphIndex.records_written` /
:attr:`~ReachGraphIndex.superseded_blocks` as the write-amplification ledger.
A streaming service never calls :meth:`~ReachGraphIndex.build`: its first
merge patches an empty index from :meth:`GraphFrontier.empty`, and that
patch places every vertex, bucket and label exactly as the build would
(``partition_hypergraph`` is ``extend_partitioning`` from nothing).

What the index holds in memory is two things with two lifetimes.  The
*serving state* is all a query reads: the catalog fields, the slot directory
(:meth:`~ReachGraphIndex.locate`), the interval labels, the object index and
the :class:`GraphDomain` (which objects, which ticks), and the vertex starts
(:meth:`~ReachGraphIndex.vertices_starting_by`).
:meth:`ReachGraphIndex.restore` rebuilds exactly that from the graph's
*directory*, an append-only ``<graph>-directory`` block file beside the
partition extents: every write that changes the graph — :meth:`build`, every
:meth:`~ReachGraphIndex.apply_increment` (the first patch included) and every
:meth:`~ReachGraphIndex.repack_frontier` — appends one chunk of packed ints
saying what changed (new vertices' starts and ends, extended ends, the
``DN_1`` edges in the order they joined successor lists, new partitions'
members, retired partition ids, and once the domain's objects), so a reopen
replays the chunks and decodes no vertex record.  Which object is in which
vertex the directory does not say: the object-index buckets are the one
copy of that, and a reopen reads each bucket block once.  The *working
set* is what a writer holds between merges (:class:`_WorkingSet`): the
vertex rows of every partition that still holds an unfrozen vertex, one ``DN_1`` successor tuple per vertex (the labels and
the partitioner read them), and each object's current vertex.  A vertex
*freezes* once it has closed and every augmentation window cursor has passed
its end: no later patch can touch its record, so a partition whose members
have all frozen leaves the working set — once its packed extent is written,
when its owner repacks.  :meth:`~ReachGraphIndex.frontier`,
:meth:`~ReachGraphIndex.apply_increment` and
:meth:`~ReachGraphIndex.repack_frontier` read and patch only the working
set, and write extents from its rows.  A resumed writer builds it from the
directory, the buckets and the extents of its unfrozen partitions alone; a
read-only restore keeps none of it.  The whole graph in memory — ``dag`` and
``hypergraph`` — is the batch build's until its first increment, and
otherwise materialises from the extents on demand (for tests and batch
consumers, never on the writer's path).
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter, le
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.config import ContactConfig, ReachGraphConfig, StorageConfig
from ..core.errors import IndexConstructionError, IndexNotBuiltError, UnknownObjectError
from ..core.types import ObjectId, TimeInstant, TimeInterval
from ..contacts.join import build_contact_network
from ..contacts.network import Contact, ContactNetwork
from ..storage import BlockFile, ExternalHashTable, StorageSystem
from ..testing.faults import crash_point
from ..trajectory.model import TrajectoryDataset
from .augmentation import (
    AugmentationReport,
    NodeView,
    WindowSweep,
    augment_dag,
    next_window_start,
)
from .dag import ContactDag, DagPatch, DagPatchBuilder, HyperGraph, LongEdgeLayer
from .labels import ReachLabelIndex
from .partition import Partitioning, extend_partitioning, partition_hypergraph
from .reduction import (
    ReductionCursor,
    ReductionFrontier,
    ReductionReport,
    reduce_contact_network,
)

__all__ = [
    "GraphDomain",
    "GraphFrontier",
    "GraphIncrementReport",
    "ReachGraphBuildReport",
    "ReachGraphIndex",
    "VertexRecord",
    "compute_graph_patch",
]

#: Per-object assignment history stored in the object index: two parallel
#: runs of native int64 as ``bytes`` — segment start times (ascending) and
#: the vertex of each — so a bucket unpickles without a reduce call.
AssignmentHistory = Tuple[bytes, bytes]

#: A vertex record as stored and read: a plain tuple in :class:`VertexRecord`'s
#: field order (``node_id, start, end, members, successors, predecessors,
#: long_successors``).
VertexRow = Tuple[
    int,
    TimeInstant,
    TimeInstant,
    Tuple[ObjectId, ...],
    Tuple[int, ...],
    Tuple[int, ...],
    Tuple[Tuple[int, Tuple[int, ...]], ...],
]


def _pack_segments(segments: Iterable[Tuple[TimeInstant, int]]) -> AssignmentHistory:
    """Pack a non-empty run of ``(start, node)`` segments for the object index."""
    starts, nodes = zip(*segments)
    return array("q", starts).tobytes(), array("q", nodes).tobytes()


def _int64s(run: bytes) -> memoryview:
    """One run of an assignment history (``bytes``) as int64 values."""
    return memoryview(run).cast("q")


#: Bytes of a directory block per record slot of the partition file.  A
#: partition block is one page of ``records_per_block`` slots (the paper's
#: 4 KiB page at the default 16); a directory block holds at most that
#: page's bytes of a chunk, less room for the block's own framing (so it
#: fits an ``mmap`` slot), and its read is charged as one block like any
#: other.
_DIRECTORY_BYTES_PER_SLOT = 240

#: The sections of a directory chunk, in order, with their int width:
#: ``q`` (int64) for times and object ids, ``i`` (int32) for vertex and
#: partition ids and counts.  The chunk header holds the first new vertex's
#: id and each section's length.  Which object is in which vertex is not
#: among them: the object-index buckets hold it (one copy on the device), and
#: the chunk that starts a graph names its objects.
_CHUNK_SECTIONS = (
    ("starts", "q"),  # of the new vertices, ids from the header's first
    ("ends", "q"),
    ("extended", "i"),  # vertices whose end moved ...
    ("extended_to", "q"),  # ... and their new ends
    ("edge_sources", "i"),  # DN_1 edges in the order they joined ...
    ("edge_targets", "i"),  # ... their source's successor list
    ("partitions", "i"),  # new partition ids ...
    ("partition_sizes", "i"),
    ("partition_members", "i"),  # ... and their members in slot order
    ("retired", "i"),  # partition ids a repack folded
    ("objects", "q"),  # the domain's object ids, in the chunk from vertex 0
)


def _pack_chunk(
    first_vertex: int,
    starts: Iterable[TimeInstant] = (),
    ends: Iterable[TimeInstant] = (),
    extensions: Sequence[Tuple[int, TimeInstant]] = (),
    edge_sources: Iterable[int] = (),
    edge_targets: Iterable[int] = (),
    partitions: Sequence[Tuple[int, Sequence[int]]] = (),
    retired: Iterable[int] = (),
    objects: Iterable[ObjectId] = (),
) -> bytes:
    """One directory chunk: what a write changed, as packed ints.

    ``starts`` and ``ends`` describe the new vertices, numbered from
    ``first_vertex``; ``extensions`` are the ``(vertex, new end)`` of older
    ones; ``edge_sources`` / ``edge_targets`` the ``DN_1`` edges in the
    order they joined their source's successor list; ``partitions`` the new
    partitions with their members in slot order; ``retired`` the partition
    ids a repack folded; ``objects`` the domain's object ids, given once, by
    the write that starts the graph.
    """
    values = (
        starts,
        ends,
        [node_id for node_id, _ in extensions],
        [end for _, end in extensions],
        edge_sources,
        edge_targets,
        [partition_id for partition_id, _ in partitions],
        [len(member_ids) for _, member_ids in partitions],
        chain.from_iterable(member_ids for _, member_ids in partitions),
        retired,
        objects,
    )
    sections = [array(code, column) for (_, code), column in zip(_CHUNK_SECTIONS, values)]
    header = array("q", [first_vertex, *map(len, sections)])
    return header.tobytes() + b"".join(section.tobytes() for section in sections)


class _Directory:
    """The graph's directory in memory: what the serving state is built from.

    Per vertex, in id order: its start, its end and its ``DN_1`` successor
    list; every live partition's members in slot order; and the domain's
    object ids.  :meth:`replay` folds in one chunk of the
    ``<graph>-directory`` file.
    """

    __slots__ = ("starts", "ends", "successors", "partitions", "object_ids")

    def __init__(self) -> None:
        self.starts: "array[int]" = array("q")
        self.ends: "array[int]" = array("q")
        self.successors: List[List[int]] = []
        self.partitions: Dict[int, List[int]] = {}
        self.object_ids: Set[ObjectId] = set()

    def replay(self, chunk: bytes) -> None:
        """Apply one chunk (:func:`_pack_chunk`) on top of the chunks before it."""
        header = array("q")
        header.frombytes(chunk[: 8 * (len(_CHUNK_SECTIONS) + 1)])
        first_vertex, *lengths = header
        offset = 8 * len(header)
        sections: Dict[str, "array[int]"] = {}
        for (name, code), length in zip(_CHUNK_SECTIONS, lengths):
            values = array(code)
            values.frombytes(chunk[offset : offset + values.itemsize * length])
            offset += values.itemsize * length
            sections[name] = values
        if offset != len(chunk) or first_vertex != len(self.starts):
            raise IndexConstructionError(
                f"directory chunk of {len(chunk)} bytes from vertex "
                f"{first_vertex} does not follow a directory of "
                f"{len(self.starts)} vertices"
            )
        starts = sections["starts"]
        self.starts.extend(starts)
        self.ends.extend(sections["ends"])
        self.successors.extend([] for _ in starts)
        self.object_ids.update(sections["objects"])
        for node_id, end in zip(sections["extended"], sections["extended_to"]):
            self.ends[node_id] = end
        successors = self.successors
        for source_id, target_id in zip(sections["edge_sources"], sections["edge_targets"]):
            successors[source_id].append(target_id)
        flat = iter(sections["partition_members"])
        for partition_id, size in zip(sections["partitions"], sections["partition_sizes"]):
            self.partitions[partition_id] = list(islice(flat, size))
        for partition_id in sections["retired"]:
            del self.partitions[partition_id]


def _edges_of(successors: Sequence[Sequence[int]]) -> Tuple[Iterable[int], Iterable[int]]:
    """The sources and the targets of every ``DN_1`` edge of whole
    successor lists, in list order (for :func:`_pack_chunk`)."""
    return (
        chain.from_iterable(map(repeat, range(len(successors)), map(len, successors))),
        chain.from_iterable(successors),
    )


def _check_extent_size(partition_id: int, num_records: int, member_ids: Sequence[int]) -> None:
    """Refuse an extent holding another number of records than members."""
    if num_records != len(member_ids):
        raise IndexConstructionError(
            f"partition {partition_id} holds {num_records} records on the "
            f"device, its directory lists {len(member_ids)} members"
        )


def _check_rows(
    partition_id: int,
    records: Sequence[VertexRow],
    member_ids: Sequence[int],
    directory: _Directory,
) -> None:
    """Refuse a partition's records unless each is the directory's vertex
    in that slot: the same id, start, end and successor order."""
    _check_extent_size(partition_id, len(records), member_ids)
    for slot, (node_id, row) in enumerate(zip(member_ids, records)):
        if (
            row[0] != node_id
            or row[1] != directory.starts[node_id]
            or row[2] != directory.ends[node_id]
            or list(row[4]) != directory.successors[node_id]
        ):
            raise IndexConstructionError(
                f"slot {slot} of partition {partition_id} holds a record of "
                f"vertex {row[0]} that is not the directory's vertex {node_id}"
            )


@dataclass(slots=True)
class _WorkingSet:
    """What a writer holds of the graph between merges (module docstring).

    ``rows`` maps a partition id to its vertex rows in member (= slot) order,
    exactly as its extent was last written, for every partition holding an
    unfrozen vertex; ``successors[v]`` is vertex ``v``'s ``DN_1`` successor
    tuple, for every vertex; ``current`` maps each object to its vertex at
    the horizon end.
    """

    rows: Dict[int, List[VertexRow]]
    successors: List[Tuple[int, ...]]
    current: Dict[ObjectId, int]


class GraphDomain:
    """Which objects over which ticks an index answers for.

    Everything serving reads of the indexed prefix: a query's endpoints must
    be ``in`` the domain and its interval must meet ``horizon``.  A batch
    build takes both from its dataset; the first patch of an empty index
    reads the ids off its vertices (at every tick each object belongs to
    one) and takes the horizon the patch reaches, and a restored index
    reads the ids its directory names and takes the horizon the owner
    committed; an increment moves ``horizon`` forward in place.
    """

    __slots__ = ("object_ids", "horizon", "_known")

    def __init__(self, object_ids: Iterable[ObjectId], horizon: TimeInterval) -> None:
        self.object_ids: Tuple[ObjectId, ...] = tuple(sorted(object_ids))
        self.horizon = horizon
        self._known = frozenset(self.object_ids)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._known

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphDomain(objects={len(self.object_ids)}, horizon={self.horizon})"


class VertexRecord(NamedTuple):
    """The field order of one ``HN`` vertex record (:data:`VertexRow`).

    The index writes plain tuples in this order, so a partition block
    unpickles with no reduce call at all, and every reader unpacks records
    positionally (field order is a contract).  ``VertexRecord._make(row)``
    gives a row named fields.
    """

    node_id: int
    start: TimeInstant
    end: TimeInstant
    members: Tuple[ObjectId, ...]
    successors: Tuple[int, ...]
    predecessors: Tuple[int, ...]
    long_successors: Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True, slots=True)
class ReachGraphBuildReport:
    """Statistics collected while building a ReachGraph index."""

    reduction: ReductionReport
    augmentation: AugmentationReport
    num_partitions: int
    num_blocks: int
    build_seconds: float
    write_ios: int


@dataclass(frozen=True, slots=True)
class GraphFrontier:
    """Everything a pure patch computation needs from the live index.

    Captured synchronously by :meth:`ReachGraphIndex.frontier` (cheap: the
    reduction state plus the vertices recent enough to matter to unprocessed
    augmentation windows), after which :func:`compute_graph_patch` may run in
    a background thread without touching the index.  ``recent_nodes`` carries
    every vertex whose interval reaches the earliest unprocessed window start
    — successors of such vertices always start later, so the set is closed
    under the window sweep.
    """

    reduction: ReductionFrontier
    window_cursors: Tuple[Tuple[int, TimeInstant], ...]
    recent_nodes: Tuple[NodeView, ...]
    recent_edges: Tuple[Tuple[int, Tuple[int, ...]], ...]

    @classmethod
    def empty(
        cls,
        object_ids: Sequence[ObjectId],
        origin: TimeInstant,
        resolutions: Sequence[int],
    ) -> "GraphFrontier":
        """The frontier of an index with no tick yet, over ``object_ids``.

        The reduction resumes at ``origin`` with no vertex and no
        assignment, every window cursor sits at ``origin`` and nothing is
        recent, so a patch through ``t`` replays the whole prefix
        ``[origin, t]`` — the one forward pass of the batch build.  Its end,
        ``origin - 1``, lives only here: no ``TimeInterval`` holds it.
        """
        return cls(
            reduction=ReductionFrontier(
                start=origin,
                end=origin - 1,
                num_nodes=0,
                object_ids=tuple(object_ids),
                assignments=(),
                open_members=(),
            ),
            window_cursors=tuple((resolution, origin) for resolution in sorted(resolutions)),
            recent_nodes=(),
            recent_edges=(),
        )


@dataclass(frozen=True, slots=True)
class GraphIncrementReport:
    """What one :meth:`ReachGraphIndex.apply_increment` actually did."""

    new_nodes: int
    extended_nodes: int
    new_edges: int
    new_long_edges: int
    new_partitions: int
    #: Ids of the partitions whose extents the patch rewrote.
    rewritten_partitions: Tuple[int, ...]
    records_written: int
    apply_seconds: float


def compute_graph_patch(
    frontier: GraphFrontier,
    contacts: Sequence[Contact],
    through: TimeInstant,
) -> DagPatch:
    """Replay appended ticks over a captured frontier into a :class:`DagPatch`.

    Pure function of its arguments: ``contacts`` must cover exactly the
    contact instants of the appended ticks ``(frontier.end, through]`` (the
    streaming merge's freshly frozen slice), and the result describes every
    reduction and augmentation change those ticks cause.  Runs the *same*
    per-tick :class:`~repro.reachgraph.reduction.ReductionCursor` and
    per-window sweep the batch build runs — recorded instead of applied.
    """
    reduction = frontier.reduction
    if through < reduction.end:
        raise IndexConstructionError(
            f"cannot patch backwards: frontier at {reduction.end}, "
            f"increment through {through}"
        )

    # Per-tick snapshot adjacency of the appended ticks, from the frozen slice.
    adjacency_at: Dict[TimeInstant, Dict[ObjectId, Set[ObjectId]]] = {}
    for contact in contacts:
        lo = max(contact.validity.start, reduction.end + 1)
        hi = min(contact.validity.end, through)
        for t in range(lo, hi + 1):
            adjacency = adjacency_at.setdefault(t, {})
            adjacency.setdefault(contact.first, set()).add(contact.second)
            adjacency.setdefault(contact.second, set()).add(contact.first)

    builder = DagPatchBuilder(reduction.num_nodes)
    cursor = ReductionCursor.resume(reduction, builder)
    for t in range(reduction.end + 1, through + 1):
        cursor.advance(t, adjacency_at.get(t, {}))
    cursor.finish()

    # Merge the captured recent vertices (with their patched ends) and the
    # fresh ones into the id-ordered views the window sweep expects.
    extensions = builder.extensions
    views: List[NodeView] = [
        (node_id, start, extensions.get(node_id, end))
        for node_id, start, end in frontier.recent_nodes
    ]
    views.extend(builder.new_node_views)
    views.sort()
    successors: Dict[int, List[int]] = {
        node_id: list(targets) for node_id, targets in frontier.recent_edges
    }
    for source_id, target_id in builder.new_edges:
        successors.setdefault(source_id, []).append(target_id)

    sweep = WindowSweep(views, successors)
    new_long_edges: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
    cursors: List[Tuple[int, TimeInstant]] = []
    for resolution, ta in frontier.window_cursors:
        edges, ta = sweep.edges_through(resolution, ta, through)
        if edges:
            new_long_edges.append((resolution, tuple(edges)))
        cursors.append((resolution, ta))

    return builder.build(
        base_end=reduction.end,
        new_end=max(through, reduction.end),
        new_long_edges=tuple(new_long_edges),
        window_cursors=tuple(cursors),
    )


class ReachGraphIndex:
    """The ReachGraph multi-resolution index over a trajectory dataset."""

    def __init__(
        self,
        dataset: Optional[TrajectoryDataset],
        config: ReachGraphConfig | None = None,
        contact_config: ContactConfig | None = None,
        storage_config: StorageConfig | None = None,
        contact_network: Optional[ContactNetwork] = None,
        storage: Optional[StorageSystem] = None,
        name: str = "reachgraph",
        defer_placement: bool = False,
        repack_min_partitions: int = 2,
    ) -> None:
        # ``dataset`` (and ``network`` below) are what :meth:`build` reduces;
        # ``None`` on a restored index and on an empty one (whose first
        # increment builds it), and released once increments grow the index
        # past them — serving reads :attr:`domain` instead.
        self.dataset = dataset
        self.domain: Optional[GraphDomain] = (
            GraphDomain(dataset.object_ids, dataset.horizon)
            if dataset is not None
            else None
        )
        self.config = config or ReachGraphConfig()
        self.contact_config = contact_config or ContactConfig()
        self.name = name
        self._provided_network = contact_network
        if defer_placement and storage is not None:
            raise IndexConstructionError(
                "defer_placement builds in memory; do not also inject a storage"
            )
        # ``storage`` injects the owner's device (a streaming overlay persists
        # its graph alongside the snapshot store); without it the index keeps
        # the historical behaviour of allocating its own system.
        # ``defer_placement`` attaches no files: :meth:`restore` attaches the
        # existing ones, and a build without them stays in memory.
        self._storage: Optional[StorageSystem] = None
        self._partitions_file: Optional[BlockFile] = None
        # The append-only directory (module docstring).
        self._directory_file: Optional[BlockFile] = None
        self._object_index: Optional[ExternalHashTable] = None
        if not defer_placement:
            self._attach_files(
                storage
                if storage is not None
                else StorageSystem(storage_config, name=name, attach=False),
                create=True,
            )
        self._built = False

        # Populated by build().  ``_hypergraph`` (with its ``dag``) is the
        # whole graph in memory: the batch build's until its first increment,
        # else materialised from the extents by :attr:`hypergraph` / :attr:`dag`
        # and dropped at the next write.
        self.network: Optional[ContactNetwork] = None
        self._hypergraph: Optional[HyperGraph] = None
        # The writer's working set (``None`` until a writer needs it, and on
        # a read-only restore).  ``repack_min_partitions`` is the shortest run
        # of cold partitions the owner's repacks fold (0: it never repacks):
        # a cold partition's rows stay while such a repack may still fold it.
        self._working: Optional[_WorkingSet] = None
        self._repack_min_partitions = repack_min_partitions
        self.partitioning: Optional[Partitioning] = None
        self.build_report: Optional[ReachGraphBuildReport] = None
        self._partition_of_vertex: Dict[int, int] = {}
        self._slot_of_vertex: Dict[int, int] = {}
        # Vertex starts in id order: nondecreasing, because a vertex is
        # numbered at the tick it starts (ReductionCursor.advance).
        self._vertex_starts: "array[int]" = array("q")
        # GRAIL-style interval labels (the query fast path); made from the
        # DN_1 successor lists whenever the config enables them.
        self._labels: Optional[ReachLabelIndex] = None

        # Incremental-maintenance state and the write-amplification ledger.
        self._window_cursors: Dict[int, TimeInstant] = {}
        self._records_written = 0
        self._increments = 0
        # Frontier-repack state: partitions produced by a repack never fold
        # again, which bounds repack write amplification to one extra rewrite
        # per vertex record over the index's lifetime.
        self._packed_partitions: Set[int] = set()
        self._repacks = 0

    def _attach_files(self, storage: StorageSystem, create: bool) -> None:
        self._storage = storage
        if create:
            self._partitions_file = storage.new_blockfile(f"{self.name}-partitions")
            self._object_index = storage.new_hashtable(f"{self.name}-object-index")
            # One piece of a chunk per block (see _DIRECTORY_BYTES_PER_SLOT).
            self._directory_file = storage.new_blockfile(
                f"{self.name}-directory", records_per_block=1
            )
        else:
            self._partitions_file = storage.blockfile(f"{self.name}-partitions")
            self._object_index = storage.hashtable(f"{self.name}-object-index")
            self._directory_file = storage.blockfile(f"{self.name}-directory")

    def _append_chunk(self, chunk: bytes) -> None:
        """Append one chunk (:func:`_pack_chunk`) to the directory."""
        assert self._directory_file is not None and self._partitions_file is not None
        size = self._partitions_file.records_per_block * _DIRECTORY_BYTES_PER_SLOT
        self._directory_file.append_extent(
            self._directory_file.num_extents,
            [chunk[offset : offset + size] for offset in range(0, len(chunk), size)],
        )

    @property
    def storage(self) -> StorageSystem:
        """The storage system holding the placed index."""
        if self._storage is None:
            raise IndexNotBuiltError("index was built with defer_placement=True")
        return self._storage

    @property
    def hypergraph(self) -> HyperGraph:
        """``HN`` in memory (see the module docstring).

        A batch build holds it until its first increment; otherwise it is
        rebuilt here from the partition extents (charged reads) and kept
        until the next write.  No writer path reads it.
        """
        if self._hypergraph is None:
            self._require_built()
            self._hypergraph = self._materialize_graph()
        return self._hypergraph

    @property
    def dag(self) -> ContactDag:
        """``DN_1`` in memory: the base DAG of :attr:`hypergraph`."""
        return self.hypergraph.dag

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "ReachGraphIndex":
        """Construct the index end to end and place it on the simulated disk."""
        if self._built:
            raise IndexConstructionError("ReachGraph index already built")
        if self.dataset is None:
            raise IndexConstructionError(
                "a restored index has no dataset to build from"
            )
        started = time.perf_counter()

        network = self._provided_network
        if network is None:  # an empty provided network is falsy, and still provided
            network = build_contact_network(
                self.dataset, self.contact_config.distance_threshold
            )
        self.network = network
        dag, reduction_report = reduce_contact_network(network)
        hypergraph, augmentation_report = augment_dag(
            dag, self.config.sorted_resolutions
        )
        self._hypergraph = hypergraph
        self._vertex_starts = array("q", [node.interval.start for node in dag.nodes])
        partitioning = partition_hypergraph(hypergraph, self.config.partition_depth)
        self._adopt_partitioning(partitioning)
        self._window_cursors = {
            resolution: next_window_start(
                dag.horizon.start, dag.horizon.end, resolution
            )
            for resolution in self.config.sorted_resolutions
        }
        if self.config.interval_labels:
            self._labels = ReachLabelIndex.build(dag)

        if self._storage is not None:
            assert self.domain is not None
            self._write_partitions()
            self._append_chunk(
                _pack_chunk(
                    0,
                    self._vertex_starts,
                    [node.interval.end for node in dag.nodes],
                    (),
                    *_edges_of([dag.successors(node_id) for node_id in range(dag.num_nodes)]),
                    partitions=list(enumerate(partitioning.members)),
                    objects=self.domain.object_ids,
                )
            )
            self._build_object_index(dag.assignment_segments)

        self.build_report = ReachGraphBuildReport(
            reduction=reduction_report,
            augmentation=augmentation_report,
            num_partitions=partitioning.num_partitions,
            num_blocks=(
                self._partitions_file.num_blocks
                if self._partitions_file is not None
                else 0
            ),
            build_seconds=time.perf_counter() - started,
            write_ios=self._storage.stats.writes if self._storage is not None else 0,
        )
        self._built = True
        return self

    def _adopt_partitioning(self, partitioning: Partitioning) -> None:
        self.partitioning = partitioning
        # Shared deliberately, not copied: increments and repacks assign
        # vertices into these same dicts (``Partitioning.add_partition``), so
        # locate() can never drift from the extents they write.
        self._partition_of_vertex = partitioning.partition_of
        self._slot_of_vertex = partitioning.slot_of

    def _write_partitions(self) -> None:
        """Write every partition as one contiguous extent, in generation order."""
        assert self.partitioning is not None and self._partitions_file is not None
        for partition_id, member_ids in enumerate(self.partitioning.members):
            records = self._make_records(member_ids)
            self._partitions_file.append_extent(partition_id, records)
            self._records_written += len(records)

    def _make_records(self, node_ids: Sequence[int]) -> List[VertexRow]:
        hypergraph = self.hypergraph
        dag = hypergraph.dag
        layers = [
            (resolution, hypergraph.layer(resolution).forward)
            for resolution in hypergraph.resolutions
        ]
        records: List[VertexRow] = []
        for node_id in node_ids:
            node = dag.node(node_id)
            records.append(
                (
                    node_id,
                    node.interval.start,
                    node.interval.end,
                    tuple(sorted(node.members)),
                    tuple(dag.successors(node_id)),
                    tuple(dag.predecessors(node_id)),
                    tuple(
                        (resolution, tuple(targets))
                        for resolution, forward in layers
                        if (targets := forward.get(node_id))
                    ),
                )
            )
        return records

    def _build_object_index(
        self, segments_of: Callable[[ObjectId], Sequence[Tuple[TimeInstant, int]]]
    ) -> None:
        """Build the external hash table: object → (start, vertex) assignment history."""
        assert self._object_index is not None and self.domain is not None
        entries: List[Tuple[ObjectId, AssignmentHistory]] = []
        for object_id in self.domain.object_ids:
            segments = segments_of(object_id)
            if not segments:
                raise IndexConstructionError(
                    f"object {object_id} received no component assignments"
                )
            entries.append((object_id, _pack_segments(segments)))
        self._object_index.build(entries)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _working_set(self) -> _WorkingSet:
        """The writer's working set, read from the device if the index has none.

        A streaming writer starts from an empty one or restores one; a batch
        build (or an index restored read-only) reads its directory and its
        unfrozen extents once here, at its first write, as a resuming
        writer's restore does.  From then on the whole graph only
        materialises on demand.
        """
        if self._working is None:
            self._require_built()
            self._hold_working_set(self._read_directory(), self._object_histories())
        self._hypergraph = None
        return self._working

    def _hold_working_set(
        self, directory: _Directory, histories: Dict[ObjectId, Sequence[int]]
    ) -> None:
        """Keep a writer's working set, reading only the extents it holds.

        The successor tuples come from the directory and each object's
        current vertex from its committed history (:meth:`_object_histories`:
        the last vertex it belongs to); which partitions are unfrozen is
        evaluated on the directory's ends, and only their extents are read.
        Every row read must say what the directory says, and hold as members
        exactly the objects whose histories name it; predecessor tuples are
        held in source-id order, as a graph rebuilt from the successor
        tuples holds them.
        """
        assert self._partitions_file is not None
        self._working = _WorkingSet(
            rows={},
            successors=[tuple(targets) for targets in directory.successors],
            current={object_id: nodes[-1] for object_id, nodes in histories.items()},
        )
        ends = directory.ends
        frozen = set(
            self._frozen_partitions(
                (partition_id, map(ends.__getitem__, member_ids))
                for partition_id, member_ids in directory.partitions.items()
            )
        )
        rows = self._working.rows
        for partition_id, member_ids in directory.partitions.items():
            if partition_id in frozen:
                continue
            records = self._partitions_file.read_extent(partition_id)
            _check_rows(partition_id, records, member_ids, directory)
            rows[partition_id] = [
                (*row[:5], tuple(sorted(row[5])), row[6]) for row in records
            ]
        # The held vertices' members, as the histories tell them: each
        # history is in id order, so its walk back stops below the lowest.
        members_of: Dict[int, List[ObjectId]] = {
            row[0]: [] for partition_rows in rows.values() for row in partition_rows
        }
        lowest = min(members_of, default=len(directory.starts))
        for object_id, nodes in sorted(histories.items()):
            for node_id in reversed(nodes):
                if node_id < lowest:
                    break
                members = members_of.get(node_id)
                if members is not None:
                    members.append(object_id)
        for partition_rows in rows.values():
            for row in partition_rows:
                if tuple(row[3]) != tuple(members_of[row[0]]):
                    raise IndexConstructionError(
                        f"vertex {row[0]} holds members {tuple(row[3])}, the "
                        f"object index places {tuple(members_of[row[0]])} there"
                    )

    def _frozen_before(self) -> TimeInstant:
        """Every vertex ending before this tick is frozen: it has closed (it
        ends before the horizon end) and every window cursor has passed it."""
        assert self.domain is not None
        end = self.domain.horizon.end
        return min(min(self._window_cursors.values(), default=end + 1), end)

    def _frozen_partitions(
        self, partition_ends: Iterable[Tuple[int, Iterable[TimeInstant]]]
    ) -> List[int]:
        """Which of the given partitions (each with its members' ends) a
        writer lets go of: every member frozen, and no repack can fold it.

        No patch can dirty such a partition again.  While the owner repacks,
        a cold partition stays until a repack can no longer fold it: runs
        fold within a stretch of consecutive unpacked extents (in write
        order) bounded by packed ones, which never fold again, so only a
        bounded stretch shorter than a foldable run lets its rows go early.
        """
        assert self._partitions_file is not None
        ceiling = self._frozen_before()
        foldable: Set[int] = set()
        if self._repack_min_partitions:
            stretch: List[int] = []
            for key in self._partitions_file.extent_keys() + [None]:
                if key is None or int(key) in self._packed_partitions:
                    if len(stretch) >= self._repack_min_partitions or key is None:
                        foldable.update(stretch)
                    stretch = []
                else:
                    stretch.append(int(key))
        return [
            partition_id
            for partition_id, ends in partition_ends
            if partition_id not in foldable and all(end < ceiling for end in ends)
        ]

    def _release_frozen(self) -> None:
        """Drop the working-set rows of every partition a writer lets go of
        (:meth:`_frozen_partitions`)."""
        assert self._working is not None
        rows = self._working.rows
        for partition_id in self._frozen_partitions(
            (partition_id, map(itemgetter(2), partition_rows))
            for partition_id, partition_rows in rows.items()
        ):
            del rows[partition_id]

    def _row(self, node_id: int) -> VertexRow:
        """The working-set row of an unfrozen vertex."""
        assert self._working is not None
        partition_rows = self._working.rows.get(self._partition_of_vertex[node_id])
        if partition_rows is None:
            raise IndexConstructionError(
                f"vertex {node_id} is frozen: no patch can change its record"
            )
        return partition_rows[self._slot_of_vertex[node_id]]

    def frontier(self) -> GraphFrontier:
        """Capture the resumable maintenance state (cheap, live thread only).

        The result is immutable and self-contained:
        :func:`compute_graph_patch` over it may run off-thread while this
        index keeps answering queries, as long as no other increment is
        applied in between (application validates the base and refuses a
        stale patch).  It reads the working set alone: open vertices and
        recent ones are unfrozen, so their rows are held.
        """
        working = self._working_set()
        assert self.domain is not None
        horizon = self.domain.horizon
        object_ids = self.domain.object_ids
        reduction = ReductionFrontier(
            start=horizon.start,
            end=horizon.end,
            num_nodes=len(self._vertex_starts),
            object_ids=object_ids,
            assignments=tuple(
                (object_id, working.current[object_id]) for object_id in object_ids
            ),
            open_members=tuple(
                (node_id, self._row(node_id)[3])
                for node_id in sorted(set(working.current.values()))
            ),
        )

        # Vertices recent enough to matter to any unprocessed window: their
        # interval reaches the earliest per-resolution cursor.  Successors of
        # such vertices start strictly later, so the captured adjacency is
        # closed under the window sweep.
        floor: TimeInstant = min(self._window_cursors.values(), default=horizon.end + 1)
        recent_nodes = tuple(
            sorted(
                (node_id, start, end)
                for partition_rows in working.rows.values()
                for node_id, start, end, _, _, _, _ in partition_rows
                if end >= floor
            )
        )
        successors = working.successors
        recent_edges = tuple(
            (node_id, successors[node_id])
            for node_id, _, _ in recent_nodes
            if successors[node_id]
        )
        return GraphFrontier(
            reduction=reduction,
            window_cursors=tuple(sorted(self._window_cursors.items())),
            recent_nodes=recent_nodes,
            recent_edges=recent_edges,
        )

    def _start_graph(self, patch: DagPatch) -> None:
        """Give an empty index the empty graph its first patch grows.

        The horizon starts at the first patched tick, and the domain's
        objects are the members of the patch's vertices: every object
        belongs to one vertex at every tick.  The chunk the patch appends
        names them, for :meth:`restore`.
        """
        object_ids = {member for _, _, _, members in patch.new_nodes for member in members}
        self.domain = GraphDomain(object_ids, TimeInterval(patch.base_end + 1, patch.new_end))
        self._working = _WorkingSet(rows={}, successors=[], current={})
        self._adopt_partitioning(
            Partitioning(
                partition_of={}, slot_of={}, members=[], depth=self.config.partition_depth
            )
        )

    def apply_increment(self, patch: DagPatch) -> GraphIncrementReport:
        """Apply a :class:`DagPatch`, rewriting only what the patch dirtied.

        The in-place counterpart of a full rebuild: the working set's rows
        are patched, fresh vertices are partitioned and written as new
        extents, partitions holding a changed record (an extended interval, a
        new successor or long edge) are rewritten — superseding their old
        extents on the append-only device — and the object index buckets of
        reassigned objects are updated.  Every record a patch changes
        belongs to an unfrozen vertex, so the working set holds it; the
        partitions frozen by the patch then leave it.  Everything runs on
        the caller's thread against live structures; streaming services call
        it from their atomic adoption step, where no concurrent reader can
        observe a half-applied state.  A patch that does not fit — a stale
        one, or one naming an object the index has no history for — raises
        before anything moves.

        The patch alone says how far the index now reaches: the domain's
        horizon moves to ``patch.new_end``, and the dataset and network the
        index was built from — a shorter prefix from here on — are released.

        On an empty index (placed, never built) the first patch — computed
        over :meth:`GraphFrontier.empty` — is the build: the graph starts at
        ``patch.base_end + 1``, the domain is the objects of its vertices,
        the labels are made and the object index is built in one pass, so
        the device ends up as :meth:`build` would leave it.  It counts as no
        increment.
        """
        first = not self._built
        if first:
            if patch.base_nodes:
                raise IndexConstructionError(
                    f"stale patch: built against {patch.base_nodes} vertices, "
                    "the index is empty"
                )
            self._start_graph(patch)
        working = self._working_set()
        if not first:
            assert self.domain is not None
            num_nodes, end = len(self._vertex_starts), self.domain.horizon.end
            if num_nodes != patch.base_nodes or end != patch.base_end:
                raise IndexConstructionError(
                    f"stale patch: built against {patch.base_nodes} vertices "
                    f"through t={patch.base_end}, index has {num_nodes} "
                    f"through t={end}"
                )
            for _, _, _, members in patch.new_nodes:
                for member in members:
                    if member not in self.domain:
                        raise IndexConstructionError(
                            f"object {member} joined the stream mid-prefix; the "
                            "object index has no assignment history for it"
                        )
        assert self.partitioning is not None and self.domain is not None
        assert self._partitions_file is not None and self._object_index is not None
        started = time.perf_counter()

        # 1. Reduction and augmentation operations, staged as mutable rows
        #    ``[id, start, end, members, successors, predecessors,
        #    {resolution: long successors}]`` of the vertices they touch.
        staged: Dict[int, List[Any]] = {}

        def stage(node_id: int) -> List[Any]:
            row = staged.get(node_id)
            if row is None:
                held = self._row(node_id)
                row = staged[node_id] = [
                    *held[:4],
                    list(held[4]),
                    list(held[5]),
                    {resolution: list(targets) for resolution, targets in held[6]},
                ]
            return row

        for node_id, new_end in patch.extensions:
            stage(node_id)[2] = new_end
        for expected_id, (node_id, start, end, members) in enumerate(
            patch.new_nodes, start=patch.base_nodes
        ):
            if node_id != expected_id:
                raise IndexConstructionError(
                    f"patch vertex {node_id} materialized as {expected_id}"
                )
            staged[node_id] = [node_id, start, end, members, [], [], {}]
        joined: List[Tuple[int, int]] = []
        for source_id, target_id in patch.new_edges:
            successors = stage(source_id)[4]
            if target_id not in successors:
                successors.append(target_id)
                stage(target_id)[5].append(source_id)
                joined.append((source_id, target_id))
        new_long_edges = 0
        for resolution, edges in patch.new_long_edges:
            # The sweep emits each pair once, in its one window: every
            # source's targets extend its row once, in sweep order.
            by_source: Dict[int, List[int]] = {}
            for source_id, target_id in edges:
                targets = by_source.get(source_id)
                if targets is None:
                    by_source[source_id] = [target_id]
                else:
                    targets.append(target_id)
            for source_id, targets in by_source.items():
                stage(source_id)[6].setdefault(resolution, []).extend(targets)
            new_long_edges += len(edges)
        rows: Dict[int, VertexRow] = {}
        working.successors.extend(() for _ in patch.new_nodes)
        for node_id, (_, start, end, members, successors, predecessors, long) in staged.items():
            working.successors[node_id] = tuple(successors)
            rows[node_id] = (
                node_id,
                start,
                end,
                members,
                working.successors[node_id],
                tuple(predecessors),
                tuple(
                    (resolution, tuple(long[resolution]))
                    for resolution in sorted(long)
                    if long[resolution]
                ),
            )
        self._vertex_starts.extend([start for _, start, _, _ in patch.new_nodes])
        self.domain.horizon = TimeInterval(self.domain.horizon.start, patch.new_end)
        self._window_cursors.update(dict(patch.window_cursors))
        segments: Dict[ObjectId, List[Tuple[TimeInstant, int]]] = {}
        for node_id, start, _, members in patch.new_nodes:
            for member in members:
                segments.setdefault(member, []).append((start, node_id))
                working.current[member] = node_id

        # 2. Label the first DAG, relabel a grown one (long edges are
        #    shortcuts over DN_1 paths, so labels only track DN_1; an
        #    extension changes none).
        if first:
            if self.config.interval_labels:
                self._labels = ReachLabelIndex(working.successors)
        elif self._labels is not None and (patch.new_nodes or patch.new_edges):
            self._labels.relabel(working.successors)

        # 3. Fresh vertices join fresh partitions (old extents are immutable
        #    in shape); write each new partition as one contiguous extent.
        new_partition_ids = extend_partitioning(
            self.partitioning,
            working.successors,
            [node_id for node_id, _, _, _ in patch.new_nodes],
            self.config.partition_depth,
        )
        records_written = 0
        for partition_id in new_partition_ids:
            records = [rows[node_id] for node_id in self.partitioning.members[partition_id]]
            working.rows[partition_id] = records
            self._partitions_file.append_extent(partition_id, records)
            records_written += len(records)

        # 4. Rewrite the partitions holding a record the patch changed.
        dirty_partitions = sorted(
            {
                self._partition_of_vertex[node_id]
                for node_id in staged
                if node_id < patch.base_nodes
            }
        )
        for partition_id in dirty_partitions:
            records = working.rows[partition_id]
            for node_id in self.partitioning.members[partition_id]:
                if node_id in rows:
                    records[self._slot_of_vertex[node_id]] = rows[node_id]
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

        # 5. Patch the object index: objects assigned to fresh vertices gain
        #    assignment segments (extensions never change a segment start).
        #    The first patch builds it whole, one write per bucket.
        if first:
            self._build_object_index(lambda object_id: segments.get(object_id, ()))
        else:
            for object_id, appended in segments.items():
                # ``bytes`` are immutable: holders of the previous bucket keep theirs.
                starts, nodes = self._object_index.get(object_id)
                new_starts, new_nodes = _pack_segments(appended)
                self._object_index.update(
                    object_id, (starts + new_starts, nodes + new_nodes)
                )

        self._release_frozen()
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

    def repack_frontier(self, min_partitions: int = 2) -> Tuple[int, ...]:
        """Fold runs of cold fragmented partitions into single depth-``dp`` extents.

        Incremental merges fragment the partition file: each increment's
        fresh vertices land in small new partitions, so a query traversing
        an old stretch of the stream pays one random IO per fragment.  This
        pass finds maximal runs of ``min_partitions``-or-more consecutive
        (in write order) *cold* partitions — partitions no future increment
        can dirty: every member frozen, closed before the horizon end and
        before the earliest unprocessed augmentation window — and rewrites
        each run as one contiguous extent, exactly as a batch build would
        have placed those vertices.  The rows come from the working set,
        which holds a cold partition while a run of at least the index's
        ``repack_min_partitions`` may still fold it; folding a shorter run
        than that raises.

        Vertex ids are untouched (the object index never changes); the old
        partition ids become tombstones and their extents on-device garbage
        for :meth:`~repro.storage.StorageSystem.reclaim`.  Partitions a
        previous repack produced never fold again, so the packed rows leave
        the working set once written.  The ``repack-pre-adopt`` fault point
        sits between the packed extent's write and the retirement of the
        fragments; crash-wise the durable catalog flips from fragments to
        packed extent atomically at the owner's next flush, together with
        the directory chunk naming the packed partitions and the retired
        ids.  Returns the retired partition ids (the vertex records
        rewritten join :attr:`records_written`).
        """
        self._require_built()
        if min_partitions < 2:
            raise IndexConstructionError(
                "repack needs min_partitions >= 2: folding a single "
                "partition is pure write amplification"
            )
        if self._storage is None:
            return ()
        assert self.partitioning is not None and self._partitions_file is not None
        working = self._working_set()
        ceiling = self._frozen_before()

        runs: List[List[int]] = []
        current: List[int] = []
        for key in self._partitions_file.extent_keys():
            partition_id = int(key)
            partition_rows = working.rows.get(partition_id)
            if (
                self.partitioning.members[partition_id]
                and partition_id not in self._packed_partitions
                and (
                    partition_rows is None
                    or all(row[2] < ceiling for row in partition_rows)
                )
            ):
                current.append(partition_id)
            else:
                if len(current) >= min_partitions:
                    runs.append(current)
                current = []
        if len(current) >= min_partitions:
            runs.append(current)

        packed: List[Tuple[int, List[int]]] = []
        for group in runs:
            if not all(partition_id in working.rows for partition_id in group):
                raise IndexConstructionError(
                    f"cannot fold a run of {len(group)}: the working set holds "
                    f"runs of {self._repack_min_partitions} or more"
                )
            merged = [
                node_id
                for partition_id in group
                for node_id in self.partitioning.members[partition_id]
            ]
            packed_id = len(self.partitioning.members)
            records = [row for partition_id in group for row in working.rows[partition_id]]
            self._partitions_file.append_extent(packed_id, records)
            # The packed extent is written but the fragments are still the
            # cataloged truth: a crash here reopens through the previous
            # manifest, which only names the fragments (the packed extent
            # is unreferenced garbage).
            crash_point("repack-pre-adopt")
            for partition_id in group:
                self._partitions_file.drop_extent(partition_id)
                self.partitioning.members[partition_id] = []
                del working.rows[partition_id]
            self._packed_partitions.add(self.partitioning.add_partition(merged))
            packed.append((packed_id, merged))
            self._records_written += len(records)
            self._repacks += 1
        retired = tuple(chain.from_iterable(runs))
        if packed:
            self._append_chunk(
                _pack_chunk(len(self._vertex_starts), partitions=packed, retired=retired)
            )
        self._release_frozen()
        return retired

    # ------------------------------------------------------------------
    # persistence (crash-consistent reopen)
    # ------------------------------------------------------------------
    def catalog(self) -> Dict[str, object]:
        """A picklable description sufficient to :meth:`restore` this index.

        Only what the partition extents cannot express is cataloged: the
        configuration (``interval_labels`` says whether the index carries
        labels), the per-resolution window cursors (the augmentation
        resumption points), and the write-amplification ledger.  The serving
        state is rebuilt from the directory on the device, and so are the
        labels, a pure function of its ``DN_1`` successor lists.
        """
        self._require_built()
        return {
            "name": self.name,
            "resolutions": list(self.config.sorted_resolutions),
            "partition_depth": self.config.partition_depth,
            "window_cursors": sorted(self._window_cursors.items()),
            "records_written": self._records_written,
            "increments": self._increments,
            "packed_partitions": sorted(self._packed_partitions),
            "repacks": self._repacks,
            "interval_labels": self._labels is not None,
        }

    @classmethod
    def restore(
        cls,
        storage: StorageSystem,
        catalog: Dict[str, object],
        horizon: TimeInterval,
        repack_min_partitions: Optional[int] = None,
    ) -> "ReachGraphIndex":
        """Reattach an index to its partition extents on a reopened device.

        ``storage`` must already hold the cataloged block files and hash
        table (the storage system's durable catalog restored them);
        ``horizon`` is the prefix the index covered when the catalog was
        written.  Only the serving state is rebuilt, from this device's
        *directory* (module docstring), checked against the partition file's
        catalog — no vertex record is read — and from the object index, the
        one copy of which object is in which vertex: its keys must be the
        directory's objects, and the *phantom* trailing segments a crash can
        leave in a bucket (:meth:`_object_histories`) are dropped, reading
        each bucket block once.  The catalog names no format: the owner's
        top metadata record carries the device's stamp
        (:data:`repro.streaming.ingest.DEVICE_FORMAT`), checked before this
        is called.

        ``repack_min_partitions`` is ``None`` for a read-only restore, which
        keeps no working set.  A resuming writer passes its owner's repack
        policy (``0``: it never repacks): it keeps the working set — the
        ``DN_1`` successor tuples from the directory, each object's current
        vertex from its bucket, and the rows of the partitions still
        unfrozen by the directory's ends, the only extents it reads, each
        row checked against the directory and the buckets (predecessors in
        source-id order, as a rebuild of the graph derives them).
        """
        resolutions = tuple(
            int(resolution) for resolution in catalog["resolutions"]  # type: ignore[union-attr]
        )
        config = ReachGraphConfig(
            resolutions=resolutions,
            partition_depth=int(catalog["partition_depth"]),  # type: ignore[arg-type]
            interval_labels=bool(catalog["interval_labels"]),
        )
        index = cls(
            None,
            config=config,
            name=str(catalog["name"]),
            defer_placement=True,
            repack_min_partitions=repack_min_partitions or 0,
        )
        index._attach_files(storage, create=False)
        index._restore_serving_state(catalog, horizon, writer=repack_min_partitions is not None)
        return index

    def _read_graph_records(self) -> List[VertexRow]:
        """Every live extent read once: the records, by vertex id.

        Vertex ids are dense (a vertex is numbered by creation order), which
        is the check that no extent lost a record.
        """
        assert self._partitions_file is not None
        records: List[VertexRow] = []
        for key in self._partitions_file.extent_keys():
            records.extend(self._partitions_file.read_extent(key))
        records.sort(key=itemgetter(0))
        for expected_id, record in enumerate(records):
            if record[0] != expected_id:
                raise IndexConstructionError(
                    f"partition extents are missing vertex {expected_id}"
                )
        return records

    def _read_directory(self) -> _Directory:
        """The directory, checked against the partition file's catalog.

        Its chunks are replayed in append order, and the directory must list
        exactly the cataloged partitions, each with as many members as its
        extent holds records, every vertex in one of them, and vertex ids in
        start order — which :meth:`vertices_starting_by` relies on.
        """
        assert self._partitions_file is not None and self._directory_file is not None
        directory = _Directory()
        for key in self._directory_file.extent_keys():
            directory.replay(b"".join(self._directory_file.read_extent(key)))
        cataloged = {
            int(key): self._partitions_file.extent(key).num_records
            for key in self._partitions_file.extent_keys()
        }
        if cataloged.keys() != directory.partitions.keys():
            raise IndexConstructionError(
                f"the directory lists partitions {sorted(directory.partitions)}, "
                f"the catalog holds extents {sorted(cataloged)}"
            )
        for partition_id, num_records in cataloged.items():
            _check_extent_size(partition_id, num_records, directory.partitions[partition_id])
        num_nodes = len(directory.starts)
        placed = sorted(chain.from_iterable(directory.partitions.values()))
        if placed != list(range(num_nodes)):
            raise IndexConstructionError(
                f"the directory's partitions do not place its {num_nodes} "
                "vertices once each"
            )
        starts = directory.starts
        if not all(map(le, starts, islice(starts, 1, None))):
            node_id = next(i for i in range(1, num_nodes) if starts[i] < starts[i - 1])
            raise IndexConstructionError(
                f"vertex {node_id} starts at t={starts[node_id]}, before "
                f"vertex {node_id - 1} (t={starts[node_id - 1]}): "
                "vertex ids are not in start order"
            )
        return directory

    def check_directory(self) -> int:
        """Compare the directory with the partition extents; returns the
        vertices checked.

        Reads every extent and the directory, and raises
        :class:`~repro.core.errors.IndexConstructionError` at the first
        disagreement: a partition the catalog and the directory do not both
        hold, a member count or member order that differs, or a vertex
        record whose start, end or successor order is not the directory's.
        The in-memory serving state must be the directory's too: the starts,
        every partition's members and the domain's objects.  Which objects a
        vertex holds is the object index's to say (:meth:`check_object_index`).
        """
        self._require_built()
        assert self._partitions_file is not None and self.partitioning is not None
        directory = self._read_directory()
        for key in self._partitions_file.extent_keys():
            partition_id = int(key)
            _check_rows(
                partition_id,
                self._partitions_file.read_extent(key),
                directory.partitions[partition_id],
                directory,
            )
        live = {
            partition_id: member_ids
            for partition_id, member_ids in enumerate(self.partitioning.members)
            if member_ids
        }
        assert self.domain is not None
        if (
            live != directory.partitions
            or self._vertex_starts != directory.starts
            or directory.object_ids != self.domain._known
        ):
            raise IndexConstructionError(
                "the in-memory partitions, vertex starts or objects are not the directory's"
            )
        return len(directory.starts)

    def _restore_serving_state(
        self, catalog: Dict[str, object], horizon: TimeInterval, writer: bool
    ) -> None:
        assert self._object_index is not None
        directory = self._read_directory()

        # 1. Partitioning from the directory.  Ids are append-ordered but
        #    may be sparse — a frontier repack retires fragment ids, leaving
        #    tombstones — so missing ids restore as empty lists.
        partitioning = Partitioning(
            partition_of={}, slot_of={}, members=[], depth=self.config.partition_depth
        )
        for partition_id in range(max(directory.partitions, default=-1) + 1):
            partitioning.add_partition(directory.partitions.get(partition_id, []))
        self._adopt_partitioning(partitioning)
        self._vertex_starts = directory.starts

        # 2. Maintenance state and the write-amplification ledger.
        self._window_cursors = {
            int(resolution): int(cursor)
            for resolution, cursor in catalog["window_cursors"]  # type: ignore[union-attr]
        }
        self._records_written = int(catalog["records_written"])  # type: ignore[arg-type]
        self._increments = int(catalog["increments"])  # type: ignore[arg-type]
        self._packed_partitions = {
            int(partition_id)
            for partition_id in catalog["packed_partitions"]  # type: ignore[union-attr]
        }
        self._repacks = int(catalog["repacks"])  # type: ignore[arg-type]
        if self.config.interval_labels:
            self._labels = ReachLabelIndex(directory.successors)

        # 3. The domain is the directory's objects; the object index must
        #    hold exactly them, each history ending in a committed vertex.
        self.domain = GraphDomain(directory.object_ids, horizon)
        self._built = True
        histories = self._object_histories()

        # 4. A writer's working set.
        if writer:
            self._hold_working_set(directory, histories)

    def _object_histories(self) -> Dict[ObjectId, Sequence[int]]:
        """Each object's committed vertices in id order, one read per bucket.

        The object index is the one copy of which object is in which vertex.
        Its keys must be the domain's objects.  A bucket rewrite goes through
        the buffer pool in place, so a crash can leave a bucket durably ahead
        of the committed graph: *phantom* trailing segments naming a vertex
        at or past the committed vertex count (they start after the committed
        horizon, so no query clipped to it selects them).  They are dropped,
        and the last segment left must start where its vertex does — a
        bucket is checked no further here (:meth:`check_object_index` reads
        them all).  A trimmed bucket is rewritten in the buffer pool (a
        read-only owner never flushes it).
        """
        assert self._object_index is not None and self.domain is not None
        vertex_starts = self._vertex_starts
        num_nodes = len(vertex_starts)
        histories: Dict[ObjectId, Sequence[int]] = {}
        rewrites: List[Tuple[ObjectId, AssignmentHistory]] = []
        for object_id, (starts, nodes) in self._object_index.items():
            start_of, node_ids = _int64s(starts), _int64s(nodes)
            count = len(node_ids)
            if count and node_ids[-1] >= num_nodes:
                count = bisect_left(node_ids, num_nodes)
            if not count or start_of[count - 1] != vertex_starts[node_ids[count - 1]]:
                raise IndexConstructionError(
                    f"the object-index bucket of object {object_id} does not "
                    f"end in a committed vertex of the {num_nodes}"
                )
            if count < len(node_ids):
                node_ids = node_ids[:count]
                rewrites.append((object_id, (start_of[:count].tobytes(), node_ids.tobytes())))
            histories[object_id] = node_ids
        if histories.keys() != self.domain._known:
            raise IndexConstructionError(
                f"the object index holds objects {sorted(histories)}, the "
                f"directory names {list(self.domain.object_ids)}"
            )
        for object_id, history in rewrites:
            self._object_index.update(object_id, history)
        return histories

    def check_object_index(self) -> int:
        """Compare every object-index bucket with the partition extents;
        returns the objects checked.

        Reads every extent and every bucket, and raises
        :class:`~repro.core.errors.IndexConstructionError` at the first
        disagreement: an object the buckets and the records' members do not
        both hold, or a history that is not the vertices holding its object,
        in id order, each segment starting where its vertex does.
        """
        self._require_built()
        assert self._object_index is not None and self.domain is not None
        records = self._read_graph_records()
        truth: Dict[ObjectId, List[int]] = {}
        for row in records:
            for member in row[3]:
                truth.setdefault(member, []).append(row[0])
        buckets = dict(self._object_index.items())
        if buckets.keys() != truth.keys() or truth.keys() != self.domain._known:
            raise IndexConstructionError(
                f"the object index holds objects {sorted(buckets)}, the "
                f"records hold {sorted(truth)}"
            )
        for object_id, nodes in truth.items():
            starts, stored = buckets[object_id]
            if list(_int64s(stored)) != nodes or list(_int64s(starts)) != [
                records[node_id][1] for node_id in nodes
            ]:
                raise IndexConstructionError(
                    f"the object-index bucket of object {object_id} is not "
                    f"the history of vertices {nodes}"
                )
        return len(truth)

    def _materialize_graph(self) -> HyperGraph:
        """Rebuild the whole graph in memory from the partition extents.

        Vertices are added in id order — reproducing vertex ids and each
        object's assignment-segment order — and every adjacency list,
        long-edge layers included, is taken in the order its record holds
        it: the order the writer held when it wrote the record.
        """
        assert self.domain is not None
        records = self._read_graph_records()
        dag = ContactDag(self.domain.horizon, len(self.domain.object_ids))
        layers = {
            resolution: LongEdgeLayer(resolution)
            for resolution in self.config.sorted_resolutions
        }
        for node_id, start, end, members, successors, predecessors, long_successors in records:
            dag.add_node(TimeInterval(start, end), frozenset(members))
            dag.forward[node_id] = list(successors)
            dag.backward[node_id] = list(predecessors)
            for resolution, targets in long_successors:
                layers[resolution].forward[node_id] = list(targets)
        return HyperGraph(dag, list(layers.values()))

    # ------------------------------------------------------------------
    # state checks
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("ReachGraphIndex.build() has not been called")

    # ------------------------------------------------------------------
    # query-time access (all charged IO)
    # ------------------------------------------------------------------
    def find_vertex_id(self, object_id: ObjectId, t: TimeInstant) -> int:
        """Vertex containing ``object_id`` at time ``t`` (one hash-bucket read)."""
        self._require_built()
        assert self._object_index is not None
        history: Optional[AssignmentHistory] = self._object_index.get(object_id)
        if history is None:
            raise UnknownObjectError(object_id)
        starts, nodes = history
        # The last segment starting at or before ``t``.
        position = bisect_right(_int64s(starts), t)
        if position == 0:
            raise IndexConstructionError(
                f"object {object_id} has no component at time {t}"
            )
        return _int64s(nodes)[position - 1]

    def vertices_starting_by(self, t: TimeInstant) -> int:
        """How many vertices start at or before ``t`` (in memory, no IO).

        Vertex ids are in start order (checked on restore), so vertex ``v``
        starts by ``t`` exactly when ``v < vertices_starting_by(t)``.
        """
        return bisect_right(self._vertex_starts, t)

    def partition_of(self, node_id: int) -> int:
        """Partition holding vertex ``node_id`` (in-memory directory lookup)."""
        self._require_built()
        return self._partition_of_vertex[node_id]

    def locate(self, node_id: int) -> Tuple[int, int]:
        """``(partition_id, slot)`` of vertex ``node_id`` (in-memory directory).

        ``read_partition(partition_id)[slot]`` is the vertex's record: a
        partition's record order is its member order, fixed once written.
        """
        return self._partition_of_vertex[node_id], self._slot_of_vertex[node_id]

    def read_partition(self, partition_id: int) -> Sequence[VertexRow]:
        """Read every vertex record of one partition from disk (charged IO).

        The records come back in member order, so a :meth:`locate` slot
        indexes them directly; an extent holding another number of records
        than the partition has members is refused rather than mis-addressed.
        The whole extent is charged here; a block of it is decoded when one
        of its records is first indexed (a block holding another number of
        records than the directory places there is refused then).
        """
        self._require_built()
        assert self._partitions_file is not None and self.partitioning is not None
        records = self._partitions_file.read_extent(partition_id)
        expected = len(self.partitioning.members[partition_id])
        if len(records) != expected:
            raise IndexConstructionError(
                f"partition {partition_id} holds {len(records)} records on the "
                f"device, its directory lists {expected} members"
            )
        return records

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of ``HN`` vertices (every one has a slot in the directory)."""
        self._require_built()
        return len(self._partition_of_vertex)

    @property
    def num_partitions(self) -> int:
        """Number of disk partitions."""
        self._require_built()
        assert self.partitioning is not None
        return self.partitioning.num_partitions

    @property
    def num_blocks(self) -> int:
        """Number of disk blocks occupied by the live partition extents."""
        self._require_built()
        assert self._partitions_file is not None
        return self._partitions_file.num_blocks

    @property
    def records_written(self) -> int:
        """Vertex records ever written (build + increment rewrites): the ledger."""
        return self._records_written

    @property
    def superseded_blocks(self) -> int:
        """Blocks of partition extents superseded by increment rewrites."""
        if self._partitions_file is None:
            return 0
        return self._partitions_file.superseded_blocks

    @property
    def num_increments(self) -> int:
        """Increments applied since the build."""
        return self._increments

    @property
    def num_repacks(self) -> int:
        """Frontier repack folds performed since the build."""
        return self._repacks

    @property
    def labels(self) -> Optional[ReachLabelIndex]:
        """The interval-label fast path, or ``None`` when disabled."""
        return self._labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "built" if self._built else "not built"
        return (
            f"ReachGraphIndex({self.domain!r}, "
            f"resolutions={self.config.sorted_resolutions}, "
            f"dp={self.config.partition_depth}, {status})"
        )
