"""Benchmark inputs: everything a workload consumes is generated here.

All four workloads share one dataset so that differences between them come
from how the stack is used, not from the data.  It has the ``rwp-medium``
*shape* (random waypoint, 25 m contact range, RT=20/RS=400 grid, the same
object density and generator seed) at 120 objects x 400 ticks, because the
driver's time cap allows about half a minute per run, set-up included, and a
steady value needs several rounds inside that.  ``--seed`` draws the queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.baselines.reference import evaluate_reachability
from repro.contacts import Contact, ContactNetwork, build_contact_network
from repro.core.config import ReachGridConfig
from repro.core.types import ReachabilityQuery, TimeInterval
from repro.streaming import replay
from repro.streaming.events import StreamBatch
from repro.trajectory.model import TrajectoryDataset
from repro.workloads.datasets import DatasetSpec
from repro.workloads.queries import fixed_length_queries, random_queries

__all__ = [
    "FULL",
    "SMOKE",
    "Scale",
    "Inputs",
    "ReferenceOracle",
    "make_inputs",
    "with_queries",
]

#: Objects per square metre of ``rwp-medium`` (400 objects on 1600 m x 1600 m).
_DENSITY = 400 / (1600.0 * 1600.0)

#: A tagged query: (class name, query).  The class decides which layer the
#: query is expected to exercise (see the interaction table in the README).
TaggedQuery = Tuple[str, ReachabilityQuery]


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    objects: int
    horizon: int
    graph_default_queries: int  # batch-paper: paper-default U[150,350]
    graph_short_queries: int  # batch-paper: length 40, mostly negative
    grid_queries: int  # batch-paper: paper-default through ReachGrid
    queries_per_batch: int  # stream-mixed: queries after every ingest
    serve_queries: int  # serve-reopen: read-only queries per round
    verify_queries: int  # ingest-durable: queries on the resumed service


FULL = Scale(
    objects=120,
    horizon=400,
    graph_default_queries=400,
    graph_short_queries=200,
    grid_queries=10,
    queries_per_batch=3,
    serve_queries=600,
    verify_queries=600,
)
SMOKE = Scale(
    objects=40,
    horizon=200,
    graph_default_queries=40,
    graph_short_queries=20,
    grid_queries=5,
    queries_per_batch=2,
    serve_queries=80,
    verify_queries=40,
)

#: Generator seed of the trajectories (``rwp-medium``'s own).  ``--seed`` draws
#: the queries, not the trajectories: at a size that fits the driver's time cap
#: a fresh random-waypoint world moves every count by 5-15 % (contacts, DAG
#: shape, reachable share), which is several times what the driver allows the
#: spread over ten seeds to be, while fresh queries over one world move them
#: by 1-7 %.
_DATASET_SEED = 12

#: An object id no generated dataset contains (Bloom-reject queries).
_UNKNOWN_BASE = 1_000_000


def dataset_spec(scale: Scale) -> DatasetSpec:
    """The benchmark's dataset spec: ``rwp-medium`` density and generator seed."""
    side = round((scale.objects / _DENSITY) ** 0.5, 1)
    return DatasetSpec(
        name="bench",
        family="rwp",
        num_objects=scale.objects,
        horizon=scale.horizon,
        environment_size=(side, side),
        contact_threshold=25.0,
        grid_config=ReachGridConfig(temporal_resolution=20, spatial_resolution=400.0),
        seed=_DATASET_SEED,
    )


class _Window:
    """The slice of a contact network handed to the reference evaluator."""

    def __init__(self, contacts: List[Contact]) -> None:
        self.contacts = contacts


class ReferenceOracle:
    """``evaluate_reachability`` over the full batch network, pre-filtered.

    The evaluator only looks at contacts overlapping the query interval; a
    bucket index hands it exactly those (a superset per bucket), which keeps
    checking thousands of answers to a few seconds.  Valid for every query a
    workload issues because each interval ends at or before the watermark it
    was asked at.
    """

    _BUCKET = 50

    def __init__(self, network: ContactNetwork) -> None:
        self._buckets: Dict[int, List[Tuple[int, Contact]]] = {}
        for order, contact in enumerate(network.contacts):
            first = contact.validity.start // self._BUCKET
            last = contact.validity.end // self._BUCKET
            for bucket in range(first, last + 1):
                self._buckets.setdefault(bucket, []).append((order, contact))

    def reachable(self, query: ReachabilityQuery) -> bool:
        """The ground-truth answer of ``query``."""
        interval = query.interval
        seen: Dict[int, Contact] = {}
        for bucket in range(
            interval.start // self._BUCKET, interval.end // self._BUCKET + 1
        ):
            seen.update(self._buckets.get(bucket, ()))
        contacts = [seen[order] for order in sorted(seen)]
        return evaluate_reachability(_Window(contacts), query).reachable


@dataclass
class Inputs:
    """What one round of a workload consumes, generated from ``(workload, seed, scale)``.

    The world (dataset, network, batches) is the same in every round; the
    queries are drawn afresh for each (:func:`with_queries`).  Only the lists
    the workload uses are filled, so that ``setup_s`` is the workload's own
    set-up and not the sum of all four.
    """

    workload: str
    seed: int
    scale: Scale
    spec: DatasetSpec
    dataset: TrajectoryDataset
    network: ContactNetwork
    oracle: ReferenceOracle
    events: int
    batches: List[StreamBatch] = field(default_factory=list)
    #: batch-paper: BM-BFS queries, then ReachGrid queries.
    graph_queries: List[TaggedQuery] = field(default_factory=list)
    grid_queries: List[TaggedQuery] = field(default_factory=list)
    #: stream-mixed: the queries issued after batch ``i``.
    stream_queries: List[List[TaggedQuery]] = field(default_factory=list)
    #: serve-reopen's read-only mix; ingest-durable's verification queries.
    serve_queries: List[TaggedQuery] = field(default_factory=list)


def _interval(rng: random.Random, lo: int, hi: int, lengths: Tuple[int, int]) -> TimeInterval:
    """A random interval inside ``[lo, hi]`` with length drawn from ``lengths``."""
    span = hi - lo + 1
    length = min(rng.randint(*lengths), span)
    start = rng.randint(lo, hi - length + 1)
    return TimeInterval(start, start + length - 1)


def _pair(rng: random.Random, objects: Sequence[int]) -> Tuple[int, int]:
    source, destination = rng.sample(objects, 2)
    return source, destination


def _stream_queries(
    rng: random.Random,
    objects: Sequence[int],
    origin: int,
    batches: List[StreamBatch],
    per_batch: int,
) -> List[List[TaggedQuery]]:
    """stream-mixed: 40 % recent, 40 % historical, 10 % long, 10 % repeat."""
    plan: List[List[TaggedQuery]] = []
    for batch in batches:
        watermark = batch.watermark
        issued: List[TaggedQuery] = []
        for _ in range(per_batch):
            kind = rng.choices(
                ("recent", "historical", "long", "repeat"), (40, 40, 10, 10)
            )[0]
            if kind == "repeat" and not issued:
                kind = "recent"
            if kind == "historical" and watermark - origin < 65:
                kind = "recent"  # nothing lies 60 ticks behind the watermark yet
            if kind == "repeat":
                issued.append(("repeat", rng.choice(issued)[1]))
                continue
            source, destination = _pair(rng, objects)
            if kind == "recent":
                length = min(rng.randint(5, 60), watermark - origin + 1)
                interval = TimeInterval(watermark - length + 1, watermark)
            elif kind == "historical":
                interval = _interval(rng, origin, watermark - 60, (5, 120))
            else:
                interval = _interval(rng, origin, watermark, (150, 350))
            issued.append((kind, ReachabilityQuery(source, destination, interval)))
        plan.append(issued)
    return plan


def _serve_queries(
    rng: random.Random, objects: Sequence[int], horizon: TimeInterval, count: int
) -> List[TaggedQuery]:
    """serve-reopen: 3/8 hot, 2/8 uniform, 1/8 long, 1/8 edge, 1/8 unknown."""
    hot_lo = horizon.start + horizon.length // 4
    hot_hi = min(hot_lo + 99, horizon.end - 1)
    queries: List[TaggedQuery] = []
    for index in range(count):
        kind = ("hot", "hot", "hot", "uniform", "uniform", "long", "edge", "unknown")[
            index % 8
        ]
        source, destination = _pair(rng, objects)
        if kind == "hot":
            # A fixed 100-tick window: its partitions fit the 64-partition
            # cache and the 256-block buffer pool.
            interval = _interval(rng, hot_lo, hot_hi, (5, 60))
        elif kind == "uniform":
            interval = _interval(rng, horizon.start, horizon.end - 1, (5, 120))
        elif kind == "long":
            interval = _interval(rng, horizon.start, horizon.end - 1, (150, 350))
        elif kind == "edge":
            # Touches the final watermark: union path with open contacts.
            length = min(rng.randint(5, 60), horizon.length)
            interval = TimeInterval(horizon.end - length + 1, horizon.end)
        else:
            # An endpoint the stream never saw: the run Bloom filters reject.
            interval = _interval(rng, horizon.start, horizon.end, (5, 120))
            if rng.random() < 0.5:
                source = _UNKNOWN_BASE + index
            else:
                destination = _UNKNOWN_BASE + index
        queries.append((kind, ReachabilityQuery(source, destination, interval)))
    rng.shuffle(queries)
    return queries


def make_inputs(workload: str, seed: int, scale: Scale) -> Inputs:
    """Generate the dataset, the reference network and round 0's queries."""
    spec = dataset_spec(scale)
    dataset = spec.generate()
    network = build_contact_network(dataset, spec.contact_threshold)
    ticks = {"batch-paper": None, "serve-reopen": 8}.get(workload, 2)  # 8: the default
    inputs = Inputs(
        workload=workload,
        seed=seed,
        scale=scale,
        spec=spec,
        dataset=dataset,
        network=network,
        oracle=ReferenceOracle(network),
        events=dataset.num_objects * dataset.num_instants,
        batches=[] if ticks is None else list(replay(dataset, batch_ticks=ticks).batches()),
    )
    return with_queries(inputs, 0)


def with_queries(inputs: Inputs, sample: int) -> Inputs:
    """``inputs`` with the queries of round ``sample``: same world, fresh draw.

    Every round of a run asks different queries, so a run's timings average
    over several samples of the query population, not over one.
    """
    workload, scale, dataset = inputs.workload, inputs.scale, inputs.dataset
    objects = dataset.object_ids
    horizon = dataset.horizon
    # One generator per workload, so a workload's queries do not depend on
    # which other workloads were generated before it.
    rng = random.Random(f"{workload}/{inputs.seed}/{sample}")
    if workload == "batch-paper":
        graph_queries = [
            ("default", q)
            for q in random_queries(
                dataset, count=scale.graph_default_queries, seed=rng.randrange(2**31)
            )
        ] + [
            ("short", q)
            for q in fixed_length_queries(
                dataset,
                length=40,
                count=scale.graph_short_queries,
                seed=rng.randrange(2**31),
            )
        ]
        rng.shuffle(graph_queries)
        grid_queries = [
            ("grid", q)
            for q in random_queries(
                dataset, count=scale.grid_queries, seed=rng.randrange(2**31)
            )
        ]
        return replace(inputs, graph_queries=graph_queries, grid_queries=grid_queries)
    if workload == "stream-mixed":
        return replace(
            inputs,
            stream_queries=_stream_queries(
                rng, objects, horizon.start, inputs.batches, scale.queries_per_batch
            ),
        )
    if workload == "serve-reopen":
        return replace(
            inputs, serve_queries=_serve_queries(rng, objects, horizon, scale.serve_queries)
        )
    if workload == "ingest-durable":
        # The serve-reopen classes minus the unknown endpoints, asked of the
        # resumed service at the final watermark.
        drawn = _serve_queries(rng, objects, horizon, 2 * scale.verify_queries)
        known = [tagged for tagged in drawn if tagged[0] != "unknown"]
        return replace(inputs, serve_queries=known[: scale.verify_queries])
    raise ValueError(f"unknown workload {workload!r}")
