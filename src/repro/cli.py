"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.cli list                 # show available experiments
    python -m repro.cli figure13             # run one experiment
    python -m repro.cli all --output out.txt # run everything, save the report
    python -m repro.cli figure14 --quick     # smaller workloads, faster run
    python -m repro.cli stream --quick       # streaming ingest vs batch reference
    python -m repro.cli stream --shards 4    # ... on 4 ingestion shards
    python -m repro.cli stream --storage-backend file  # ... on a real block file
    python -m repro.cli stream-sharded       # shard-count scaling curve
    python -m repro.cli stream-async --concurrency 8  # sync vs asyncio serving
    python -m repro.cli stream-disk          # sim vs file vs mmap comparison
    python -m repro.cli stream-space         # GC: live vs device blocks
    python -m repro.cli stream-parallel      # merge-executor scaling curve
    python -m repro.cli stream --merge-executor process --merge-workers 4
    python -m repro.cli table5 --json out.json  # machine-readable results too

Besides the experiments, ``recover`` reopens the durable state a streaming
service left (or a crash stranded) on disk and answers through it::

    python -m repro.cli recover --storage-dir state/            # unsharded
    python -m repro.cli recover --storage-dir state/ --sharded  # sharded/async
    python -m repro.cli recover --storage-dir state/ --probe 0 5  # sample query
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core.config import MERGE_EXECUTORS, STORAGE_BACKENDS
from .experiments.figures import EXPERIMENTS
from .experiments.report import format_result, format_results_json

__all__ = ["main", "build_parser"]

#: Keyword overrides applied in --quick mode (smaller workloads, tiny datasets).
_QUICK_OVERRIDES = {
    "figure8": {"dataset_name": "rwp-tiny", "num_queries": 8},
    "figure9": {"dataset_names": ("rwp-tiny",), "horizon_fractions": (0.5, 1.0)},
    "figure10": {"dataset_names": ("rwp-tiny",), "horizon_fractions": (0.5, 1.0)},
    "figure11": {"dataset_names": ("rwp-tiny", "vn-tiny"), "horizon_fractions": (1.0,)},
    "reduction": {"dataset_names": ("rwp-tiny", "vn-tiny")},
    "table4": {"dataset_names": ("rwp-tiny", "vn-tiny")},
    "figure12": {"dataset_name": "rwp-tiny", "depths": (1, 4, 16, 64), "num_queries": 8},
    "figure13": {"dataset_names": ("rwp-tiny", "vn-tiny"), "num_queries": 8},
    "spj": {"dataset_names": ("rwp-tiny", "vn-tiny"), "num_queries": 5},
    "figure14": {"dataset_names": ("rwp-tiny", "vn-tiny"), "lengths": (50, 100, 200), "num_queries": 6},
    "figure15": {"dataset_names": ("rwp-tiny", "vn-tiny"), "lengths": (50, 100, 200), "num_queries": 6},
    "table5": {"dataset_names": ("rwp-tiny", "vn-tiny"), "num_queries": 8, "query_length": 100},
    "stream": {"dataset_names": ("rwp-tiny",), "num_queries": 6},
    "stream-sharded": {"dataset_names": ("rwp-tiny",), "num_queries": 6, "shard_counts": (1, 2, 4)},
    "stream-async": {"dataset_names": ("rwp-tiny",), "num_queries": 6, "queries_per_batch": 2},
    "stream-disk": {"dataset_names": ("rwp-tiny",), "num_queries": 6},
    "stream-space": {"dataset_names": ("rwp-tiny",), "num_queries": 6, "max_delta_contacts": 24},
    "stream-query": {"dataset_names": ("rwp-tiny",), "num_queries": 8, "max_delta_contacts": 24},
    "stream-parallel": {
        "dataset_names": ("rwp-tiny",),
        "num_queries": 6,
        "worker_counts": (1, 2),
        "shards": 2,
        "max_delta_contacts": 24,
    },
}

#: How --shards N is injected, per experiment that understands sharding.
_SHARD_KWARGS = {
    "stream": lambda shards: {"shards": shards},
    "stream-sharded": lambda shards: {"shard_counts": (shards,)},
    "stream-async": lambda shards: {"shards": shards},
    "stream-parallel": lambda shards: {"shards": shards},
}

#: How --storage-backend NAME is injected, per experiment that runs its
#: streaming services behind a selectable block device.
_STORAGE_BACKEND_KWARGS = {
    "stream": lambda backend: {"storage_backend": backend},
    "stream-sharded": lambda backend: {"storage_backend": backend},
    "stream-async": lambda backend: {"storage_backend": backend},
    "stream-disk": lambda backend: {"backends": (backend,)},
    "stream-space": lambda backend: {"backends": (backend,)},
    "stream-parallel": lambda backend: {"storage_backend": backend},
    "stream-query": lambda backend: {"storage_backend": backend},
}

#: How --concurrency N is injected, per experiment that serves queries
#: concurrently with ingestion.
_CONCURRENCY_KWARGS = {
    "stream-async": lambda concurrency: {"concurrency": concurrency},
}

#: How --merge-executor KIND (and --merge-workers N) are injected, per
#: experiment whose streaming service runs merge builds through an executor.
_MERGE_EXECUTOR_KWARGS = {
    "stream": lambda kind: {"merge_executor": kind},
    "stream-parallel": lambda kind: {"executors": (kind,)},
}

_MERGE_WORKERS_KWARGS = {
    "stream": lambda workers: {"merge_workers": workers},
    "stream-parallel": lambda workers: {"worker_counts": (workers,)},
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the experiments CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Efficient Reachability "
            "Query Evaluation in Large Spatiotemporal Contact Datasets' "
            "(VLDB 2012) on scaled-down datasets."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (e.g. figure13, table5), 'all', 'list', or "
            "'recover' (reopen a streaming service's durable state)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use tiny datasets and small workloads (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "also emit machine-readable JSON results; pass a file path, "
            "or '-' to print the JSON to stdout after the text report"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=None,
        help=(
            "run streaming experiments with N ingestion shards "
            f"(applies to: {', '.join(sorted(_SHARD_KWARGS))})"
        ),
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        metavar="N",
        default=None,
        help=(
            "issue N concurrent queries against the asyncio serving front-end "
            f"(applies to: {', '.join(sorted(_CONCURRENCY_KWARGS))})"
        ),
    )
    parser.add_argument(
        "--merge-executor",
        choices=MERGE_EXECUTORS,
        default=None,
        help=(
            "run merge builds inline, on a thread pool, or on worker "
            f"processes (applies to: {', '.join(sorted(_MERGE_EXECUTOR_KWARGS))})"
        ),
    )
    parser.add_argument(
        "--merge-workers",
        type=int,
        metavar="N",
        default=None,
        help=(
            "pool size for --merge-executor thread/process "
            f"(applies to: {', '.join(sorted(_MERGE_WORKERS_KWARGS))})"
        ),
    )
    parser.add_argument(
        "--storage-backend",
        choices=STORAGE_BACKENDS,
        default=None,
        help=(
            "run streaming experiments on this block-device backend "
            f"(applies to: {', '.join(sorted(_STORAGE_BACKEND_KWARGS))}); "
            "for 'recover', the backend the state was written with "
            "(default: file)"
        ),
    )
    parser.add_argument(
        "--storage-dir",
        metavar="DIR",
        default=None,
        help="directory holding a streaming service's device files ('recover')",
    )
    parser.add_argument(
        "--name",
        metavar="NAME",
        default=None,
        help=(
            "service name the state was written under ('recover'; default: "
            "'stream' unsharded, 'sharded-stream' with --sharded; services "
            "built via engine.streaming()/for_dataset persist under "
            "'<dataset>-stream', '<dataset>-sharded', or '<dataset>-async')"
        ),
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="reopen a sharded (or async) service's state ('recover')",
    )
    parser.add_argument(
        "--probe",
        nargs=2,
        type=int,
        metavar=("SRC", "DST"),
        default=None,
        help=(
            "after reopening, answer one reachability probe from object SRC "
            "to object DST over the committed prefix ('recover')"
        ),
    )
    return parser


def _run_recover(args, parser: argparse.ArgumentParser) -> int:
    """Reopen durable streaming state and report what was recovered."""
    from .core.engine import ReachabilityEngine
    from .core.types import ReachabilityQuery, TimeInterval

    if args.storage_dir is None:
        parser.error("recover requires --storage-dir")
    service = ReachabilityEngine.reopen_streaming(
        args.storage_backend or "file",
        args.storage_dir,
        name=args.name,
        sharded=args.sharded,
    )
    try:
        print(f"reopened: {service!r}")
        print(f"committed watermark: {service.watermark}")
        if args.sharded:
            print(f"shards: {service.num_shards}")
            print(f"cross-shard contacts: {len(service.cross_shard_contacts)}")
        else:
            path = "reachgraph" if service.overlay.has_reachgraph else "union"
            print(f"query path: {path}")
        if args.probe is not None:
            source, destination = args.probe
            interval = TimeInterval(0, service.watermark)
            result = service.query(
                ReachabilityQuery(
                    source=source, destination=destination, interval=interval
                )
            )
            print(
                f"probe o{source} ~{interval}~> o{destination}: "
                f"reachable={bool(result)}, earliest={result.earliest_time}"
            )
    finally:
        service.close()
    return 0


def _run_one(
    name: str,
    quick: bool,
    shards: Optional[int] = None,
    concurrency: Optional[int] = None,
    storage_backend: Optional[str] = None,
    merge_executor: Optional[str] = None,
    merge_workers: Optional[int] = None,
):
    driver = EXPERIMENTS[name]
    kwargs = dict(_QUICK_OVERRIDES.get(name, {})) if quick else {}
    if shards is not None and name in _SHARD_KWARGS:
        kwargs.update(_SHARD_KWARGS[name](shards))
    if concurrency is not None and name in _CONCURRENCY_KWARGS:
        kwargs.update(_CONCURRENCY_KWARGS[name](concurrency))
    if storage_backend is not None and name in _STORAGE_BACKEND_KWARGS:
        kwargs.update(_STORAGE_BACKEND_KWARGS[name](storage_backend))
    if merge_executor is not None and name in _MERGE_EXECUTOR_KWARGS:
        kwargs.update(_MERGE_EXECUTOR_KWARGS[name](merge_executor))
    if merge_workers is not None and name in _MERGE_WORKERS_KWARGS:
        kwargs.update(_MERGE_WORKERS_KWARGS[name](merge_workers))
    return driver(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "recover":
        return _run_recover(args, parser)

    if args.experiment == "list":
        for name, driver in EXPERIMENTS.items():
            doc = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0

    if args.experiment == "all":
        names: List[str] = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'/'list'"
        )
        return 2  # pragma: no cover - parser.error raises SystemExit

    if args.shards is not None and args.shards <= 0:
        parser.error("--shards must be positive")
    if args.concurrency is not None and args.concurrency <= 0:
        parser.error("--concurrency must be positive")
    if args.merge_workers is not None and args.merge_workers <= 0:
        parser.error("--merge-workers must be positive")
    results = []
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        results.append(
            _run_one(
                name,
                args.quick,
                shards=args.shards,
                concurrency=args.concurrency,
                storage_backend=args.storage_backend,
                merge_executor=args.merge_executor,
                merge_workers=args.merge_workers,
            )
        )
    report = "\n\n".join(format_result(result) for result in results)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if args.json is not None:
        document = format_results_json(results)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
