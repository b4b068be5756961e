"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.cli list                 # show available experiments
    python -m repro.cli figure13             # run one experiment
    python -m repro.cli all --output out.txt # run everything, save the report
    python -m repro.cli figure14 --quick     # smaller workloads, faster run
    python -m repro.cli stream --quick       # streaming ingest vs batch reference
    python -m repro.cli stream --storage-backend file  # ... on a real block file
    python -m repro.cli stream-disk          # sim vs file vs mmap comparison
    python -m repro.cli stream-space         # GC: live vs device blocks
    python -m repro.cli table5 --json out.json  # machine-readable results too

Besides the experiments, ``recover`` reopens the durable state a streaming
service left (or a crash stranded) on disk and answers through it::

    python -m repro.cli recover --storage-dir state/
    python -m repro.cli recover --storage-dir state/ --probe 0 5  # sample query
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core.config import STORAGE_BACKENDS
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
    "stream-disk": {"dataset_names": ("rwp-tiny",), "num_queries": 6},
    "stream-space": {"dataset_names": ("rwp-tiny",), "num_queries": 6, "max_delta_contacts": 24},
    "stream-query": {"dataset_names": ("rwp-tiny",), "num_queries": 8, "max_delta_contacts": 24},
}

#: How --storage-backend NAME is injected, per experiment that runs its
#: streaming services behind a selectable block device.
_STORAGE_BACKEND_KWARGS = {
    "stream": lambda backend: {"storage_backend": backend},
    "stream-disk": lambda backend: {"backends": (backend,)},
    "stream-space": lambda backend: {"backends": (backend,)},
    "stream-query": lambda backend: {"storage_backend": backend},
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
            "'stream'; services built via engine.streaming()/for_dataset "
            "persist under '<dataset>-stream')"
        ),
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
    )
    try:
        print(f"reopened: {service!r}")
        print(f"committed watermark: {service.watermark}")
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


def _run_one(name: str, quick: bool, storage_backend: Optional[str] = None):
    driver = EXPERIMENTS[name]
    kwargs = dict(_QUICK_OVERRIDES.get(name, {})) if quick else {}
    if storage_backend is not None and name in _STORAGE_BACKEND_KWARGS:
        kwargs.update(_STORAGE_BACKEND_KWARGS[name](storage_backend))
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

    results = []
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        results.append(
            _run_one(name, args.quick, storage_backend=args.storage_backend)
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
