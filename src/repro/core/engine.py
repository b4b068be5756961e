"""The high-level facade tying datasets, indexes, and query processing together.

:class:`ReachabilityEngine` is the entry point most users want: give it a
trajectory dataset (or the name of a canned one), ask it to build ReachGrid
and/or ReachGraph, and evaluate reachability queries through whichever method
you choose — the engine wires up contact extraction, index construction, and
the query processors, and exposes the baselines on the same dataset for
comparison.

Example
-------
>>> from repro import ReachabilityEngine, ReachabilityQuery, TimeInterval
>>> engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
>>> engine.build_reachgraph()
>>> query = ReachabilityQuery(source=0, destination=5, interval=TimeInterval(0, 100))
>>> result = engine.evaluate(query, method="reachgraph")
>>> bool(result), result.io  # doctest: +SKIP
(True, 3.1)
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.config import (
    ContactConfig,
    GrailConfig,
    ReachGraphConfig,
    ReachGridConfig,
    StorageConfig,
    StreamingConfig,
)
from ..core.errors import ConfigurationError, IndexNotBuiltError, QueryError
from ..core.types import QueryResult, ReachabilityQuery
from ..contacts.join import build_contact_network
from ..contacts.network import ContactNetwork
from ..trajectory.model import TrajectoryDataset

__all__ = ["ReachabilityEngine"]

#: Query evaluation methods understood by :meth:`ReachabilityEngine.evaluate`.
METHODS = (
    "reachgrid",
    "reachgraph",
    "reachgraph-b-bfs",
    "reachgraph-e-dfs",
    "spj",
    "grail-memory",
    "grail-disk",
    "reference",
)


class ReachabilityEngine:
    """One-stop facade over the indexes and baselines of this library."""

    def __init__(
        self,
        dataset: TrajectoryDataset,
        contact_config: ContactConfig | None = None,
        storage_config: StorageConfig | None = None,
    ) -> None:
        self.dataset = dataset
        self.contact_config = contact_config or ContactConfig()
        self.storage_config = storage_config or StorageConfig()
        self._network: Optional[ContactNetwork] = None
        self._reachgrid = None
        self._reachgrid_processor = None
        self._reachgraph = None
        self._reachgraph_processor = None
        self._trajectory_store = None
        self._spj = None
        self._grail = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset_name(
        cls,
        name: str,
        storage_config: StorageConfig | None = None,
    ) -> "ReachabilityEngine":
        """Create an engine from one of the canned dataset specs."""
        from ..workloads.datasets import DATASETS

        spec = DATASETS[name]
        return cls(
            spec.generate(),
            contact_config=spec.contact_config,
            storage_config=storage_config,
        )

    # ------------------------------------------------------------------
    # shared substrate
    # ------------------------------------------------------------------
    @property
    def contact_network(self) -> ContactNetwork:
        """The contact network of the dataset (built lazily, then cached)."""
        if self._network is None:
            self._network = build_contact_network(
                self.dataset, self.contact_config.distance_threshold
            )
        return self._network

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------
    def build_reachgrid(self, config: ReachGridConfig | None = None):
        """Build the ReachGrid index (returns it)."""
        from ..reachgrid import ReachGridIndex, ReachGridQueryProcessor

        self._reachgrid = ReachGridIndex(
            self.dataset,
            config=config,
            contact_config=self.contact_config,
            storage_config=self.storage_config,
        ).build()
        self._reachgrid_processor = ReachGridQueryProcessor(self._reachgrid)
        return self._reachgrid

    def build_reachgraph(self, config: ReachGraphConfig | None = None):
        """Build the ReachGraph index (returns it)."""
        from ..reachgraph import ReachGraphIndex, ReachGraphQueryProcessor

        self._reachgraph = ReachGraphIndex(
            self.dataset,
            config=config,
            contact_config=self.contact_config,
            storage_config=self.storage_config,
            contact_network=self.contact_network,
        ).build()
        self._reachgraph_processor = ReachGraphQueryProcessor(self._reachgraph)
        return self._reachgraph

    def build_trajectory_store(self):
        """Build the raw trajectory store used by the SPJ baseline (returns it)."""
        from ..baselines.spj import SpjBaseline
        from ..trajectory.store import TrajectoryStore

        self._trajectory_store = TrajectoryStore(self.dataset).build()
        self._spj = SpjBaseline(
            self._trajectory_store, self.contact_config.distance_threshold
        )
        return self._trajectory_store

    def streaming(
        self,
        streaming_config: StreamingConfig | None = None,
        grid_config: ReachGridConfig | None = None,
        storage_backend: str | None = None,
        storage_dir: str | None = None,
    ):
        """A streaming reachability service configured like this engine
        (same contact and storage parameters).

        Returns a :class:`~repro.streaming.service.StreamingReachabilityService`
        that starts empty; feed it with ``service.drain(engine.dataset)`` to
        replay this engine's dataset as a stream, or ingest batches from any
        :mod:`repro.streaming.source`.

        ``storage_backend`` overrides this engine's block-device backend for
        the service (one of ``STORAGE_BACKENDS``: ``sim``, ``file``,
        ``mmap``), and ``storage_dir`` pins the persistent backends' files to
        a real directory so the service's queryable state survives
        ``service.close()`` — or a crash.  :meth:`reopen_streaming` (or,
        directly, :meth:`repro.streaming.SnapshotQueryService.open`) restores
        the committed prefix from the device files, and
        :meth:`repro.streaming.StreamingReachabilityService.open` resumes
        *ingesting* from the journaled checkpoint.
        """
        config = streaming_config or StreamingConfig()
        storage_config = self.storage_config
        if storage_backend is not None or storage_dir is not None:
            effective = storage_backend or storage_config.backend
            if storage_dir is not None and effective == "sim":
                # Accepting the directory while the in-memory backend ignores
                # it would silently drop the persistence the caller asked for.
                raise ConfigurationError(
                    "storage_dir requires a persistent storage_backend "
                    "('file' or 'mmap'); the 'sim' backend keeps blocks in "
                    "memory and would never write to it"
                )
            storage_config = storage_config.with_backend(
                effective, storage_dir=storage_dir
            )
        from ..streaming.service import StreamingReachabilityService

        return StreamingReachabilityService.for_dataset(
            self.dataset,
            contact_config=self.contact_config,
            grid_config=grid_config,
            streaming_config=config,
            storage_config=storage_config,
        )

    @staticmethod
    def reopen_streaming(
        storage_backend: str,
        storage_dir: str,
        name: str | None = None,
    ):
        """Reopen the durable state a streaming service left in ``storage_dir``.

        The counterpart of :meth:`streaming` after a ``close()`` — or after a
        crash: only what the service's last flush committed is restored, which
        is exactly the recovery guarantee the service gives.  Returns a
        read-only :class:`~repro.streaming.service.SnapshotQueryService` over
        the committed prefix, answering through its restored ReachGraph index
        when one was persisted.

        ``name`` must match the name the state was written under.  Left
        unset, it defaults to the constructor default ``stream`` — but
        services created through :meth:`streaming` (i.e. ``for_dataset``)
        persist under ``<dataset>-stream`` instead; pass the service's
        ``.name``.  To *resume ingesting* instead of just querying, use
        :meth:`repro.streaming.StreamingReachabilityService.open`.
        """
        from ..streaming.service import SnapshotQueryService

        if storage_backend == "sim":
            raise ConfigurationError(
                "reopen_streaming requires a persistent storage_backend "
                "('file' or 'mmap'); the 'sim' backend leaves nothing behind "
                "to reopen"
            )
        storage_config = StorageConfig(
            backend=storage_backend, storage_dir=storage_dir
        )
        return SnapshotQueryService.open(storage_config, name=name or "stream")

    def build_grail(self, config: GrailConfig | None = None):
        """Build the GRAIL baseline index over the reduced DAG (returns it)."""
        from ..baselines.grail import GrailIndex
        from ..reachgraph.reduction import reduce_contact_network

        dag, _ = reduce_contact_network(self.contact_network)
        self._grail = GrailIndex(
            dag, config=config, storage_config=self.storage_config
        ).build()
        return self._grail

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def reachgrid(self):
        """The built ReachGrid index."""
        if self._reachgrid is None:
            raise IndexNotBuiltError("call build_reachgrid() first")
        return self._reachgrid

    @property
    def reachgraph(self):
        """The built ReachGraph index."""
        if self._reachgraph is None:
            raise IndexNotBuiltError("call build_reachgraph() first")
        return self._reachgraph

    @property
    def grail(self):
        """The built GRAIL baseline index."""
        if self._grail is None:
            raise IndexNotBuiltError("call build_grail() first")
        return self._grail

    # ------------------------------------------------------------------
    # query evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: ReachabilityQuery, method: str = "reachgraph") -> QueryResult:
        """Evaluate a reachability query with the chosen method.

        ``method`` is one of ``reachgrid``, ``reachgraph`` (BM-BFS),
        ``reachgraph-b-bfs``, ``reachgraph-e-dfs``, ``spj``, ``grail-memory``,
        ``grail-disk``, or ``reference`` (the in-memory ground truth).
        """
        if method not in METHODS:
            raise QueryError(
                f"unknown method {method!r}; choose one of: {', '.join(METHODS)}"
            )
        if method == "reference":
            from ..baselines.reference import evaluate_reachability

            return evaluate_reachability(self.contact_network, query)
        if method == "reachgrid":
            if self._reachgrid_processor is None:
                raise IndexNotBuiltError("call build_reachgrid() first")
            return self._reachgrid_processor.evaluate(query)
        if method in ("reachgraph", "reachgraph-b-bfs", "reachgraph-e-dfs"):
            if self._reachgraph_processor is None:
                raise IndexNotBuiltError("call build_reachgraph() first")
            strategy = {
                "reachgraph": "bm-bfs",
                "reachgraph-b-bfs": "b-bfs",
                "reachgraph-e-dfs": "e-dfs",
            }[method]
            return self._reachgraph_processor.evaluate(query, strategy=strategy)
        if method == "spj":
            if self._spj is None:
                raise IndexNotBuiltError("call build_trajectory_store() first")
            return self._spj.evaluate(query)
        if method == "grail-memory":
            return self.grail.evaluate_memory(query)
        return self.grail.evaluate_disk(query)

    def compare(
        self,
        query: ReachabilityQuery,
        methods: Sequence[str] = ("reachgrid", "reachgraph"),
    ) -> Dict[str, QueryResult]:
        """Evaluate the same query with several methods and return all results."""
        return {method: self.evaluate(query, method) for method in methods}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = [
            name
            for name, index in (
                ("reachgrid", self._reachgrid),
                ("reachgraph", self._reachgraph),
                ("spj", self._spj),
                ("grail", self._grail),
            )
            if index is not None
        ]
        return f"ReachabilityEngine(dataset={self.dataset.name!r}, built={built})"
