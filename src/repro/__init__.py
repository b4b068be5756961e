"""repro — reachability query evaluation in large spatiotemporal contact datasets.

A faithful, laptop-scale reproduction of *"Efficient Reachability Query
Evaluation in Large Spatiotemporal Contact Datasets"* (Shirani-Mehr,
Banaei-Kashani, Shahabi; PVLDB 5(9), 2012): the ReachGrid and ReachGraph
disk-resident indexes, the SPJ / external-traversal / GRAIL baselines, the
uncertain and non-immediate contact-network extensions, the synthetic data
generators the paper evaluates on, and a benchmark harness that regenerates
every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import ReachabilityEngine, ReachabilityQuery, TimeInterval
>>> engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
>>> engine.build_reachgraph()          # doctest: +ELLIPSIS
ReachGraphIndex(...)
>>> query = ReachabilityQuery(0, 5, TimeInterval(0, 100))
>>> result = engine.evaluate(query, method="reachgraph")
>>> isinstance(result.reachable, bool)
True
"""

from __future__ import annotations

from .core.config import (
    DEFAULT_RESOLUTIONS,
    ContactConfig,
    GrailConfig,
    ReachGraphConfig,
    ReachGridConfig,
    StorageConfig,
    StreamingConfig,
)
from .core.engine import ReachabilityEngine
from .core.errors import (
    ConfigurationError,
    ContactNetworkError,
    DatasetError,
    IndexConstructionError,
    IndexNotBuiltError,
    InvalidIntervalError,
    QueryError,
    ReproError,
    StorageError,
    StreamingError,
    TrajectoryError,
    UnknownObjectError,
)
from .core.types import (
    ObjectId,
    Point,
    QueryResult,
    ReachabilityQuery,
    TimeInstant,
    TimeInterval,
)
from .contacts import Contact, ContactNetwork, TimeExpandedNetwork, build_contact_network
from .generators import (
    RandomWaypointGenerator,
    RoadNetworkGenerator,
    SparseGpsTraceGenerator,
)
from .reachgraph import ReachGraphIndex, ReachGraphQueryProcessor
from .reachgrid import ReachGridIndex, ReachGridQueryProcessor
from .streaming import StreamingReachabilityService
from .trajectory import Trajectory, TrajectoryDataset, TrajectoryStore
from .workloads import DATASETS, make_dataset, random_queries

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade
    "ReachabilityEngine",
    # core types
    "ObjectId",
    "TimeInstant",
    "Point",
    "TimeInterval",
    "ReachabilityQuery",
    "QueryResult",
    # configuration
    "StorageConfig",
    "ContactConfig",
    "ReachGridConfig",
    "ReachGraphConfig",
    "GrailConfig",
    "StreamingConfig",
    "DEFAULT_RESOLUTIONS",
    # errors
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "TrajectoryError",
    "UnknownObjectError",
    "ContactNetworkError",
    "IndexConstructionError",
    "IndexNotBuiltError",
    "QueryError",
    "InvalidIntervalError",
    "DatasetError",
    "StreamingError",
    # substrates
    "Trajectory",
    "TrajectoryDataset",
    "TrajectoryStore",
    "Contact",
    "ContactNetwork",
    "TimeExpandedNetwork",
    "build_contact_network",
    # generators
    "RandomWaypointGenerator",
    "RoadNetworkGenerator",
    "SparseGpsTraceGenerator",
    # indexes
    "ReachGridIndex",
    "ReachGridQueryProcessor",
    "ReachGraphIndex",
    "ReachGraphQueryProcessor",
    # streaming
    "StreamingReachabilityService",
    # workloads
    "DATASETS",
    "make_dataset",
    "random_queries",
]
