"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing unrelated
exceptions.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "BlockOutOfRangeError",
    "BufferPoolError",
    "TrajectoryError",
    "UnknownObjectError",
    "ContactNetworkError",
    "IndexConstructionError",
    "IndexNotBuiltError",
    "QueryError",
    "InvalidIntervalError",
    "DatasetError",
    "StreamingError",
    "WatermarkRegressionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class StorageError(ReproError):
    """Base class for failures in the simulated storage substrate."""


class BlockOutOfRangeError(StorageError):
    """A block id outside the allocated range of a simulated disk was accessed."""

    def __init__(self, block_id: int, capacity: int) -> None:
        super().__init__(
            f"block {block_id} is outside the allocated range [0, {capacity})"
        )
        self.block_id = block_id
        self.capacity = capacity


class BufferPoolError(StorageError):
    """The buffer pool was asked to do something impossible (e.g. pin too much)."""


class TrajectoryError(ReproError):
    """A trajectory is malformed (unsorted samples, empty, wrong horizon...)."""


class UnknownObjectError(ReproError):
    """An object id was referenced that the dataset/index does not know about."""

    def __init__(self, object_id: int) -> None:
        super().__init__(f"unknown object id: {object_id}")
        self.object_id = object_id


class ContactNetworkError(ReproError):
    """The contact network is inconsistent with the trajectory dataset."""


class IndexConstructionError(ReproError):
    """An index could not be constructed from the given dataset."""


class IndexNotBuiltError(ReproError):
    """A query was issued against an index that has not been built yet."""


class QueryError(ReproError):
    """A reachability query is malformed or references unknown entities."""


class InvalidIntervalError(QueryError):
    """A time interval has a negative length or falls outside the horizon."""

    def __init__(self, start: int, end: int, reason: str = "") -> None:
        message = f"invalid time interval [{start}, {end}]"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.start = start
        self.end = end


class DatasetError(ReproError):
    """A dataset specification or generated dataset is invalid."""


class StreamingError(ReproError):
    """The event stream violates the ingestion contract (out-of-order batches,
    samples beyond the watermark, inconsistent object horizons...)."""


class WatermarkRegressionError(StreamingError):
    """A batch's watermark regressed below the ingestor's current watermark.

    Accepting such a batch would re-open temporal grid intervals that were
    already flushed to disk, so the ingestor rejects it before touching any
    state (the batch can be corrected and re-sent).
    """

    def __init__(self, batch_watermark: int, current_watermark: int) -> None:
        super().__init__(
            f"batch watermark {batch_watermark} regressed below the "
            f"current watermark {current_watermark}"
        )
        self.batch_watermark = batch_watermark
        self.current_watermark = current_watermark

