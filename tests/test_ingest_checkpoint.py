"""The ingestor's device holds the WAL and a checkpoint of what is unfrozen.

No sample outlives its tick's join: a merge reads contacts plus the prefix's
domain (``StreamIngestor.prefix_domain`` — object ids and horizon), never a
position.  This suite pins the domain's coverage checks.  A service on a
backend that does not persist never flushes, so each merge releases the
closed contacts before its restage cursor and drops the journal; on a
persistent backend only a flush does.  A checkpoint in another format is
refused before any read (``test_recovery.py``, ``TestFormatGate``).
"""

from __future__ import annotations

import pytest

from equivalence import (
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import ContactConfig, Point, StreamingError
from repro.streaming import (
    SampleEvent,
    StreamBatch,
    StreamIngestor,
    StreamingReachabilityService,
)
from repro.workloads import DATASETS, make_dataset
from repro.workloads.queries import random_queries

CONTACTS = ContactConfig(distance_threshold=30.0)


# ----------------------------------------------------------------------
# the checks prefix_domain makes
# ----------------------------------------------------------------------
class TestPrefixDomain:
    def test_object_joining_late_does_not_cover_the_prefix(self):
        ingestor = StreamIngestor((100.0, 100.0), contact_config=CONTACTS)
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 0, Point(0.0, 0.0)), SampleEvent(2, 0, Point(5.0, 5.0))]
            )
        )
        ingestor.ingest(
            StreamBatch.of(
                [
                    SampleEvent(1, 1, Point(1.0, 0.0)),
                    SampleEvent(2, 1, Point(5.0, 6.0)),
                    SampleEvent(3, 1, Point(9.0, 9.0)),
                ]
            )
        )
        with pytest.raises(StreamingError, match="object 3 does not cover"):
            ingestor.prefix_domain()

    def test_object_stopping_short_does_not_cover_the_prefix(self):
        ingestor = StreamIngestor((100.0, 100.0), contact_config=CONTACTS)
        ingestor.ingest(
            StreamBatch.of(
                [SampleEvent(1, 0, Point(0.0, 0.0)), SampleEvent(2, 0, Point(5.0, 5.0))]
            )
        )
        ingestor.ingest(StreamBatch.of([SampleEvent(1, 1, Point(1.0, 0.0))]))
        with pytest.raises(StreamingError, match="object 2 does not cover"):
            ingestor.prefix_domain()

    def test_empty_stream_has_no_domain(self):
        with pytest.raises(StreamingError, match="empty stream prefix"):
            StreamIngestor((100.0, 100.0)).prefix_domain()


class TestNonPersistentRelease:
    """What an unflushed service holds after draining ``rwp-tiny``: 305
    closed contacts, the restage cursor at 268 after the drain's merges,
    and the journal of the two batches since the last one."""

    @staticmethod
    def drained(storage_config):
        world = make_dataset("rwp-tiny")
        threshold = DATASETS["rwp-tiny"].contact_threshold
        service = StreamingReachabilityService.for_dataset(
            world,
            contact_config=ContactConfig(distance_threshold=threshold),
            storage_config=storage_config,
        )
        service.drain(world)
        return world, threshold, service

    def test_sim_releases_at_every_merge(self):
        world, threshold, service = self.drained(None)
        ingestor = service.ingestor
        assert not ingestor.storage.persistent
        assert ingestor.num_closed_contacts == 305
        assert ingestor.closed_floor == service._restage_cursor == 268
        assert ingestor._journal.num_extents == 2
        service.merge()
        assert ingestor.closed_floor == service._restage_cursor == 305
        assert ingestor.journal_blocks == 0
        assert_methods_agree(
            reference_evaluator(prefix_network(world, threshold)),
            {"sim": service.query},
            random_queries(world, count=16, seed=5),
            check_earliest=True,
            context="sim, released at every merge",
        )
        service.close()

    def test_a_persistent_backend_releases_only_at_flush(self, tmp_path):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        _, _, service = self.drained(storage_config)
        ingestor = service.ingestor
        service.merge()
        assert ingestor.closed_floor == 0 and service._restage_cursor == 305
        assert ingestor.journal_blocks > 0
        # A flush releases what the manifest before it committed: the
        # first one commits the cursor, the second lets the contacts go.
        service.flush()
        assert ingestor.closed_floor == 0 and ingestor.journal_blocks == 0
        service.flush()
        assert ingestor.closed_floor == 305
        service.close()
