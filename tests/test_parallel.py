"""Tests for the read-side query fleet: process-pool workers over snapshots.

*Who* answers a query — the owning service or a process-pool worker over a
reopened snapshot — must never change an answer.  Every equivalence test
here compares against the batch ``reference`` evaluator over the exact
committed prefix, the same way ``test_streaming.py`` does.
"""

from __future__ import annotations

import pytest

from equivalence import (
    assert_methods_agree,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    ConfigurationError,
    StreamingConfig,
    StreamingError,
)
from repro.streaming import (
    DatasetReplaySource,
    ParallelQueryService,
    StreamingReachabilityService,
)
from repro.workloads.queries import random_queries

# The contact threshold of the shared tiny_* fixtures (see test_streaming.py
# for why it is repeated here instead of imported from conftest).
TINY_THRESHOLD = 30.0

#: Small delta bound so replays force several merges.
MERGY = dict(max_delta_contacts=20, batch_ticks=8)


def _service(dataset, contact_config, storage_config=None, **overrides):
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=contact_config,
        streaming_config=StreamingConfig(**{**MERGY, **overrides}),
        storage_config=storage_config,
    )


# ----------------------------------------------------------------------
# read side: the process-pool query fleet
# ----------------------------------------------------------------------
class TestParallelQueryService:
    def test_rejects_sim_backend_and_bad_workers(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        from repro.core import StorageConfig

        with pytest.raises(StreamingError, match="persistent"):
            ParallelQueryService.open(StorageConfig(), "stream")  # sim backend
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            ParallelQueryService.open(storage_config, "stream", workers=0)
        with pytest.raises(StreamingError, match="for_service"):
            ParallelQueryService.for_service(object())

    def test_attached_fleet_matches_live_service(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            max_delta_contacts=10_000,
            storage_config=storage_config,
        )
        workload = list(random_queries(tiny_dataset, count=8, seed=11))
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=30).batches())
        try:
            for batch in batches[:2]:
                service.ingest(batch)
            service.merge()
            with ParallelQueryService.for_service(service, workers=2) as fleet:
                assert fleet.watermark == service.watermark
                assert_methods_agree(
                    reference_evaluator(
                        prefix_network(
                            tiny_dataset, TINY_THRESHOLD, through=fleet.watermark
                        )
                    ),
                    {"live": service.query, "fleet": fleet.query},
                    workload,
                    context="attached fleet, first generation",
                )
                generation = fleet.generation

                # A newly adopted merge invalidates the fleet automatically.
                for batch in batches[2:]:
                    service.ingest(batch)
                service.merge()
                answers = fleet.query_many(workload)
                assert fleet.generation == generation + 1
                assert fleet.num_refreshes == 1
                assert [a.reachable for a in answers] == [
                    service.query(q).reachable for q in workload
                ]
                assert fleet.watermark == tiny_dataset.horizon.end
                assert fleet.num_queries == 2 * len(workload)
        finally:
            service.close()

    def test_open_mode_fleet_over_flushed_state(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = _service(
            tiny_dataset, tiny_contact_config, storage_config=storage_config
        )
        workload = list(random_queries(tiny_dataset, count=8, seed=13))
        try:
            service.drain(tiny_dataset)
            service.merge()
            name = service.name
        finally:
            service.close()
        fleet = ParallelQueryService.open(storage_config, name, workers=2)
        try:
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(tiny_dataset, TINY_THRESHOLD, through=fleet.watermark)
                ),
                {"fleet": fleet.query},
                workload,
                context="open-mode fleet",
            )
        finally:
            fleet.close()
        with pytest.raises(StreamingError):
            fleet.query(workload[0])
        fleet.close()  # idempotent
