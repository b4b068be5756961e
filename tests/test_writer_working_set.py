"""Pins of the writer's working set.

A streaming writer holds only the rows of its unfrozen partitions, one
``DN_1`` successor tuple per vertex and each object's current vertex
(``repro.reachgraph.index``).  These tests drive a service running that
writer beside one running the resident-DAG writer it replaced
(``resident_dag_reference.py``) and pin, at every merge, that both leave the
same extent records and block ids, object-index buckets, catalog and labels
— on every backend, across the merge-size axis, with repack on and off, and
across a kill and resume.  On a persistent backend the two overlay devices,
and the two grid devices, end byte for byte equal.  They also pin what the writer holds: no whole
graph, only the rows a patch can still touch.
"""

from __future__ import annotations

import os

import pytest

from equivalence import EQUIVALENCE_BACKENDS, CallCounter, backend_storage_config, graph_state
from repro.core import ContactConfig, ReachGridConfig, StreamingConfig
from repro.generators import RandomWaypointGenerator
from repro.reachgraph import ReachGraphIndex
from repro.storage.backends.base import encode_payload
from repro.streaming import DatasetReplaySource, StreamingReachabilityService
from repro.testing.faults import simulate_kill
from resident_dag_reference import ResidentDagIndex, resident_dag_writer

CONTACTS = ContactConfig(distance_threshold=30.0)
GRID = ReachGridConfig(temporal_resolution=8, spatial_resolution=60.0)


@pytest.fixture(scope="module")
def world():
    return RandomWaypointGenerator(
        num_objects=24, horizon=96, environment_size=(400.0, 400.0), seed=11
    ).generate()


def make_service(world, storage_config, **config):
    return StreamingReachabilityService.for_dataset(
        world,
        contact_config=CONTACTS,
        grid_config=GRID,
        streaming_config=StreamingConfig(**config),
        storage_config=storage_config,
    )


def graph_of(service):
    return service.overlay.snapshot_processor.index


def encoded_partition_blocks(index):
    """The bytes each live partition block encodes to, by block id."""
    partitions = index._partitions_file
    return {
        block_id: encode_payload(index.storage.disk.peek(block_id))
        for key in partitions.extent_keys()
        for block_id in partitions.extent(key).block_ids
    }


class Pair:
    """A service on the working-set writer and its resident-DAG twin, fed
    the same batches, compared after every merge."""

    def __init__(self, monkeypatch, world, storage_config_of, **config):
        self.monkeypatch = monkeypatch
        self.config = config
        self.storage_config_of = storage_config_of
        self.mine = make_service(world, storage_config_of("mine"), **config)
        self.theirs = make_service(world, storage_config_of("theirs"), **config)
        self.compared = 0

    def ingest(self, batch):
        merges = self.mine.num_merges
        self.mine.ingest(batch)
        with resident_dag_writer(self.monkeypatch):
            self.theirs.ingest(batch)
        assert self.theirs.num_merges == self.mine.num_merges
        if self.mine.num_merges != merges:
            self.assert_same_graph()

    def assert_same_graph(self):
        mine, theirs = graph_of(self.mine), graph_of(self.theirs)
        assert type(mine) is ReachGraphIndex and type(theirs) is ResidentDagIndex
        assert mine._hypergraph is None, "the writer held the whole graph"
        assert graph_state(mine) == graph_state(theirs)
        assert encoded_partition_blocks(mine) == encoded_partition_blocks(theirs)
        self.compared += 1

    def flush(self):
        self.mine.flush()
        self.theirs.flush()

    def kill_and_resume(self):
        for service in (self.mine, self.theirs):
            simulate_kill(service.overlay.storage, service.ingestor.storage)
        config = StreamingConfig(**self.config)
        self.mine = StreamingReachabilityService.open(
            self.storage_config_of("mine"), name=self.mine.name, streaming_config=config
        )
        with resident_dag_writer(self.monkeypatch):
            self.theirs = StreamingReachabilityService.open(
                self.storage_config_of("theirs"), name=self.theirs.name, streaming_config=config
            )
        assert self.mine.watermark == self.theirs.watermark

    def close(self):
        self.mine.close()
        self.theirs.close()


def storage_configs(backend, tmp_path):
    if backend == "sim":
        return lambda side: None
    return lambda side: backend_storage_config(backend, storage_dir=str(tmp_path / side))


def assert_same_devices(tmp_path):
    """The overlay and grid device files the two services left are byte for
    byte the same (the ingestor's checkpoint carries no wall-clock time)."""
    names = sorted(os.listdir(tmp_path / "mine"))
    assert names == sorted(os.listdir(tmp_path / "theirs"))
    for device in ("-overlay", "-grid"):
        files = [name for name in names if device in name]
        assert files, device
        for name in files:
            mine = (tmp_path / "mine" / name).read_bytes()
            assert mine == (tmp_path / "theirs" / name).read_bytes(), name


@pytest.mark.parametrize("backend", ("sim",) + EQUIVALENCE_BACKENDS)
@pytest.mark.parametrize("max_delta_contacts", (8, 24, 48))
@pytest.mark.parametrize("repack", (0, 2))
def test_every_merge_writes_what_the_resident_dag_writer_wrote(
    monkeypatch, tmp_path, world, backend, max_delta_contacts, repack
):
    pair = Pair(
        monkeypatch,
        world,
        storage_configs(backend, tmp_path),
        max_delta_contacts=max_delta_contacts,
        graph_repack_min_partitions=repack,
    )
    for batch in DatasetReplaySource(world, batch_ticks=4).batches():
        pair.ingest(batch)
    assert pair.compared >= 2
    if repack:
        assert graph_of(pair.mine).num_repacks >= 1
    pair.close()
    if backend != "sim":
        assert_same_devices(tmp_path)


@pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
@pytest.mark.parametrize("repack", (0, 4))
def test_a_resumed_writer_writes_what_the_resumed_resident_dag_writer_wrote(
    monkeypatch, tmp_path, world, backend, repack
):
    """Killed past a flush, both resume from the same device; the working
    set restored from the records writes what the materialised graph did."""
    pair = Pair(
        monkeypatch,
        world,
        storage_configs(backend, tmp_path),
        max_delta_contacts=16,
        graph_repack_min_partitions=repack,
    )
    batches = list(DatasetReplaySource(world, batch_ticks=4).batches())
    half = len(batches) // 2
    for position, batch in enumerate(batches[:half]):
        pair.ingest(batch)
        if position % 4 == 3:
            pair.flush()
    pair.kill_and_resume()
    compared = pair.compared
    materialised = CallCounter(monkeypatch, (ReachGraphIndex, "_materialize_graph"))
    for batch in batches:
        if batch.watermark > pair.mine.watermark:
            pair.ingest(batch)
    assert pair.compared > compared
    # The working-set writer never materialised its graph (the twin does,
    # through its own override, which this does not count).
    assert materialised.calls == {"ReachGraphIndex._materialize_graph": 0}
    pair.close()
    assert_same_devices(tmp_path)


def test_a_cold_partition_no_repack_can_fold_leaves_the_working_set():
    """With repack on, a cold partition waits for its packed extent — unless
    it sits in a stretch of unpacked extents that packed ones close on both
    sides and that is shorter than a foldable run: no repack can ever fold
    it, so its rows leave as they would with repack off."""
    world = RandomWaypointGenerator(
        num_objects=24, horizon=200, environment_size=(400.0, 400.0), seed=13
    ).generate()
    run = 4
    service = make_service(world, None, max_delta_contacts=8, graph_repack_min_partitions=run)
    released = 0
    for batch in DatasetReplaySource(world, batch_ticks=4).batches():
        service.ingest(batch)
        if not service.num_merges:
            continue
        index = graph_of(service)
        ceiling = index._frozen_before()
        stretch = []
        for key in index._partitions_file.extent_keys():
            if int(key) not in index._packed_partitions:
                stretch.append(int(key))
                continue
            for partition_id in stretch if len(stretch) < run else ():
                if all(row[2] < ceiling for row in index.read_partition(partition_id)):
                    assert partition_id not in index._working.rows
                    released += 1
            stretch = []
    assert graph_of(service).num_repacks >= 1
    assert released, "no stretch too short to fold ever held a cold partition"
