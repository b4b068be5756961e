"""Extent reads decode what is used: :class:`repro.storage.ExtentRecords`.

``BlockFile.read_extent`` charges the whole run when it is read and hands back
a sequence whose blocks decode the first time one of their records is
indexed.  These tests pin the three halves of that contract on every backend:
the records and the IO ledger are exactly an eager read's; the decodes are
counted (one per block used, never one per block read); and what a sequence
decodes was captured at read time, so no later device operation changes it.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import tempfile
import threading
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equivalence import CallCounter
from repro.core import ContactConfig, StorageConfig, StorageError
from repro.generators import RandomWaypointGenerator
from repro.storage import STORAGE_BACKENDS, BufferPool, ExtentRecords, StorageSystem
from repro.storage.backends import base as backend_base
from repro.streaming import SnapshotQueryService, StreamingReachabilityService
from repro.workloads.queries import random_queries

PERSISTENT_BACKENDS = ("file", "mmap")


def storage_config(backend, directory, **overrides):
    return StorageConfig(backend=backend, storage_dir=directory, **overrides)


def reopened_blockfile(config, extents, records_per_block, name="sys"):
    """A block file holding ``extents``, written, closed and reopened, so a
    persistent device serves every block from its bytes (no page-cache copy
    of the written payloads)."""
    storage = StorageSystem(config, name=name)
    blockfile = storage.new_blockfile("data", records_per_block=records_per_block)
    for key, records in extents:
        blockfile.append_extent(key, records)
    storage.close()
    storage = StorageSystem(config, name=name)
    return storage, storage.blockfile("data")


def decode_counter(monkeypatch):
    return CallCounter(monkeypatch, (backend_base, "decode_payload"))


DECODES = "repro.storage.backends.base.decode_payload"


# ----------------------------------------------------------------------
# the sequence is the eager list, charged as the eager read
# ----------------------------------------------------------------------
record_lists = st.lists(
    st.tuples(st.integers(-50, 50), st.text(max_size=3)), max_size=30
)
patterns = st.sampled_from(["index", "iterate", "index-then-iterate", "iterate-then-index"])


class TestEquivalentToTheEagerRead:
    serial = itertools.count()

    @pytest.mark.parametrize("backend", STORAGE_BACKENDS)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        records=record_lists,
        records_per_block=st.integers(min_value=1, max_value=5),
        pattern=patterns,
        positions=st.lists(st.integers(min_value=-40, max_value=40), max_size=12),
        reopen=st.booleans(),
    )
    def test_same_records_and_ledger(
        self, backend, records, records_per_block, pattern, positions, reopen
    ):
        with tempfile.TemporaryDirectory() as directory:
            config = storage_config(backend, directory)
            extents = [("lead", ["x"] * 3), ("key", records)]
            if reopen and backend in PERSISTENT_BACKENDS:
                storage, blockfile = reopened_blockfile(config, extents, records_per_block)
            else:
                storage = StorageSystem(config, name=f"sys-{next(self.serial)}")
                blockfile = storage.new_blockfile("data", records_per_block=records_per_block)
                for key, values in extents:
                    blockfile.append_extent(key, values)
            # The eager read: every block of the run decoded through the pool.
            storage.reset_for_query()
            before = storage.snapshot()
            eager = list(
                chain.from_iterable(
                    storage.buffer_pool.read(block)
                    for block in blockfile.extent("key").block_ids
                )
            )
            eager_charge = storage.charge_since(before)

            storage.reset_for_query()
            before = storage.snapshot()
            sequence = blockfile.read_extent("key")
            charge = storage.charge_since(before)
            indexes = [i for i in positions if -len(records) <= i < len(records)]
            if pattern.startswith("iterate"):
                assert list(sequence) == eager
            if pattern != "iterate":
                assert [sequence[i] for i in indexes] == [eager[i] for i in indexes]
            if pattern == "index-then-iterate":
                assert list(sequence) == eager
            assert charge == eager_charge
            assert storage.charge_since(before) == charge, "using it charged IO"
            assert len(sequence) == len(records) and eager == records
            assert sequence == records and sequence[1:] == records[1:]
            storage.close()


# ----------------------------------------------------------------------
# count gates: a decode per block used, never per block read
# ----------------------------------------------------------------------
class TestDecodesPerBlockUsed:
    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_one_index_decodes_one_block(self, backend, tmp_path, monkeypatch):
        records = [("r", i) for i in range(20)]
        storage, blockfile = reopened_blockfile(
            storage_config(backend, str(tmp_path)), [("k", records)], records_per_block=4
        )
        blocks = blockfile.extent("k").num_blocks
        assert blocks == 5
        storage.reset_for_query()
        counter = decode_counter(monkeypatch)
        sequence = blockfile.read_extent("k")
        assert counter.calls[DECODES] == 0, "the read decoded a block"
        assert len(sequence) == 20 and counter.calls[DECODES] == 0
        assert sequence[9] == ("r", 9)
        assert counter.calls[DECODES] == 1
        assert list(sequence) == records and list(sequence) == records
        assert counter.calls[DECODES] == blocks
        storage.close()

    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_a_pool_hit_on_an_undecoded_frame_decodes_it_once(
        self, backend, tmp_path, monkeypatch
    ):
        records = list(range(12))
        storage, blockfile = reopened_blockfile(
            storage_config(backend, str(tmp_path)), [("k", records)], records_per_block=4
        )
        storage.reset_for_query()
        counter = decode_counter(monkeypatch)
        sequence = blockfile.read_extent("k")
        assert list(blockfile.iter_extent_records("k")) == records
        assert storage.buffer_pool.hits == 3
        assert counter.calls[DECODES] == 3
        assert list(sequence) == records, "the frames' decodes are shared"
        assert counter.calls[DECODES] == 3
        storage.close()


def _closed_service(dataset, config, threshold):
    """Drain, merge and close a stream: the device ``serve-reopen`` serves."""
    service = StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=ContactConfig(distance_threshold=threshold),
        storage_config=config,
    )
    service.drain(dataset)
    service.merge()
    service.close()
    return service.name


def _serving_device(backend, directory):
    """The tiny world's serving device (default storage config)."""
    dataset = RandomWaypointGenerator(
        num_objects=36, horizon=120, environment_size=(700.0, 700.0), seed=7
    ).generate()
    config = storage_config(backend, directory)
    return dataset, config, _closed_service(dataset, config, threshold=30.0)


#: ``(reachable, random_ios, sequential_ios, visited, partition-cache hits,
#: partition-cache misses, buffer-pool hits)`` of each query of
#: :func:`_serving_device`'s reopened service, as the eager extent read
#: charged and counted them; the same on ``file`` and ``mmap``.  Re-pinned
#: once since (docs/PERFORMANCE.md §11): BM-BFS stopped looking a long-edge
#: target up just to reject it, which took one partition-cache hit off
#: queries 4, 9 and 12; ``reachable``, ``visited`` and every IO column are
#: as first captured.
SERVE_REOPEN_GOLDEN = [
    (True, 7, 19, 21, 0, 5, 0), (False, 3, 0, 36, 2, 1, 0),
    (True, 3, 1, 15, 2, 2, 0), (True, 2, 0, 12, 2, 1, 1),
    (True, 2, 0, 5, 1, 1, 1), (True, 1, 0, 15, 4, 0, 1),
    (True, 1, 1, 35, 4, 0, 0), (True, 2, 0, 30, 3, 1, 1),
    (True, 3, 1, 16, 2, 2, 0), (True, 2, 0, 18, 3, 0, 0),
    (False, 2, 0, 67, 5, 0, 0), (True, 3, 0, 14, 2, 1, 0),
    (False, 1, 1, 9, 3, 0, 0), (True, 2, 0, 12, 3, 0, 0),
    (True, 1, 1, 11, 1, 0, 0), (True, 2, 0, 15, 5, 0, 0),
    (True, 2, 0, 30, 2, 1, 1), (True, 1, 0, 14, 3, 0, 1),
    (True, 2, 0, 12, 2, 1, 1), (True, 3, 0, 30, 3, 1, 0),
    (False, 2, 1, 19, 2, 1, 0), (False, 1, 0, 14, 4, 0, 1),
    (True, 2, 0, 17, 3, 0, 0), (True, 2, 0, 28, 2, 1, 1),
]


@pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
class TestServingDecodes:
    def test_bm_bfs_decodes_only_blocks_it_indexes(self, backend, tmp_path, monkeypatch):
        """Per query: decodes <= partition blocks holding an indexed slot,
        plus the single-block pool reads of the object index.  Eager extent
        reads decoded every block charged; on this world (``serve-reopen``'s
        density, short windows) a query uses ~80 % of them."""
        dataset = RandomWaypointGenerator(
            num_objects=80, horizon=160, environment_size=(715.0, 715.0), seed=7
        ).generate()
        config = storage_config(backend, str(tmp_path))
        name = _closed_service(dataset, config, threshold=25.0)
        service = SnapshotQueryService.open(config, name)
        index = service.overlay.snapshot_processor.index
        per_block = index._partitions_file.records_per_block
        indexed = set()
        real_locate = index.locate

        def locate(node_id):
            partition_id, slot = real_locate(node_id)
            indexed.add((partition_id, slot // per_block))
            return partition_id, slot

        monkeypatch.setattr(index, "locate", locate)
        counter = CallCounter(
            monkeypatch, (backend_base, "decode_payload"), (BufferPool, "read")
        )
        decodes = charged = 0
        for query in random_queries(dataset, count=24, seed=29, length_range=(5, 60)):
            indexed.clear()
            counter.reset()
            before = service.storage.snapshot()
            service.query(query)
            charge = service.storage.charge_since(before)
            pool_reads = counter.calls["BufferPool.read"]
            assert counter.calls[DECODES] <= len(indexed) + pool_reads, query
            decodes += counter.calls[DECODES]
            charged += charge.random_reads + charge.sequential_reads
        if backend == "mmap":  # no page cache: an eager read decodes each charge
            assert decodes < 0.9 * charged, (decodes, charged)
        service.close()

    def test_per_query_counts_match_golden(self, backend, tmp_path):
        dataset, config, name = _serving_device(backend, str(tmp_path))
        service = SnapshotQueryService.open(config, name)
        cache = service.overlay.partition_cache
        stats = service.storage.stats
        rows = []
        for query in random_queries(dataset, count=24, seed=29):
            hits, misses, pool_hits = cache.hits, cache.misses, stats.buffer_hits
            result = service.query(query)
            rows.append(
                (
                    result.reachable,
                    result.random_ios,
                    result.sequential_ios,
                    result.visited,
                    cache.hits - hits,
                    cache.misses - misses,
                    stats.buffer_hits - pool_hits,
                )
            )
        # Read-side columns may move with the read path; answers and visits
        # only with the traversal itself.
        assert [(row[0], row[3]) for row in rows] == [
            (row[0], row[3]) for row in SERVE_REOPEN_GOLDEN
        ], "reachable or visited moved"
        assert rows == SERVE_REOPEN_GOLDEN
        service.close()


# ----------------------------------------------------------------------
# safety: what a sequence decodes was fixed when it was read
# ----------------------------------------------------------------------
class TestCapturedAtReadTime:
    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_reclaim_appends_grow_and_close_change_nothing(self, backend, tmp_path):
        config = storage_config(backend, str(tmp_path))
        first = [("a", i) for i in range(10)]
        second = [("b", i) for i in range(7)]
        storage, blockfile = reopened_blockfile(
            config, [("a", first), ("b", second)], records_per_block=3
        )
        storage.reset_for_query()
        before_reclaim = blockfile.read_extent("a")
        before_close = blockfile.read_extent("b")
        assert before_reclaim[0] == ("a", 0)  # one block decoded, the rest not

        device_bytes = os.path.getsize(storage.disk.path)
        blockfile.replace_extent("a", [("rewritten", i) for i in range(10)])
        for key in range(40):  # > the mmap device's 64 initial slots
            blockfile.append_extent(("more", key), [("m", key)] * 6)
        if backend == "mmap":
            assert os.path.getsize(storage.disk.path) > device_bytes, "no _grow"
        assert storage.reclaim() > 0
        # In-place writes over the ids the old blocks had.
        for block in range(4):
            storage.disk.write(block, [("overwritten", block)] * 3)
        storage.close()

        assert list(before_reclaim) == first
        assert [before_reclaim[i] for i in range(10)] == first
        assert list(before_close) == second


class TestSharedBetweenThreads:
    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_racing_first_uses_read_the_same_records(self, backend, tmp_path):
        """A ``PartitionCache`` entry is shared: threads racing to decode the
        same blocks of one sequence all see the records, none an error."""
        records = [("r", i) for i in range(64)]
        storage, blockfile = reopened_blockfile(
            storage_config(backend, str(tmp_path)), [("k", records)], records_per_block=4
        )
        storage.reset_for_query()
        sequence = blockfile.read_extent("k")
        seen, errors = [], []

        def use(seed):
            try:
                picks = random.Random(seed).sample(range(64), 32)
                seen.append([sequence[i] for i in picks] == [records[i] for i in picks])
                seen.append(list(sequence) == records)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and seen == [True] * 16
        storage.close()


class TestRefusals:
    @pytest.mark.parametrize("backend", STORAGE_BACKENDS)
    def test_block_with_the_wrong_record_count_raises_on_first_index(
        self, backend, tmp_path
    ):
        storage = StorageSystem(storage_config(backend, str(tmp_path)), name="sys")
        blockfile = storage.new_blockfile("data", records_per_block=4)
        extent = blockfile.append_extent("k", list(range(10)))
        storage.disk.write(extent.first_block + 1, [4, 5, 6])  # one record short
        storage.reset_for_query()
        sequence = blockfile.read_extent("k")
        assert len(sequence) == 10 and sequence[3] == 3 and sequence[8] == 8
        with pytest.raises(StorageError, match="does not hold the 4 records"):
            sequence[4]
        with pytest.raises(StorageError, match="does not hold the 4 records"):
            list(sequence)
        storage.close()

    def test_out_of_range_index_raises_index_error(self):
        storage = StorageSystem(StorageConfig())
        blockfile = storage.new_blockfile("data", records_per_block=4)
        blockfile.append_extent("k", list(range(6)))
        sequence = blockfile.read_extent("k")
        assert isinstance(sequence, ExtentRecords)
        assert sequence[-1] == 5 and sequence[-6] == 0
        for bad in (6, -7):
            with pytest.raises(IndexError):
                sequence[bad]
