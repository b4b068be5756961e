"""Backend-conformance suite: one battery, every block-device backend.

The storage contract (:class:`repro.storage.backends.StorageBackend`) is what
every layer above relies on — buffer pool, block files, hash tables, snapshot
stores.  This module runs a single shared battery across all registered
backends through a fixture matrix, so a new backend cannot pass CI without
behaving exactly like the simulated device: same round-trips, same errors,
same sequential-vs-random IO accounting, same flush/close semantics.  The
persistence half (reopen-after-close) runs only on the backends that claim
``persistent``.
"""

from __future__ import annotations

import gc
import os
import sys
from array import array

import pytest

from repro.core import (
    ConfigurationError,
    ReachGraphConfig,
    StorageConfig,
    StorageError,
)
from repro.core.errors import BlockOutOfRangeError
from repro.reachgraph import ReachGraphIndex
from repro.reachgraph.query import _VertexCache
from repro.storage import (
    STORAGE_BACKENDS,
    BufferPool,
    FileBackend,
    MmapBackend,
    SimulatedBackend,
    SimulatedDisk,
    StorageSystem,
    make_backend,
)

PERSISTENT_BACKENDS = tuple(b for b in STORAGE_BACKENDS if b != "sim")

#: Payloads covering the shapes the indexes actually store: record lists,
#: hash buckets, scalars, empty containers.
PAYLOADS = [
    [("obj", 3, 1.5, 2.5)] * 4,
    {"bucket": {1: "a", 2: "b"}},
    "plain-string",
    [],
    0,
]


class TestConformanceBattery:
    """The shared battery: identical behaviour on every backend."""

    def test_allocate_returns_increasing_ids(self, make):
        disk = make()
        assert (disk.allocate("a"), disk.allocate("b")) == (0, 1)
        assert disk.num_blocks == 2
        assert len(disk) == 2

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_write_read_roundtrip(self, make, payload):
        disk = make()
        block = disk.allocate()
        disk.write(block, payload)
        assert disk.read(block) == payload

    def test_rewrite_replaces_payload(self, make):
        disk = make()
        block = disk.allocate("first")
        disk.write(block, "second")
        assert disk.read(block) == "second"

    def test_allocated_but_unwritten_block_reads_none(self, make):
        disk = make()
        block = disk.allocate()
        assert disk.read(block) is None

    def test_large_payload_roundtrip(self, make):
        # Exceeds the mmap slot capacity, exercising its overflow path.
        disk = make()
        payload = list(range(5000))
        block = disk.allocate(payload)
        assert disk.read(block) == payload

    def test_out_of_range_access_raises(self, make):
        disk = make()
        with pytest.raises(BlockOutOfRangeError):
            disk.read(0)
        disk.allocate()
        with pytest.raises(BlockOutOfRangeError):
            disk.read(5)
        with pytest.raises(BlockOutOfRangeError):
            disk.write(-1, "x")

    def test_allocate_many_is_contiguous(self, make):
        disk = make()
        disk.allocate("x")
        assert disk.allocate_many(4) == [1, 2, 3, 4]
        assert disk.num_blocks == 5

    def test_allocate_many_rejects_negative(self, make):
        with pytest.raises(StorageError):
            make().allocate_many(-1)

    def test_growth_past_initial_capacity(self, make):
        # The mmap backend doubles its slot array; every backend must keep
        # earlier payloads intact across growth.
        disk = make()
        blocks = [disk.allocate(f"payload-{i}") for i in range(300)]
        assert [disk.read(b) for b in blocks[:3]] == [
            "payload-0",
            "payload-1",
            "payload-2",
        ]
        assert disk.read(blocks[-1]) == "payload-299"

    # ------------------------------------------------------------------
    # IO accounting
    # ------------------------------------------------------------------
    def test_sequential_scan_is_mostly_sequential_io(self, make):
        disk = make()
        for value in range(50):
            disk.allocate(value)
        for block in range(50):
            disk.read(block)
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == 49

    def test_scattered_reads_are_random_io(self, make):
        disk = make()
        for value in range(10):
            disk.allocate(value)
        for block in (5, 9, 3, 7, 0):
            disk.read(block)
        assert disk.stats.random_reads == 5
        assert disk.stats.sequential_reads == 0

    def test_writes_and_allocations_are_counted(self, make):
        disk = make()
        block = disk.allocate("x")  # non-None initial payload: one write
        disk.write(block, "y")
        disk.allocate()  # empty allocation: not a write
        assert disk.stats.writes == 2

    def test_peek_does_not_charge_io(self, make):
        disk = make()
        block = disk.allocate("payload")
        reads_before = disk.stats.total_reads
        assert disk.peek(block) == "payload"
        assert disk.stats.total_reads == reads_before

    def test_reset_stats_preserves_layout(self, make):
        disk = make()
        block = disk.allocate("kept")
        disk.read(block)
        disk.reset_stats()
        assert disk.stats.total_reads == 0
        assert disk.read(block) == "kept"

    # ------------------------------------------------------------------
    # flush / close semantics
    # ------------------------------------------------------------------
    def test_operations_after_close_raise(self, make):
        disk = make()
        block = disk.allocate("x")
        disk.close()
        assert disk.closed
        for operation in (
            lambda: disk.allocate(),
            lambda: disk.allocate_many(2),
            lambda: disk.read(block),
            lambda: disk.peek(block),
            lambda: disk.write(block, "y"),
            lambda: disk.flush(),
            lambda: disk.put_metadata("k", 1),
        ):
            with pytest.raises(StorageError):
                operation()

    def test_close_is_idempotent(self, make):
        disk = make()
        disk.allocate("x")
        disk.close()
        disk.close()

    def test_flush_keeps_device_usable(self, make):
        disk = make()
        block = disk.allocate("x")
        disk.flush()
        assert disk.read(block) == "x"
        assert disk.allocate("y") == block + 1

    def test_metadata_roundtrip(self, make):
        disk = make()
        disk.put_metadata("key", {"nested": [1, 2]})
        assert disk.get_metadata("key") == {"nested": [1, 2]}
        assert disk.get_metadata("absent", "fallback") == "fallback"


class TestPersistence:
    """Reopen-after-close: persistent backends only."""

    @pytest.fixture(autouse=True)
    def _skip_non_persistent(self, make):
        if make.backend_name not in PERSISTENT_BACKENDS:
            pytest.skip("sim backend is deliberately not persistent")

    def test_blocks_survive_close_and_reopen(self, make):
        disk = make("reopen")
        blocks = [disk.allocate(f"payload-{i}") for i in range(20)]
        disk.write(blocks[3], "rewritten")
        disk.put_metadata("tag", 42)
        disk.close()

        reopened = make("reopen")
        assert reopened.num_blocks == 20
        assert reopened.read(blocks[0]) == "payload-0"
        assert reopened.read(blocks[3]) == "rewritten"
        assert reopened.get_metadata("tag") == 42
        reopened.close()

    def test_reopen_after_flush_without_close(self, make):
        # flush() alone is the durability point: a process that never closes
        # (crash) must still leave a reopenable device behind.
        disk = make("flush-only")
        block = disk.allocate("durable")
        disk.flush()
        reopened = make("flush-only")
        assert reopened.read(block) == "durable"
        reopened.close()
        disk.close()

    def test_reopened_device_accepts_new_writes(self, make):
        disk = make("append")
        disk.allocate("old")
        disk.close()
        reopened = make("append")
        new_block = reopened.allocate("new")
        assert reopened.read(new_block) == "new"
        reopened.close()
        final = make("append")
        assert final.read(new_block) == "new"
        assert final.read(0) == "old"
        final.close()

    def test_sim_backend_is_not_persistent(self):
        assert SimulatedBackend.persistent is False
        assert SimulatedDisk is SimulatedBackend
        assert FileBackend.persistent and MmapBackend.persistent


class TestFileBackendSpecifics:
    def test_unflushed_log_records_are_replayed_on_reopen(self, tmp_path):
        # Writes that hit the append-only log but missed the final manifest
        # rewrite are recovered by the self-describing-record replay.
        path = str(tmp_path / "replay.blocks")
        disk = FileBackend(path)
        disk.allocate("before-flush")
        disk.flush()
        disk.allocate("after-flush")
        disk._handle.flush()  # bytes reach the file, manifest stays stale
        del disk

        reopened = FileBackend(path)
        assert reopened.num_blocks == 2
        assert reopened.read(1) == "after-flush"
        reopened.close()

    def test_page_cache_skips_repeated_decoding_but_not_accounting(self, tmp_path):
        disk = FileBackend(str(tmp_path / "cache.blocks"), page_cache_blocks=8)
        block = disk.allocate(["records"])
        disk.reset_stats()
        disk.read(block)
        disk.read(block)
        # Physical IO accounting is cache-blind; the buffer pool above is the
        # component that models IO-free re-reads.
        assert disk.stats.total_reads == 2

    def test_rejects_negative_page_cache(self, tmp_path):
        with pytest.raises(StorageError):
            FileBackend(str(tmp_path / "x.blocks"), page_cache_blocks=-1)


class TestMmapBackendSpecifics:
    def test_overflow_payloads_survive_reopen(self, tmp_path):
        path = str(tmp_path / "overflow.mmap")
        disk = MmapBackend(path, slot_bytes=64)
        small = disk.allocate("tiny")
        big = disk.allocate(list(range(1000)))
        assert disk.num_overflow_blocks == 1
        disk.close()
        reopened = MmapBackend(path, slot_bytes=64)
        assert reopened.read(small) == "tiny"
        assert reopened.read(big) == list(range(1000))
        reopened.close()

    def test_rewrite_from_overflow_back_to_inline(self, tmp_path):
        disk = MmapBackend(str(tmp_path / "shrink.mmap"), slot_bytes=64)
        block = disk.allocate(list(range(1000)))
        disk.write(block, "now-small")
        assert disk.num_overflow_blocks == 0
        assert disk.read(block) == "now-small"
        disk.close()

    def test_rejects_degenerate_slot_size(self, tmp_path):
        with pytest.raises(StorageError):
            MmapBackend(str(tmp_path / "x.mmap"), slot_bytes=4)

    def test_lost_overflow_payload_fails_loudly_after_crash(self, tmp_path):
        # A spilled payload lives only in the manifest; a crash before any
        # flush loses it, and the reopened device must say so via the storage
        # error contract rather than a bare KeyError.
        path = str(tmp_path / "crash.mmap")
        disk = MmapBackend(path, slot_bytes=64)
        inline = disk.allocate("small")
        spilled = disk.allocate(list(range(1000)))
        disk._map.flush()  # mapped pages reach the file, manifest never does
        del disk

        reopened = MmapBackend(path, slot_bytes=64)
        assert reopened.read(inline) == "small"
        with pytest.raises(StorageError, match="overflow payload was lost"):
            reopened.read(spilled)
        reopened.close()


def python_level_calls(operation):
    """The ``(file, function)`` of every Python-level call ``operation`` makes."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_filename, frame.f_code.co_name))

    # A cyclic collection landing inside the window would run unrelated
    # finalizers (and count them); the operation itself frees by refcount.
    gc.disable()
    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestDecodeStaysInC:
    """Decoding an index block makes no Python-level call per record.

    The deterministic form of "block decode is C-speed": the Python-level
    calls of one cold ``read`` are the backend's own fixed handful, whatever
    the block holds — and none of them lands in ``dataclasses``, the
    per-record slow path vertex records used to unpickle through.
    """

    @pytest.fixture(params=PERSISTENT_BACKENDS)
    def cold_read_calls(self, request, tmp_path):
        def measure(stem, payload):
            # Slots roomy enough that the mmap read takes its mapped path.
            config = StorageConfig(backend=request.param, mmap_slot_bytes=1 << 16)
            suffix = {"file": ".blocks", "mmap": ".mmap"}[request.param]
            path = str(tmp_path / f"{stem}{suffix}")
            disk = make_backend(config, path=path)
            block = disk.allocate(payload)
            disk.close()
            # A fresh attach starts with an empty page cache: a real decode.
            reopened = make_backend(config, path=path)
            try:
                calls = python_level_calls(lambda: reopened.read(block))
                assert reopened.read(block) == payload
            finally:
                reopened.close()
            return calls

        return measure

    @staticmethod
    def records(count):
        """Plain tuples in ``VertexRecord`` field order, as the index writes."""
        return [
            (
                node_id,
                node_id,
                node_id + 5,
                (node_id, node_id + 1, node_id + 2),
                (node_id + 1, node_id + 2),
                (node_id - 1,),
                ((8, (node_id + 9,)),),
            )
            for node_id in range(count)
        ]

    @staticmethod
    def bucket(count):
        """Histories as two ``bytes`` of native int64, as the index writes."""
        return {
            object_id: (
                array("q", range(0, 40, 2)).tobytes(),
                array("q", range(object_id, object_id + 20)).tobytes(),
            )
            for object_id in range(count)
        }

    @pytest.mark.parametrize("shape", ["records", "bucket"])
    def test_python_calls_do_not_grow_with_the_block(self, cold_read_calls, shape):
        build = getattr(self, shape)
        small = cold_read_calls(f"{shape}-8", build(8))
        large = cold_read_calls(f"{shape}-64", build(64))
        assert not [call for call in large if "dataclasses" in call[0]]
        assert len(large) == len(small), (
            f"decoding 64 entries made {len(large)} Python-level calls, "
            f"8 entries made {len(small)}: {sorted(set(large) - set(small))}"
        )


class TestReadsArePerExtent:
    """A cold read costs Python-level calls per extent, not per block or record.

    The deterministic form of "pay per page fetched, never per node the page
    happens to hold": on the sim backend the calls of one cold
    ``read_extent`` do not grow with the extent's blocks, and those of one
    cold vertex lookup do not grow with the partition's records.
    """

    def test_read_extent_calls_do_not_grow_with_the_blocks(self):
        storage = StorageSystem(StorageConfig(block_size=4, buffer_blocks=16))
        blockfile = storage.new_blockfile("cells")
        for blocks in (8, 64):
            blockfile.append_extent(blocks, list(range(4 * blocks)))

        def cold_read_calls(blocks):
            storage.reset_for_query()
            calls = python_level_calls(lambda: blockfile.read_extent(blocks))
            assert storage.stats._last_block == blockfile.extent(blocks).block_ids[-1]
            return calls

        small, large = cold_read_calls(8), cold_read_calls(64)
        assert len(large) == len(small), sorted(set(large) - set(small))

    def test_vertex_lookup_calls_do_not_grow_with_the_partition(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(),
            tiny_contact_config,
            contact_network=tiny_network,
        ).build()

        def grow_partition(count):
            """A synthetic partition of ``count`` fresh vertices, as an increment
            would add one: directory entry first, then its extent."""
            first = max(index.partitioning.partition_of) + 1
            node_ids = list(range(first, first + count))
            partition_id = index.partitioning.add_partition(node_ids)
            index._partitions_file.append_extent(
                partition_id,
                [(n, *TestDecodeStaysInC.records(1)[0][1:]) for n in node_ids],
            )
            return node_ids

        def cold_lookup_calls(node_ids):
            index.storage.reset_for_query()
            cache = _VertexCache(index)
            calls = python_level_calls(lambda: cache.get(node_ids[-1]))
            assert cache.get(node_ids[0])[0] == node_ids[0]
            return calls

        small = cold_lookup_calls(grow_partition(64))
        large = cold_lookup_calls(grow_partition(2048))
        assert len(large) == len(small), sorted(set(large) - set(small))


class TestStorageSystemPersistence:
    """Catalog round-trips: block files and hash tables survive reopen."""

    @pytest.fixture(params=PERSISTENT_BACKENDS)
    def config(self, request, tmp_path):
        return StorageConfig(backend=request.param, storage_dir=str(tmp_path))

    def test_blockfile_extents_survive_reopen(self, config):
        storage = StorageSystem(config, name="sys")
        cells = storage.new_blockfile("cells", records_per_block=4)
        cells.append_extent("a", list(range(10)))
        cells.append_extent("b", ["x", "y"])
        storage.close()

        reopened = StorageSystem(config, name="sys")
        restored = reopened.blockfile("cells")
        assert restored.extent_keys() == ["a", "b"]
        assert restored.read_extent("a") == list(range(10))
        assert restored.read_extent("b") == ["x", "y"]
        assert restored.records_per_block == 4
        reopened.close()

    def test_hashtable_survives_reopen(self, config):
        storage = StorageSystem(config, name="sys")
        table = storage.new_hashtable("lookup")
        table.build([(key, key * key) for key in range(200)])
        storage.close()

        reopened = StorageSystem(config, name="sys")
        restored = reopened.hashtable("lookup")
        assert restored.get(14) == 196
        assert restored.get(999) is None
        assert 77 in restored
        reopened.close()

    def test_never_built_hashtable_stays_unbuilt_after_reopen(self, config):
        # Regression: restoring an empty bucket list must not mark the table
        # built (get() would divide by zero buckets); it keeps raising the
        # same not-built error the pre-close table raised.
        storage = StorageSystem(config, name="sys")
        storage.new_hashtable("pending")
        storage.close()
        reopened = StorageSystem(config, name="sys")
        restored = reopened.hashtable("pending")
        assert not restored.is_built
        with pytest.raises(StorageError):
            restored.get(1)
        restored.build([(1, "one")])
        assert restored.get(1) == "one"
        reopened.close()

    def test_destroy_removes_backing_files(self, config, tmp_path):
        storage = StorageSystem(config, name="scratch")
        storage.new_blockfile("cells").append_extent("a", [1, 2, 3])
        assert any(tmp_path.iterdir())
        storage.destroy()
        assert list(tmp_path.iterdir()) == []
        storage.destroy()  # idempotent

    def test_metadata_survives_reopen(self, config):
        storage = StorageSystem(config, name="sys")
        storage.put_metadata("manifest", {"watermark": 59})
        storage.close()
        reopened = StorageSystem(config, name="sys")
        assert reopened.get_metadata("manifest") == {"watermark": 59}
        reopened.close()

    def test_two_systems_in_one_directory_need_distinct_names(self, config):
        first = StorageSystem(config, name="alpha")
        second = StorageSystem(config, name="beta")
        assert first.path != second.path
        first.close()
        second.close()

    def test_no_files_created_outside_storage_dir(self, config, tmp_path):
        storage = StorageSystem(config, name="contained")
        storage.new_blockfile("cells").append_extent("a", [1, 2, 3])
        storage.close()
        created = {str(p) for p in tmp_path.rglob("*")}
        assert created, "persistent backend should create backing files"
        assert all(path.startswith(str(tmp_path)) for path in created)


class TestStorageSystemDefaults:
    def test_sim_backend_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            storage = StorageSystem()
            storage.new_blockfile("cells").append_extent("a", [1])
            storage.close()
            assert list(tmp_path.iterdir()) == []
        finally:
            tempfile.tempdir = None

    def test_anonymous_persistent_storage_cleans_up_on_close(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None
        try:
            storage = StorageSystem(StorageConfig(backend="file"), name="anon")
            storage.new_blockfile("cells").append_extent("a", [1])
            assert storage.path is not None and os.path.exists(storage.path)
            storage.close()
            assert list(tmp_path.iterdir()) == []
        finally:
            tempfile.tempdir = None

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            StorageConfig(backend="tape")


class TestBufferPoolWriteBack:
    """Regression: dirty pages must reach persistent devices (issue satellite)."""

    @pytest.fixture(params=PERSISTENT_BACKENDS)
    def config(self, request, tmp_path):
        return StorageConfig(backend=request.param, storage_dir=str(tmp_path))

    def test_dirty_evicted_block_survives_reopen(self, config):
        storage = StorageSystem(config, name="wb")
        blocks = storage.disk.allocate_many(8)
        pool = BufferPool(storage.disk, capacity=2)
        pool.write(blocks[0], "dirty-payload")
        # Filling the tiny pool evicts the dirty frame, which must write back
        # to the device rather than silently dropping the payload.
        storage.disk.write(blocks[1], "b1")
        storage.disk.write(blocks[2], "b2")
        pool.read(blocks[1])
        pool.read(blocks[2])
        assert not pool.contains(blocks[0])
        storage.close()

        reopened = StorageSystem(config, name="wb")
        assert reopened.disk.read(blocks[0]) == "dirty-payload"
        reopened.close()

    def test_system_flush_writes_back_resident_dirty_frames(self, config):
        storage = StorageSystem(config, name="wb-flush")
        block = storage.disk.allocate()
        storage.buffer_pool.write(block, "still-resident")
        assert storage.buffer_pool.dirty_blocks == 1
        storage.close()  # close → flush → write-back before the device syncs

        reopened = StorageSystem(config, name="wb-flush")
        assert reopened.disk.read(block) == "still-resident"
        reopened.close()
