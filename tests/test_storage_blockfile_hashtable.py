"""Unit tests for BlockFile extents and the external hash table."""

from __future__ import annotations

import pytest

from repro.core import StorageConfig, StorageError
from repro.storage import STORAGE_BACKENDS, BlockFile, StorageSystem


@pytest.fixture()
def storage():
    return StorageSystem(StorageConfig(block_size=4, buffer_blocks=8))


class TestBlockFile:
    @pytest.fixture(params=STORAGE_BACKENDS)
    def storage(self, request, tmp_path):
        """Every backend; the ``file`` page cache is off so its reads decode
        the log bytes, as the ``mmap`` ones decode the slot bytes."""
        system = StorageSystem(
            StorageConfig(
                block_size=4,
                buffer_blocks=8,
                backend=request.param,
                storage_dir=str(tmp_path),
                page_cache_blocks=0,
            )
        )
        yield system
        system.close()

    def test_extent_block_count_matches_record_count(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=4)
        extent = blockfile.append_extent("a", list(range(10)))
        assert extent.num_blocks == 3
        assert extent.num_records == 10

    def test_empty_extent_still_occupies_one_block(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=4)
        extent = blockfile.append_extent("empty", [])
        assert extent.num_blocks == 1
        assert blockfile.read_extent("empty") == []

    def test_read_extent_round_trips_records_in_order(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=3)
        records = [("r", index) for index in range(7)]
        blockfile.append_extent("key", records)
        assert blockfile.read_extent("key") == records

    def test_duplicate_extent_key_rejected(self, storage):
        blockfile = storage.new_blockfile("data")
        blockfile.append_extent("k", [1])
        with pytest.raises(StorageError):
            blockfile.append_extent("k", [2])

    def test_unknown_extent_key_rejected(self, storage):
        blockfile = storage.new_blockfile("data")
        with pytest.raises(StorageError):
            blockfile.read_extent("missing")

    def test_extents_are_laid_out_contiguously_in_append_order(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=2)
        first = blockfile.append_extent("first", [1, 2, 3])
        second = blockfile.append_extent("second", [4])
        assert list(first.block_ids) == [0, 1]
        assert list(second.block_ids) == [2]
        assert blockfile.extent_keys() == ["first", "second"]

    def test_reading_whole_extent_is_mostly_sequential(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=1)
        blockfile.append_extent("big", list(range(30)))
        storage.reset_for_query()
        before = storage.snapshot()
        blockfile.read_extent("big")
        delta = storage.charge_since(before)
        assert delta.random_reads == 1
        assert delta.sequential_reads == 29

    def test_iter_extent_records_supports_early_termination(self, storage):
        blockfile = storage.new_blockfile("data", records_per_block=1)
        blockfile.append_extent("big", list(range(20)))
        storage.reset_for_query()
        before = storage.snapshot()
        for record in blockfile.iter_extent_records("big"):
            if record == 2:
                break
        delta = storage.charge_since(before)
        # Only the first three single-record blocks are read.
        assert delta.random_reads + delta.sequential_reads == 3

    def test_has_extent_and_contains(self, storage):
        blockfile = storage.new_blockfile("data")
        blockfile.append_extent("k", [1])
        assert blockfile.has_extent("k") and "k" in blockfile
        assert not blockfile.has_extent("other")

    def test_rejects_non_positive_records_per_block(self, storage):
        with pytest.raises(StorageError):
            BlockFile(storage.disk, storage.buffer_pool, records_per_block=0)


class TestExternalHashTable:
    def test_lookup_round_trips_values(self, storage):
        table = storage.new_hashtable("objects")
        table.build([(f"key-{i}", i * i) for i in range(100)], entries_per_bucket=8)
        assert table.get("key-7") == 49
        assert table.lookup("key-99") == 9801

    def test_get_missing_key_returns_default(self, storage):
        table = storage.new_hashtable("objects")
        table.build([("a", 1)])
        assert table.get("zzz") is None
        assert table.get("zzz", 42) == 42
        assert "a" in table and "zzz" not in table

    def test_lookup_missing_key_raises(self, storage):
        table = storage.new_hashtable("objects")
        table.build([("a", 1)])
        with pytest.raises(StorageError):
            table.lookup("missing")

    def test_lookup_before_build_raises(self, storage):
        table = storage.new_hashtable("objects")
        with pytest.raises(StorageError):
            table.get("a")

    def test_double_build_rejected(self, storage):
        table = storage.new_hashtable("objects")
        table.build([("a", 1)])
        with pytest.raises(StorageError):
            table.build([("b", 2)])

    def test_each_lookup_costs_at_most_one_block_read(self, storage):
        table = storage.new_hashtable("objects")
        table.build([(i, i) for i in range(64)], entries_per_bucket=8)
        storage.reset_for_query()
        before = storage.snapshot()
        table.get(13)
        delta = storage.charge_since(before)
        assert delta.random_reads + delta.sequential_reads == 1

    def test_bucket_count_scales_with_entries(self, storage):
        table = storage.new_hashtable("objects")
        table.build([(i, i) for i in range(64)], entries_per_bucket=8)
        assert table.num_buckets == 8
        assert table.is_built


class TestStorageSystem:
    def test_registry_returns_same_objects(self, storage):
        blockfile = storage.new_blockfile("f")
        table = storage.new_hashtable("t")
        assert storage.blockfile("f") is blockfile
        assert storage.hashtable("t") is table

    def test_normalized_io_since(self, storage):
        blockfile = storage.new_blockfile("f", records_per_block=1)
        blockfile.append_extent("k", list(range(21)))
        storage.reset_for_query()
        before = storage.snapshot()
        blockfile.read_extent("k")
        # 1 random + 20 sequential = 2.0 normalized at the default cost of 20.
        assert storage.normalized_io_since(before) == pytest.approx(2.0)

    def test_reset_for_query_clears_buffer(self, storage):
        blockfile = storage.new_blockfile("f")
        blockfile.append_extent("k", [1, 2, 3])
        blockfile.read_extent("k")
        assert storage.buffer_pool.resident_blocks > 0
        storage.reset_for_query()
        assert storage.buffer_pool.resident_blocks == 0
