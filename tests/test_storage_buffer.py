"""Unit tests for the LRU buffer pool."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import StorageError
from repro.core.errors import BlockOutOfRangeError, BufferPoolError
from repro.storage import BufferPool, SimulatedDisk


@pytest.fixture()
def disk_with_blocks():
    disk = SimulatedDisk()
    for value in range(10):
        disk.allocate(f"payload-{value}")
    return disk


class TestBufferPool:
    def test_rejects_non_positive_capacity(self, disk_with_blocks):
        with pytest.raises(BufferPoolError):
            BufferPool(disk_with_blocks, capacity=0)

    def test_miss_then_hit(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=4)
        assert pool.read(3) == "payload-3"
        assert pool.misses == 1 and pool.hits == 0
        assert pool.read(3) == "payload-3"
        assert pool.hits == 1

    def test_hit_does_not_charge_physical_io(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=4)
        pool.read(2)
        reads_before = disk_with_blocks.stats.total_reads
        pool.read(2)
        assert disk_with_blocks.stats.total_reads == reads_before
        assert disk_with_blocks.stats.buffer_hits == 1

    def test_lru_eviction_order(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=2)
        pool.read(0)
        pool.read(1)
        pool.read(0)  # touch 0 so 1 becomes least recently used
        pool.read(2)  # evicts 1
        assert pool.contains(0)
        assert not pool.contains(1)
        assert pool.contains(2)

    def test_capacity_is_never_exceeded(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=3)
        for block in range(10):
            pool.read(block)
        assert pool.resident_blocks <= 3

    def test_read_run_preserves_order(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=5)
        assert pool.read_run(4, 3) == ["payload-4", "payload-5", "payload-6"]
        assert pool.read_run(2, 0) == []

    def test_read_run_populates_pool_and_charges_one_seek(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=5)
        pool.read_run(5, 2)
        assert pool.contains(5) and pool.contains(6)
        assert (pool.misses, pool.hits) == (2, 0)
        stats = disk_with_blocks.stats
        assert (stats.random_reads, stats.sequential_reads) == (1, 1)
        assert pool.read_run(5, 2) == ["payload-5", "payload-6"]
        assert (pool.misses, pool.hits) == (2, 2)
        assert stats.total_reads == 2

    def test_read_run_longer_than_the_pool_keeps_its_tail(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=3)
        pool.read(9)
        assert pool.read_run(0, 5) == [f"payload-{block}" for block in range(5)]
        assert [block for block in range(10) if pool.contains(block)] == [2, 3, 4]

    def test_invalidate_single_and_all(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=5)
        pool.read(1)
        pool.read(2)
        pool.invalidate(1)
        assert not pool.contains(1) and pool.contains(2)
        pool.invalidate()
        assert pool.resident_blocks == 0

    def test_clear_resets_counters(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=5)
        pool.read(1)
        pool.read(1)
        pool.clear()
        assert pool.hits == 0 and pool.misses == 0
        assert pool.hit_ratio == 0.0

    def test_hit_ratio(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=5)
        pool.read(1)
        pool.read(1)
        pool.read(2)
        assert pool.hit_ratio == pytest.approx(1 / 3)


class TestWriteBack:
    """The write-back discipline: dirty frames reach the device, exactly once."""

    def test_write_stages_without_touching_the_device(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=4)
        writes_before = disk_with_blocks.stats.writes
        pool.write(3, "staged")
        assert pool.dirty_blocks == 1
        assert disk_with_blocks.stats.writes == writes_before
        assert disk_with_blocks.peek(3) == "payload-3", "device must be untouched"
        assert pool.read(3) == "staged", "the pool serves the staged version"

    def test_eviction_writes_dirty_frame_back(self, disk_with_blocks):
        disk_with_blocks.reset_stats()
        pool = BufferPool(disk_with_blocks, capacity=2)
        pool.write(0, "dirty-0")
        pool.read(1)
        pool.read(2)  # evicts block 0 (LRU) → must write back
        assert not pool.contains(0)
        assert pool.dirty_blocks == 0
        assert disk_with_blocks.peek(0) == "dirty-0"
        assert disk_with_blocks.stats.writes == 1

    def test_clean_eviction_does_not_write(self, disk_with_blocks):
        disk_with_blocks.reset_stats()
        pool = BufferPool(disk_with_blocks, capacity=2)
        pool.read(0)
        pool.read(1)
        pool.read(2)  # evicts clean block 0
        assert disk_with_blocks.stats.writes == 0

    def test_flush_writes_all_dirty_frames_and_keeps_them_resident(
        self, disk_with_blocks
    ):
        disk_with_blocks.reset_stats()
        pool = BufferPool(disk_with_blocks, capacity=4)
        pool.write(5, "five")
        pool.write(6, "six")
        pool.flush()
        assert pool.dirty_blocks == 0
        assert pool.contains(5) and pool.contains(6)
        assert disk_with_blocks.peek(5) == "five"
        assert disk_with_blocks.peek(6) == "six"
        pool.flush()  # nothing dirty: no further writes
        assert disk_with_blocks.stats.writes == 2

    def test_invalidate_and_clear_write_back_before_dropping(self, disk_with_blocks):
        pool = BufferPool(disk_with_blocks, capacity=4)
        pool.write(7, "seven")
        pool.invalidate(7)
        assert disk_with_blocks.peek(7) == "seven"
        pool.write(8, "eight")
        pool.clear()
        assert disk_with_blocks.peek(8) == "eight"
        assert pool.dirty_blocks == 0

    def test_rewrite_of_dirty_frame_writes_once_on_eviction(self, disk_with_blocks):
        disk_with_blocks.reset_stats()
        pool = BufferPool(disk_with_blocks, capacity=4)
        pool.write(4, "v1")
        pool.write(4, "v2")
        pool.flush()
        assert disk_with_blocks.peek(4) == "v2"
        assert disk_with_blocks.stats.writes == 1


# ----------------------------------------------------------------------
# read_run charges, caches and evicts exactly as the per-block loop does
# ----------------------------------------------------------------------
DEVICE_BLOCKS = 12

#: What happened before the run: reads and staged writes through the pool
#: (resident and dirty subsets), reads and writes straight at the device (the
#: last accessed block moves without residency).
preludes = st.lists(
    st.tuples(
        st.sampled_from(["pool-read", "pool-write", "device-read", "device-write"]),
        st.integers(min_value=0, max_value=DEVICE_BLOCKS - 1),
    ),
    max_size=10,
)
runs = st.integers(min_value=0, max_value=DEVICE_BLOCKS - 1).flatmap(
    lambda first: st.tuples(
        st.just(first), st.integers(min_value=1, max_value=DEVICE_BLOCKS - first)
    )
)


def observable_state(disk, pool):
    """Everything a caller or a later query could tell two pools apart by."""
    return {
        "stats": dataclasses.asdict(disk.stats),
        "hits": pool.hits,
        "misses": pool.misses,
        "lru": list(pool._frames.items()),
        "dirty": sorted(pool._dirty),
        "device": [disk.peek(block) for block in range(disk.num_blocks)],
    }


class TestReadRunLedgerEquivalence:
    """``read_run`` against the loop it replaces, on every backend."""

    @pytest.fixture()
    def twin_pools(self, make):
        serial = itertools.count()
        opened = []

        def build(capacity, prelude):
            pools = []
            for side in "ab":
                disk = make(stem=f"twin-{next(serial)}-{side}")
                opened.append(disk)
                for block in range(DEVICE_BLOCKS):
                    disk.allocate([("record", block)])
                pool = BufferPool(disk, capacity=capacity)
                for kind, block in prelude:
                    if kind == "pool-read":
                        pool.read(block)
                    elif kind == "pool-write":
                        pool.write(block, [("staged", block)])
                    elif kind == "device-read":
                        disk.read(block)
                    else:
                        disk.write(block, [("rewritten", block)])
                pools.append((disk, pool))
            return pools

        yield build
        for disk in opened:
            disk.close()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        capacity=st.integers(min_value=1, max_value=8), prelude=preludes, run=runs
    )
    @example(capacity=4, prelude=[], run=(2, 7))  # cold pool: the bulk path
    @example(capacity=4, prelude=[("device-read", 1)], run=(2, 3))  # sequential start
    @example(capacity=2, prelude=[("pool-write", 9)], run=(0, 5))  # dirty eviction
    @example(capacity=8, prelude=[("pool-read", 4)], run=(3, 3))  # a resident block
    def test_same_payloads_ledger_and_pool_state(
        self, twin_pools, capacity, prelude, run
    ):
        first, count = run
        (run_disk, run_pool), (loop_disk, loop_pool) = twin_pools(capacity, prelude)
        assert observable_state(run_disk, run_pool) == observable_state(
            loop_disk, loop_pool
        )
        got = run_pool.read_run(first, count)
        expected = [loop_pool.read(block) for block in range(first, first + count)]
        assert got == expected
        assert observable_state(run_disk, run_pool) == observable_state(
            loop_disk, loop_pool
        )

    def test_run_past_the_device_raises_and_charges_nothing(self, make):
        disk = make()
        for block in range(4):
            disk.allocate([block])
        pool = BufferPool(disk, capacity=8)
        pool.read(0)
        before = observable_state(disk, pool)
        for first, count in [(2, 3), (4, 1), (-1, 2)]:
            with pytest.raises(BlockOutOfRangeError):
                pool.read_run(first, count)
            with pytest.raises(BlockOutOfRangeError):
                disk.read_run(first, count)
        assert observable_state(disk, pool) == before
        disk.close()

    def test_closed_backend_raises(self, make):
        disk = make()
        disk.allocate(["payload"])
        pool = BufferPool(disk, capacity=2)
        disk.close()
        with pytest.raises(StorageError):
            disk.read_run(0, 1)
        with pytest.raises(StorageError):
            pool.read_run(0, 1)
