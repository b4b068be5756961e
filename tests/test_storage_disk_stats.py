"""Unit tests for the simulated disk and its IO accounting."""

from __future__ import annotations

import pytest

from repro.core import StorageError
from repro.core.errors import BlockOutOfRangeError
from repro.storage import IOStats, SimulatedBackend


class TestIOStats:
    def test_first_read_is_random(self):
        stats = IOStats()
        stats.record_read(5)
        assert stats.random_reads == 1
        assert stats.sequential_reads == 0

    def test_consecutive_block_read_is_sequential(self):
        stats = IOStats()
        stats.record_read(5)
        stats.record_read(6)
        stats.record_read(7)
        assert stats.random_reads == 1
        assert stats.sequential_reads == 2

    def test_non_consecutive_read_is_random(self):
        stats = IOStats()
        stats.record_read(5)
        stats.record_read(9)
        stats.record_read(3)
        assert stats.random_reads == 3

    def test_backwards_read_is_random(self):
        stats = IOStats()
        stats.record_read(5)
        stats.record_read(4)
        assert stats.random_reads == 2

    def test_normalization_uses_sequential_cost(self):
        stats = IOStats(sequential_cost=20)
        stats.record_read(0)
        for block in range(1, 21):
            stats.record_read(block)
        # 1 random + 20 sequential = 2.0 normalized
        assert stats.normalized() == pytest.approx(2.0)

    def test_snapshot_delta(self):
        stats = IOStats()
        stats.record_read(0)
        before = stats.snapshot()
        stats.record_read(1)
        stats.record_read(10)
        delta = stats.delta_since(before)
        assert delta.sequential_reads == 1
        assert delta.random_reads == 1

    def test_reset_locality_breaks_sequential_run(self):
        stats = IOStats()
        stats.record_read(5)
        stats.reset_locality()
        stats.record_read(6)
        assert stats.random_reads == 2

    def test_reset_clears_everything(self):
        stats = IOStats()
        stats.record_read(1)
        stats.record_write(2)
        stats.record_buffer_hit(1)
        stats.reset()
        assert stats.total_reads == 0
        assert stats.writes == 0
        assert stats.buffer_hits == 0


class TestSimulatedBackend:
    def test_allocate_returns_increasing_ids(self):
        disk = SimulatedBackend()
        first = disk.allocate("a")
        second = disk.allocate("b")
        assert (first, second) == (0, 1)
        assert disk.num_blocks == 2

    def test_read_returns_written_payload_and_charges_io(self):
        disk = SimulatedBackend()
        block = disk.allocate()
        disk.write(block, {"hello": 1})
        before_reads = disk.stats.total_reads
        assert disk.read(block) == {"hello": 1}
        assert disk.stats.total_reads == before_reads + 1

    def test_peek_does_not_charge_io(self):
        disk = SimulatedBackend()
        block = disk.allocate("payload")
        reads_before = disk.stats.total_reads
        assert disk.peek(block) == "payload"
        assert disk.stats.total_reads == reads_before

    def test_out_of_range_access_raises(self):
        disk = SimulatedBackend()
        with pytest.raises(BlockOutOfRangeError):
            disk.read(0)
        disk.allocate()
        with pytest.raises(BlockOutOfRangeError):
            disk.read(5)

    def test_allocate_many_is_contiguous(self):
        disk = SimulatedBackend()
        disk.allocate("x")
        blocks = disk.allocate_many(4)
        assert blocks == [1, 2, 3, 4]
        assert disk.num_blocks == 5

    def test_allocate_many_rejects_negative(self):
        with pytest.raises(StorageError):
            SimulatedBackend().allocate_many(-1)

    def test_sequential_scan_is_mostly_sequential_io(self):
        disk = SimulatedBackend()
        for value in range(50):
            disk.allocate(value)
        for block in range(50):
            disk.read(block)
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == 49
