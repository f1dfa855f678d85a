"""Tests for the CPU cache model and latency configuration."""

import pytest

from repro.nvm.clock import Clock
from repro.nvm.device import LINE_WORDS, MemoryDevice, NvmDevice
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig


@pytest.fixture
def clock():
    return Clock()


class TestCacheModel:
    def test_second_read_of_same_line_is_cheap(self, clock):
        dev = NvmDevice(1024, clock)
        dev.read(0)
        miss_cost = clock.now_ns
        dev.read(1)  # same line
        hit_cost = clock.now_ns - miss_cost
        assert hit_cost < miss_cost

    def test_write_warms_the_line(self, clock):
        dev = NvmDevice(1024, clock)
        dev.write(0, 1)
        before = clock.now_ns
        dev.read(0)
        assert clock.now_ns - before == DEFAULT_LATENCY.cache_hit_ns

    def test_lru_eviction(self, clock):
        dev = NvmDevice(
            (MemoryDevice.CACHE_LINES + 10) * LINE_WORDS * 2, clock)
        dev.read(0)
        # Touch enough distinct lines to evict line 0.
        for line in range(1, MemoryDevice.CACHE_LINES + 5):
            dev.read(line * LINE_WORDS)
        before = clock.now_ns
        dev.read(0)
        assert clock.now_ns - before == DEFAULT_LATENCY.nvm_read_ns  # miss

    def test_crash_clears_cache(self, clock):
        dev = NvmDevice(1024, clock)
        dev.read(0)
        dev.crash()
        before = clock.now_ns
        dev.read(0)
        assert clock.now_ns - before == DEFAULT_LATENCY.nvm_read_ns

    def test_load_image_clears_cache(self, clock):
        dev = NvmDevice(1024, clock)
        dev.read(0)
        dev.load_image(dev.durable_image())
        before = clock.now_ns
        dev.read(0)
        assert clock.now_ns - before == DEFAULT_LATENCY.nvm_read_ns

    def test_block_read_charges_per_line(self, clock):
        dev = NvmDevice(1024, clock)
        dev.read_block(0, LINE_WORDS * 3)  # 3 cold lines
        assert clock.now_ns == DEFAULT_LATENCY.nvm_read_ns * 3


class TestAsyncFlush:
    def test_async_flush_is_cheaper_but_still_durable(self, clock):
        dev = NvmDevice(1024, clock)
        dev.write(0, 42)
        t0 = clock.now_ns
        dev.clflush(0, asynchronous=True)
        async_cost = clock.now_ns - t0
        assert async_cost == DEFAULT_LATENCY.clflush_issue_ns
        dev.crash()
        assert dev.read(0) == 42

    def test_sync_flush_costs_full_latency(self, clock):
        dev = NvmDevice(1024, clock)
        dev.write(0, 1)
        t0 = clock.now_ns
        dev.clflush(0)
        assert clock.now_ns - t0 == DEFAULT_LATENCY.clflush_ns


class TestLatencyConfig:
    def test_scaled(self):
        scaled = DEFAULT_LATENCY.scaled(2.0)
        assert scaled.nvm_read_ns == DEFAULT_LATENCY.nvm_read_ns * 2
        assert scaled.clflush_ns == DEFAULT_LATENCY.clflush_ns * 2
        assert scaled.cpu_op_ns == DEFAULT_LATENCY.cpu_op_ns  # CPU unscaled

    def test_custom_config_flows_to_devices(self, clock):
        config = LatencyConfig(nvm_read_ns=7.0, cache_hit_ns=7.0)
        dev = NvmDevice(64, clock, latency=config)
        dev.read(0)
        assert clock.now_ns == 7.0

    def test_writes_cheaper_than_flushes(self):
        """The write-back model: stores are cheap, durability costs at
        flush time (several times DRAM write latency, per the paper)."""
        assert DEFAULT_LATENCY.nvm_write_ns < DEFAULT_LATENCY.clflush_ns
        assert DEFAULT_LATENCY.clflush_ns > 3 * DEFAULT_LATENCY.dram_write_ns
