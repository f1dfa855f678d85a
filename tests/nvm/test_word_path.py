"""Tests for the per-word hot path: the AddressSpace route cache and the
flat ``read``/``write`` bodies of the devices."""

import random

import numpy as np
import pytest

from repro.errors import IllegalArgumentException
from repro.nvm.clock import ChargeMeter, Clock
from repro.nvm.device import (
    LINE_WORDS,
    AddressSpace,
    DramDevice,
    MemoryDevice,
    NvmDevice,
)
from repro.nvm.latency import DEFAULT_LATENCY as LAT
from repro.nvm.persist import PersistEventLog


@pytest.fixture
def clock():
    return Clock()


def _out_of_range_message(dev, offset):
    return (f"{dev.name}: access [{offset}, {offset + 1}) outside "
            f"[0, {dev.size_words})")


class TestRouteCache:
    def test_device_mapped_after_first_routed_access(self, clock):
        space = AddressSpace()
        first = NvmDevice(64, clock, name="first")
        space.map(0x100, first)
        space.write(0x105, 7)
        assert space.read(0x105) == 7
        second = DramDevice(64, clock, name="second")
        space.map(0x1000, second)
        space.write(0x1001, 9)
        assert second.read(1) == 9
        assert space.read(0x105) == 7
        assert space.device_of(0x1001) is second
        assert space.device_of(0x100) is first

    def test_unmap_then_access_raises(self, clock):
        space = AddressSpace()
        dev = NvmDevice(64, clock)
        space.map(0x100, dev)
        space.write(0x100, 1)
        assert space.read(0x100) == 1  # route now cached on dev
        space.unmap(dev)
        for access in (lambda: space.read(0x100),
                       lambda: space.write(0x100, 2),
                       lambda: space.read_block(0x100, 2),
                       lambda: space.fill(0x100, 2),
                       lambda: space.device_of(0x100)):
            with pytest.raises(IllegalArgumentException,
                               match="is not mapped"):
                access()
        assert not space.is_persistent(0x100)

    def test_alternating_devices_read_right_words_at_right_cost(self, clock):
        space = AddressSpace()
        dram = DramDevice(64, clock, name="dram-heap")
        pjh = NvmDevice(64, clock, name="pjh")
        space.map(0x100, dram)
        space.map(0x1000, pjh)
        for i in range(16):
            dram.write(i, 100 + i)
            pjh.write(i, -(200 + i))
        dram._hot.clear()  # cold caches: each line's first read misses
        pjh._hot.clear()
        expected = [
            (0x100, 100, LAT.dram_read_ns),
            (0x1000, -200, LAT.nvm_read_ns),
            (0x101, 101, LAT.cache_hit_ns),  # same DRAM line: a hit
            (0x1000 + LINE_WORDS, -208, LAT.nvm_read_ns),
            (0x100 + LINE_WORDS, 108, LAT.dram_read_ns),
            (0x1001, -201, LAT.cache_hit_ns),
        ]
        for address, word, cost in expected:
            start = clock.now_ns
            assert space.read(address) == word
            assert clock.now_ns - start == cost
        assert dram.stats.reads == pjh.stats.reads == 3

    def test_alternating_stores_land_on_their_own_device(self, clock):
        space = AddressSpace()
        dram = DramDevice(64, clock)
        pjh = NvmDevice(64, clock)
        space.map(0x100, dram)
        space.map(0x1000, pjh)
        for i in range(20):
            space.write(0x100 + i, i)
            space.write(0x1000 + i, -i)
        assert [space.read(0x100 + i) for i in range(20)] == list(range(20))
        assert [space.read(0x1000 + i) for i in range(20)] == \
            [-i for i in range(20)]
        assert dram.stats.writes == pjh.stats.writes == 20
        assert pjh.dirty_line_count == 3

    def test_routed_fill_matches_write_block(self, clock):
        a, b = Clock(), Clock()
        space_a, space_b = AddressSpace(), AddressSpace()
        dev_a, dev_b = NvmDevice(64, a), NvmDevice(64, b)
        log_a, log_b = PersistEventLog(), PersistEventLog()
        dev_a.event_log, dev_b.event_log = log_a, log_b
        space_a.map(0x40, dev_a)
        space_b.map(0x40, dev_b)
        space_a.write_block(0x43, np.zeros(13, dtype=np.int64))
        space_b.fill(0x43, 13, 0)
        assert a.now_ns == b.now_ns
        assert dev_a.stats == dev_b.stats
        assert dev_a._hot == dev_b._hot
        assert dev_a._dirty_lines == dev_b._dirty_lines
        assert log_a.events == log_b.events


class TestFlatWordPath:
    @pytest.mark.parametrize("kind", [DramDevice, NvmDevice])
    @pytest.mark.parametrize("offset", [-1, -8, 64, 65])
    def test_out_of_range_keeps_the_message(self, clock, kind, offset):
        dev = kind(64, clock, name="edge")
        with pytest.raises(IllegalArgumentException) as read_err:
            dev.read(offset)
        assert str(read_err.value) == _out_of_range_message(dev, offset)
        with pytest.raises(IllegalArgumentException) as write_err:
            dev.write(offset, 1)
        assert str(write_err.value) == _out_of_range_message(dev, offset)
        assert dev.stats.reads == dev.stats.writes == 0
        assert clock.now_ns == 0.0 and not dev._hot

    @pytest.mark.parametrize("kind", [DramDevice, NvmDevice])
    def test_word_ops_match_single_word_block_ops(self, kind):
        """read/write charge, count and warm lines exactly as the block
        ops do for one word (those keep the per-line _touch loop)."""
        fused_clock, block_clock = Clock(), Clock()
        size = (MemoryDevice.CACHE_LINES + 40) * LINE_WORDS
        fused = kind(size, fused_clock)
        block = kind(size, block_clock)
        rng = random.Random(5)
        for _ in range(6000):
            offset = rng.randrange(size)
            if rng.random() < 0.3:
                value = rng.randrange(-2**63, 2**63)
                fused.write(offset, value)
                block.write_block(offset, np.array([value], dtype=np.int64))
            else:
                assert fused.read(offset) == int(block.read_block(offset, 1)[0])
        assert fused_clock.now_ns == block_clock.now_ns
        assert fused_clock.breakdown() == block_clock.breakdown()
        assert fused.stats == block.stats
        assert list(fused._hot) == list(block._hot)
        if kind is NvmDevice:
            assert fused._dirty_lines == block._dirty_lines

    def test_write_wraps_to_signed_64_bits(self, clock):
        dev = NvmDevice(64, clock)
        dev.write(0, 2**63)
        dev.write(1, 2**64 + 5)
        dev.write(2, -(2**63) - 1)
        assert dev.read(0) == -(2**63)
        assert dev.read(1) == 5
        assert dev.read(2) == 2**63 - 1

    def test_nvm_write_feeds_the_event_log(self, clock):
        dev = NvmDevice(64, clock)
        dev.event_log = log = PersistEventLog()
        dev.write(9, 1)
        dev.write_block(9, np.ones(1, dtype=np.int64))
        assert log.events[0] == log.events[1]
        assert dev.line_state(9 // LINE_WORDS) == "dirty"

    def test_charges_inside_divert_land_on_the_meter(self, clock):
        dev = NvmDevice(64, clock)
        meter = ChargeMeter()
        with clock.scope("gc"):
            with clock.divert(meter):
                dev.read(0)
                dev.read(1)
                dev.write(2, 3)
        assert meter.ns == LAT.nvm_read_ns + LAT.cache_hit_ns \
            + LAT.nvm_write_ns
        assert clock.now_ns == 0.0
        assert clock.breakdown() == {}

    def test_charges_land_on_the_innermost_scope(self, clock):
        dev = DramDevice(64, clock)
        with clock.scope("outer"):
            dev.read(0)
            with clock.scope("inner"):
                dev.write(0, 1)
                dev.read(LINE_WORDS)
        dev.read(2 * LINE_WORDS)
        assert clock.breakdown() == {
            "outer": LAT.dram_read_ns,
            "inner": LAT.dram_write_ns + LAT.dram_read_ns,
            "other": LAT.dram_read_ns,
        }
