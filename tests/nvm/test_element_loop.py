"""Tests for the fused element loop (``read_elements``/``write_elements``)
and the sequential ``Clock.charge_each`` behind it.

Every fused call is checked against the per-word calls it replaces, run
on a twin device: for each element, ``read`` every probe word, then
``read`` or ``write`` the element.  Clock totals and breakdown,
``DeviceStats``, LRU order, dirty lines and event-log records must match.
"""

import math
import random

import pytest

from repro.errors import IllegalArgumentException
from repro.nvm.clock import ChargeMeter, Clock
from repro.nvm.device import AddressSpace, DramDevice, NvmDevice
from repro.nvm.persist import PersistEventLog

SIZE = 256
KINDS = (NvmDevice, DramDevice)


def _twin(kind, cache_lines=None):
    clock = Clock()
    dev = kind(SIZE, clock, name="dev")
    if cache_lines is not None:
        dev.CACHE_LINES = cache_lines
    if isinstance(dev, NvmDevice):
        dev.event_log = PersistEventLog()
    rng = random.Random(5)
    for offset in range(SIZE):
        dev.write(offset, rng.randrange(-2**63, 2**63))
    if isinstance(dev, NvmDevice):
        dev.persist_all()
        dev.event_log.clear()
    dev._hot.clear()
    return clock, dev


def _state(clock, dev):
    state = {
        "now_ns": clock.now_ns,
        "breakdown": clock.breakdown(),
        "stats": dev.stats.as_dict(),
        "hot": list(dev._hot),
        "words": dev._words.tolist(),
    }
    if isinstance(dev, NvmDevice):
        state["dirty"] = sorted(dev._dirty_lines)
        state["events"] = list(dev.event_log.events)
    return state


def _per_word_read(dev, probes, offset, count):
    words = []
    for element in range(offset, offset + count):
        for probe in probes:
            dev.read(probe)
        words.append(dev.read(element))
    return words


def _per_word_write(dev, probes, offset, values):
    for i, value in enumerate(values):
        for probe in probes:
            dev.read(probe)
        dev.write(offset + i, value)


#: (probes, first element): a header inside one line, a header whose
#: klass and length words straddle a line, elements starting on a line
#: boundary.
LAYOUTS = [((9, 10), 12), ((15, 16), 18), ((5, 6), 8), ((), 40)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cache_lines", [None, 1, 2, 3])
@pytest.mark.parametrize("probes,offset", LAYOUTS)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 70])
def test_read_elements_matches_per_word_reads(kind, cache_lines, probes,
                                              offset, count):
    fused_clock, fused = _twin(kind, cache_lines)
    word_clock, word = _twin(kind, cache_lines)
    # Warm a few unrelated lines so a shrunk cache evicts mid-loop.
    for dev in (fused, word):
        dev.read(200)
        dev.read(120)
    got = fused.read_elements(probes, offset, count)
    want = _per_word_read(word, probes, offset, count)
    assert got == want
    assert _state(fused_clock, fused) == _state(word_clock, word)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cache_lines", [None, 1, 2])
@pytest.mark.parametrize("probes,offset", LAYOUTS)
@pytest.mark.parametrize("count", [0, 1, 2, 9, 70])
def test_write_elements_matches_per_word_writes(kind, cache_lines, probes,
                                                offset, count):
    rng = random.Random(count)
    values = [rng.randrange(-2**70, 2**70) for _ in range(count)]
    fused_clock, fused = _twin(kind, cache_lines)
    word_clock, word = _twin(kind, cache_lines)
    fused.write_elements(probes, offset, values)
    _per_word_write(word, probes, offset, values)
    assert _state(fused_clock, fused) == _state(word_clock, word)


@pytest.mark.parametrize("kind", KINDS)
def test_random_loops_match_per_word_calls(kind):
    rng = random.Random(17)
    fused_clock, fused = _twin(kind, cache_lines=4)
    word_clock, word = _twin(kind, cache_lines=4)
    for _ in range(60):
        header = rng.randrange(0, SIZE - 80)
        probes = (header + 1, header + 2)
        count = rng.randrange(0, 71)
        if rng.random() < 0.5:
            assert (fused.read_elements(probes, header + 3, count)
                    == _per_word_read(word, probes, header + 3, count))
        else:
            values = [rng.randrange(0, 0x110000) for _ in range(count)]
            fused.write_elements(probes, header + 3, values)
            _per_word_write(word, probes, header + 3, values)
    assert _state(fused_clock, fused) == _state(word_clock, word)


@pytest.mark.parametrize("kind", KINDS)
def test_charges_inside_divert_and_nested_scopes(kind):
    fused_clock, fused = _twin(kind)
    word_clock, word = _twin(kind)
    meters = []
    for clock, dev, read, write in (
            (fused_clock, fused, fused.read_elements, fused.write_elements),
            (word_clock, word,
             lambda p, o, c: _per_word_read(word, p, o, c),
             lambda p, o, v: _per_word_write(word, p, o, v))):
        meter = ChargeMeter()
        with clock.scope("outer"):
            read((1, 2), 3, 20)
            with clock.scope("inner"):
                write((33, 34), 35, list(range(30)))
                with clock.divert(meter):
                    read((65, 66), 67, 40)
                    write((1, 2), 3, [7] * 12)
        meters.append(meter.ns)
    assert meters[0] == meters[1] > 0
    assert fused_clock.breakdown() == word_clock.breakdown()
    assert set(fused_clock.breakdown()) == {"other", "outer", "inner"}
    assert _state(fused_clock, fused) == _state(word_clock, word)


@pytest.mark.parametrize("kind", KINDS)
def test_out_of_range_raises_before_any_charge(kind):
    clock, dev = _twin(kind)
    before = _state(clock, dev)
    with pytest.raises(IllegalArgumentException, match="outside"):
        dev.read_elements((1, 2), SIZE - 3, 4)
    with pytest.raises(IllegalArgumentException, match="outside"):
        dev.write_elements((1, 2), SIZE - 1, [1, 2])
    with pytest.raises(IllegalArgumentException, match="outside"):
        dev.read_elements((-1, 2), 3, 1)
    with pytest.raises(IllegalArgumentException, match="outside"):
        dev.read_elements((1, SIZE), 3, 1)
    assert _state(clock, dev) == before


def test_routed_calls_reach_the_right_device():
    clock = Clock()
    space = AddressSpace()
    dram = DramDevice(64, clock, name="dram")
    nvm = NvmDevice(64, clock, name="nvm")
    space.map(0x100, dram)
    space.map(0x1000, nvm)
    space.write_elements((0x1001, 0x1002), 0x1003, [65, 66, 67])
    space.write_elements((0x101, 0x102), 0x103, [1, 2])
    assert space.read_elements((0x1001, 0x1002), 0x1003, 3) == [65, 66, 67]
    assert space.read_elements((0x101, 0x102), 0x103, 2) == [1, 2]
    assert nvm.stats.writes == 3 and nvm.stats.reads == 6 + 9
    assert dram.stats.writes == 2 and dram.stats.reads == 4 + 6
    # An empty loop at the very end of a mapping is still routed by its
    # header, and charges nothing.
    now = clock.now_ns
    assert space.read_elements((0x1000 + 62, 0x1000 + 63), 0x1040, 0) == []
    assert clock.now_ns == now
    with pytest.raises(IllegalArgumentException, match="is not mapped"):
        space.read_elements((0x2000, 0x2001), 0x2002, 1)


class TestChargeEach:
    COSTS = [0.1, 2.0, 1e-9, 80.0, 0.3, 30.0, 1e16, 0.7]

    def _sequential(self, costs, category=None):
        clock = Clock()
        for ns in costs:
            clock.charge(ns, category)
        return clock

    def test_same_float_additions_as_sequential_charges(self):
        fused = Clock()
        fused.charge(0.2)
        fused.charge_each(self.COSTS)
        word = self._sequential([0.2] + self.COSTS)
        assert fused.now_ns == word.now_ns
        assert fused.breakdown() == word.breakdown()
        # The costs are order-sensitive: one correctly rounded lumped
        # charge would land elsewhere.
        assert fused.now_ns != math.fsum([0.2] + self.COSTS)

    def test_innermost_scope_and_divert_meter(self):
        fused, word = Clock(), Clock()
        for clock, charge in ((fused, fused.charge_each),
                              (word, lambda costs: [word.charge(ns)
                                                    for ns in costs])):
            with clock.scope("a"):
                with clock.scope("b"):
                    charge(self.COSTS)
                meter = ChargeMeter()
                meter.ns = 0.1
                with clock.divert(ChargeMeter()):
                    with clock.divert(meter):
                        charge(self.COSTS)
                charge(self.COSTS[:3])
                clock.charge(meter.ns)
        assert fused.now_ns == word.now_ns
        assert fused.breakdown() == word.breakdown()

    def test_empty_charges_nothing(self):
        clock = Clock()
        clock.charge_each([])
        assert clock.now_ns == 0.0 and clock.breakdown() == {}

    def test_negative_raises_before_any_charge(self):
        clock = Clock()
        with pytest.raises(ValueError, match="negative charge"):
            clock.charge_each([1.0, -2.0])
        assert clock.now_ns == 0.0 and clock.breakdown() == {}
