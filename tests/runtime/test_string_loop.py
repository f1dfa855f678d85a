"""The fused string element loop against the per-character loop.

``new_string``, ``pnew_string`` and ``read_string`` run each string's
characters 1..n-1 as one routed ``write_elements``/``read_elements``
call.  Every test here runs the same program on two sessions: one as
shipped, one whose ``_string_chars`` is the per-character
``array_set``/``array_get`` loop it replaced.  Simulated time (total and
per category), ``DeviceStats``, LRU order, dirty lines, event-log
records and the values read back must match exactly.
"""

import random

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import HeapCorruptionError, IllegalArgumentException
from repro.nvm.clock import ChargeMeter, Clock
from repro.nvm.persist import PersistEventLog
from repro.runtime import layout
from repro.runtime.klass import FieldKind, field


def _interpreted(vm):
    """The per-character loops the fused helper replaced."""
    def string_chars(chars, codes=None):
        if codes is None:
            return [vm.array_get(chars, i)
                    for i in range(vm.array_length(chars))]
        for i, code in enumerate(codes):
            vm.array_set(chars, i, code)
        return codes
    return string_chars


def _twins(tmp_path, cache_lines=None):
    sessions = []
    for name in ("fused", "interpreted"):
        jvm = Espresso(tmp_path / name, config=EspressoConfig(clock=Clock()))
        jvm.create_heap("h", 1 << 20)
        jvm.heaps.heap("h").device.event_log = PersistEventLog()
        if cache_lines is not None:
            for mapping in jvm.vm.memory.mappings:
                mapping.device.CACHE_LINES = cache_lines
        sessions.append(jvm)
    sessions[1].vm._string_chars = _interpreted(sessions[1].vm)
    return sessions


def _state(jvm):
    clock = jvm.vm.clock
    devices = {}
    for mapping in jvm.vm.memory.mappings:
        dev = mapping.device
        log = getattr(dev, "event_log", None)
        devices[dev.name] = {
            "stats": dev.stats.as_dict(),
            "hot": list(dev._hot),
            "dirty": sorted(getattr(dev, "_dirty_lines", ())),
            "events": list(log.events) if log is not None else None,
        }
    return {"now_ns": clock.now_ns, "breakdown": clock.breakdown(),
            "devices": devices}


def _texts():
    rng = random.Random(23)
    texts = ["", "a", "ab", "espresso"]
    for _ in range(12):
        length = rng.randrange(0, 71)
        texts.append("".join(chr(rng.randrange(0x110000))
                             for _ in range(length)))
    return texts


def _pad(jvm, residue, persistent):
    """Allocate 3-word empty arrays until the next object should start
    at a word address congruent to *residue* mod 8."""
    alloc = jvm.pnew_array if persistent else jvm.new_array
    for _ in range(8):
        probe = alloc(FieldKind.INT, 0)
        if (probe.address + layout.ARRAY_HEADER_WORDS) % 8 == residue:
            return


def _program(jvm, persistent, residue=None):
    out = []
    for text in _texts():
        if residue is not None:
            _pad(jvm, residue, persistent)
        string = jvm.pnew_string(text) if persistent else jvm.new_string(text)
        chars = jvm.get_field(string, "value")
        out.append((chars.address, jvm.read_string(string)))
    return out


@pytest.mark.parametrize("persistent", [True, False], ids=["nvm", "dram"])
@pytest.mark.parametrize("residue", [None, 6, 7],
                         ids=["any", "klass-length-straddle",
                              "mark-klass-straddle"])
@pytest.mark.parametrize("cache_lines", [None, 2], ids=["cache", "tiny"])
def test_strings_match_the_per_character_loop(tmp_path, persistent,
                                              residue, cache_lines):
    fused, interpreted = _twins(tmp_path, cache_lines)
    got = _program(fused, persistent, residue)
    want = _program(interpreted, persistent, residue)
    assert got == want
    assert [text for _address, text in got] == _texts()
    if residue is not None:
        # The padding really placed most char arrays on the residue.
        hits = sum(address % 8 == residue for address, _text in got)
        assert hits >= len(got) // 2
    assert _state(fused) == _state(interpreted)


def test_strings_inside_divert_and_nested_scopes(tmp_path):
    meters = []
    sessions = _twins(tmp_path)
    for jvm in sessions:
        clock = jvm.vm.clock
        meter = ChargeMeter()
        with clock.scope("outer"):
            kept = jvm.pnew_string("outer scope string")
            with clock.scope("strings"):
                dram = jvm.new_string("nested scope, in DRAM")
                with clock.divert(meter):
                    texts = [jvm.read_string(kept), jvm.read_string(dram),
                             jvm.read_string(jvm.pnew_string("diverted"))]
            assert texts == ["outer scope string", "nested scope, in DRAM",
                             "diverted"]
        meters.append(meter.ns)
    assert meters[0] == meters[1] > 0
    assert set(sessions[0].vm.clock.breakdown()) >= {"outer", "strings"}
    assert _state(sessions[0]) == _state(sessions[1])


def test_element_zero_checks_still_raise(tmp_path):
    """A corrupt or mistyped char array fails in element 0's checked
    access, exactly as the per-character loop did."""
    states = []
    for jvm in _twins(tmp_path):
        box = jvm.define_class("Box", [field("v", FieldKind.INT)])
        not_an_array = jvm.pnew_string("abc")
        boxed = jvm.pnew(box)
        jvm.set_field(boxed, "v", 3)  # the word an array keeps its length in
        jvm.set_field(not_an_array, "value", boxed)
        with pytest.raises(IllegalArgumentException, match="not an array"):
            jvm.read_string(not_an_array)
        corrupt = jvm.pnew_string("abc")
        chars = jvm.get_field(corrupt, "value")
        jvm.vm.memory.write(chars.address + layout.KLASS_WORD_OFFSET, 4)
        with pytest.raises(HeapCorruptionError, match="resolves to no Klass"):
            jvm.read_string(corrupt)
        states.append(_state(jvm))
    assert states[0] == states[1]
