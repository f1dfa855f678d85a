"""Simulated-time invariance of the device word path and string loops.

A fixed mixed program — DRAM allocation with a young GC, a DRAM
``new_string``/``read_string``, ``pnew_string`` (including empty and
one-character strings), a ``PjhHashmap`` under a ``PjhTransaction``,
``array_copy`` on both heaps, a crashed restart and a reload — must
charge exactly the same simulated nanoseconds (total and per category),
bump exactly the same ``DeviceStats`` counters on every mapped device
and leave byte-identical durable images.  The golden values were
captured by running this file as a script on the commit before the fused
string element loop, whose strings still made one ``array_get`` or
``array_set`` per character; the program without the DRAM, empty and
one-character strings had first been pinned on the unfused per-word path
(``mapping_at`` → ``_check`` → ``_charge_read``/``_touch`` →
``Clock.charge`` on every word).  So host-speed work on either path
cannot move a simulated number unnoticed.

``String.hash`` words come from Python's ``hash(str)``, so the program
runs in a child interpreter under ``PYTHONHASHSEED=0``; run this file as
a script (``python tests/nvm/test_sim_invariance.py DIR``) to print the
result as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import Espresso, EspressoConfig
from repro.nvm.clock import Clock
from repro.nvm.device import NvmDevice
from repro.pjhlib import PjhHashmap, PjhLong, PjhString, PjhTransaction
from repro.runtime.klass import FieldKind, field


def _snapshot(jvm):
    devices = {m.device.name: m.device for m in jvm.vm.memory.mappings}
    return {
        "stats": {name: dev.stats.as_dict()
                  for name, dev in sorted(devices.items())},
        "images": {name: hashlib.sha256(
                       dev.durable_image().tobytes()).hexdigest()
                   for name, dev in sorted(devices.items())
                   if isinstance(dev, NvmDevice)},
    }


def run_program(heap_dir):
    clock = Clock()
    config = EspressoConfig(clock=clock, gc_workers=2)
    jvm = Espresso(heap_dir, config=config)
    node = jvm.define_class("Node", [field("id", FieldKind.INT),
                                     field("next", FieldKind.REF)])
    jvm.create_heap("inv", 512 * 1024)

    # DRAM: a linked list plus garbage, then a young collection.
    head = None
    for i in range(120):
        n = jvm.new(node)
        jvm.set_field(n, "id", i)
        jvm.set_field(n, "next", head)
        if i % 3 == 0:
            head = n
    jvm.vm.young_gc()
    dram_ints = jvm.new_array(FieldKind.INT, 40)
    for i in range(40):
        jvm.array_set(dram_ints, i, i * i - 7)
    jvm.vm.array_copy(dram_ints, 3, dram_ints, 0, 30)
    dram_text = jvm.read_string(jvm.new_string("brewed in DRAM, " * 3))

    # PJH: strings, a hash map under the undo-log transaction, arrays.
    greeting = jvm.pnew_string("espresso, brewed persistent")
    jvm.flush_reachable(greeting)
    jvm.set_root("greeting", greeting)
    for name, text in (("empty", ""), ("single", "j")):
        short = jvm.pnew_string(text)
        jvm.flush_reachable(short)
        jvm.set_root(name, short)
    txn = PjhTransaction(jvm)
    with clock.scope("map"):
        table = PjhHashmap(jvm, txn)
        for k in range(30):
            table.put(PjhString(jvm, txn, f"key-{k}"),
                      PjhLong(jvm, txn, k * 11))
        for k in range(0, 30, 4):
            table.put(PjhString(jvm, txn, f"key-{k}"), PjhLong(jvm, txn, -k))
    hits = sum(table.get(PjhString(jvm, txn, f"key-{k}")) is not None
               for k in range(35))
    jvm.set_root("table", table.h)
    jvm.set_root("txn_entries", txn._entries)
    jvm.set_root("txn_meta", txn._meta)
    # A full DRAM collection on two simulated GC workers: their charges
    # go through Clock.divert.
    jvm.system_gc()
    pjh_ints = jvm.pnew_array(FieldKind.INT, 64)
    for i in range(64):
        jvm.array_set(pjh_ints, i, (i << 40) - i)
    jvm.vm.array_copy(pjh_ints, 10, pjh_ints, 20, 40)
    jvm.flush_reachable(pjh_ints)
    jvm.set_root("ints", pjh_ints)
    jvm.array_set(pjh_ints, 0, 12345)  # unflushed: lost by the crash
    before_crash = _snapshot(jvm)

    # Crashed restart, then reload and read everything back.
    jvm2 = jvm.restart(crash=True)
    jvm2.define_class("Node", [field("id", FieldKind.INT),
                               field("next", FieldKind.REF)])
    jvm2.load_heap("inv")
    txn2 = PjhTransaction.reattach(jvm2, jvm2.get_root("txn_entries"),
                                   jvm2.get_root("txn_meta"))
    txn2.recover()
    table2 = PjhHashmap(jvm2, txn2, handle=jvm2.get_root("table"))
    values = [jvm2.get_field(table2.get(PjhString(jvm2, txn2, f"key-{k}")),
                             "value") for k in range(30)]
    ints = jvm2.get_root("ints")
    words = [jvm2.array_get(ints, i) for i in range(64)]
    text = jvm2.read_string(jvm2.get_root("greeting"))
    short_texts = [jvm2.read_string(jvm2.get_root(name))
                   for name in ("empty", "single")]
    return {
        "now_ns": clock.now_ns,
        "breakdown": clock.breakdown(),
        "before_crash": before_crash,
        "after_reload": _snapshot(jvm2),
        "hits": hits,
        "values": values,
        "words_sum": sum(words),
        "text": text,
        "dram_text": dram_text,
        "short_texts": short_texts,
    }


#: Captured from the per-character string loops; see the module docstring.
_NO_STATS = {"reads": 0, "writes": 0, "flushes": 0, "fences": 0,
             "flushes_deduped": 0, "epochs": 0, "flushes_elided": 0,
             "fences_elided": 0}
GOLDEN = {
    "now_ns": 523077.0,
    "breakdown": {"map": 178684.0, "other": 344393.0},
    "before_crash": {
        "stats": {
            "dram-heap": {**_NO_STATS, "reads": 1638, "writes": 1803},
            "pjh:inv": {**_NO_STATS, "reads": 8751, "writes": 9617,
                        "flushes": 1535, "fences": 855,
                        "flushes_deduped": 65, "epochs": 855},
        },
        "images": {"pjh:inv": "e81831db0f4ce4649e92bd4c11fd254e"
                              "22f195ac18ec0336d2336f59ae5ff639"},
    },
    "after_reload": {
        "stats": {
            "dram-heap": dict(_NO_STATS),
            "pjh:inv": {**_NO_STATS, "reads": 3746, "writes": 1290,
                        "flushes": 226, "fences": 102,
                        "flushes_deduped": 28, "epochs": 102},
        },
        "images": {"pjh:inv": "e61f78958b3955d6a6e601acfd5d4b90"
                              "33134b624d80650c30b79f613c1bc9cf"},
    },
    "hits": 30,
    "values": [-k if k % 4 == 0 else k * 11 for k in range(30)],
    "words_sum": 1776810790484400,
    "text": "espresso, brewed persistent",
    "dram_text": "brewed in DRAM, " * 3,
    "short_texts": ["", "j"],
}


def test_mixed_program_is_sim_identical(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path / "heaps")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(run_program(sys.argv[1])))
