"""Simulated-time invariance of the device word path.

A fixed mixed program — DRAM allocation with a young GC, ``pnew_string``,
a ``PjhHashmap`` under a ``PjhTransaction``, ``array_copy`` on both
heaps, a crashed restart and a reload — must charge exactly the same
simulated nanoseconds (total and per category), bump exactly the same
``DeviceStats`` counters on every mapped device and leave byte-identical
durable images.  The golden values were captured by running
:func:`run_program` against the unfused per-word path (``mapping_at`` →
``_check`` → ``_charge_read``/``_touch`` → ``Clock.charge`` on every
word), so host-speed work on that path cannot move a simulated number
unnoticed.

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

    # PJH: strings, a hash map under the undo-log transaction, arrays.
    greeting = jvm.pnew_string("espresso, brewed persistent")
    jvm.flush_reachable(greeting)
    jvm.set_root("greeting", greeting)
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
    return {
        "now_ns": clock.now_ns,
        "breakdown": clock.breakdown(),
        "before_crash": before_crash,
        "after_reload": _snapshot(jvm2),
        "hits": hits,
        "values": values,
        "words_sum": sum(words),
        "text": text,
    }


#: Captured from the unfused word path; see the module docstring.
_NO_STATS = {"reads": 0, "writes": 0, "flushes": 0, "fences": 0,
             "flushes_deduped": 0, "epochs": 0, "flushes_elided": 0,
             "fences_elided": 0}
GOLDEN = {
    "now_ns": 518668.0,
    "breakdown": {"map": 178894.0, "other": 339774.0},
    "before_crash": {
        "stats": {
            "dram-heap": {**_NO_STATS, "reads": 1393, "writes": 1693},
            "pjh:inv": {**_NO_STATS, "reads": 8725, "writes": 9573,
                        "flushes": 1523, "fences": 847,
                        "flushes_deduped": 65, "epochs": 847},
        },
        "images": {"pjh:inv": "e0607d43b266ec6b5850746c9ee5f609"
                              "e197597044b840b8aa8286a296e325a2"},
    },
    "after_reload": {
        "stats": {
            "dram-heap": dict(_NO_STATS),
            "pjh:inv": {**_NO_STATS, "reads": 3705, "writes": 1290,
                        "flushes": 218, "fences": 102,
                        "flushes_deduped": 28, "epochs": 102},
        },
        "images": {"pjh:inv": "bdd7c73acc8925257cf8cd68e568ca44"
                              "da99eeb2bb04ceac245899f262f9ff87"},
    },
    "hits": 30,
    "values": [-k if k % 4 == 0 else k * 11 for k in range(30)],
    "words_sum": 1776810790484400,
    "text": "espresso, brewed persistent",
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
