"""Soak test: mixed randomized workload across both GCs and two heaps.

A seeded random program interleaves DRAM and PJH allocation, field stores
across all four space-pair directions, explicit collections of both kinds,
crashes + reloads — and checks a model of the surviving rooted data plus
fsck structural validity at every reload.
"""

import random

from repro.api import Espresso, EspressoConfig
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck_heap

SEED = 20260706
ROUNDS = 4
STEPS_PER_ROUND = 180


def test_soak_mixed_workload(tmp_path):
    rng = random.Random(SEED)
    heap_dir = tmp_path / "soak"
    config = EspressoConfig(heap_config=HeapConfig(
        eden_words=2048, survivor_words=1024, old_words=32768,
        region_words=512))
    jvm = Espresso(heap_dir, config=config)
    node = jvm.define_class("SoakNode", [field("v", FieldKind.INT),
                                         field("ref", FieldKind.REF)])
    jvm.create_heap("soak", 4 * 1024 * 1024, region_words=256)

    # Model: root name -> expected int value (only flushed data counts).
    model = {}
    root_counter = 0

    for round_no in range(ROUNDS):
        live_dram = []
        for step in range(STEPS_PER_ROUND):
            action = rng.random()
            if action < 0.35:
                # Persistent rooted value, flushed: must survive everything.
                obj = jvm.pnew(node)
                value = rng.randint(0, 10**9)
                jvm.set_field(obj, "v", value)
                jvm.flush_object(obj)
                name = f"r{root_counter}"
                root_counter += 1
                jvm.set_root(name, obj)
                model[name] = value
            elif action < 0.55:
                jvm.pnew(node).close()  # persistent garbage
            elif action < 0.8:
                d = jvm.new(node)
                jvm.set_field(d, "v", rng.randint(0, 100))
                if live_dram and rng.random() < 0.5:
                    jvm.set_field(d, "ref", rng.choice(live_dram))
                if rng.random() < 0.3:
                    live_dram.append(d)
            elif action < 0.87:
                # Cross-space pointers in both directions.
                p = jvm.pnew(node)
                d = jvm.new(node)
                jvm.set_field(p, "ref", d)   # NVM -> DRAM
                jvm.set_field(d, "ref", p)   # DRAM -> NVM
                live_dram.append(d)
            elif action < 0.93:
                jvm.vm.young_gc()
            elif action < 0.97:
                jvm.persistent_gc()
            else:
                jvm.system_gc()

        # End of round: either a crash or a graceful shutdown, then reload.
        live_dram.clear()
        if rng.random() < 0.5:
            jvm.crash()
        else:
            jvm.shutdown()
        jvm = Espresso(heap_dir, config=config)
        node = jvm.define_class("SoakNode", [field("v", FieldKind.INT),
                                             field("ref", FieldKind.REF)])
        heap = jvm.load_heap("soak")
        structure = fsck_heap(heap)
        assert structure.clean, structure.errors
        for name, value in model.items():
            handle = jvm.get_root(name)
            assert handle is not None, f"root {name} lost in round {round_no}"
            assert jvm.get_field(handle, "v") == value

    assert len(model) > 100  # the soak actually exercised things
