"""Persistent GC over a fleet shard store: every key survives.

A compaction region may take the batched copy protocol only when no
copy can land on a source of the same region: the protocol stamps every
source header after copying the whole region, and recovery re-copies
from the sources.  The check used to compare each object only with its
own source, so in a store of 49 or more keys a later copy overwrote an
earlier source and the epoch-2 stamp (or, after a crash, the re-copy)
corrupted live objects.  A 60-key store on a 512 KiB heap reaches such a
region.
"""

from __future__ import annotations

import random
import shutil
import string
import tempfile
from pathlib import Path
from types import SimpleNamespace

from repro.api import Espresso
from repro.faults.harness import CrashSweepHarness
from repro.fleet.store import ShardStore
from repro.tools.fsck import fsck_heap

KEYS = 60
HEAP = "shard"
HEAP_BYTES = 512 * 1024
#: Every STRIDE-th failpoint hit of the collection is crashed.
STRIDE = 7


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _model():
    """The 60 keys with their first and their overwritten values."""
    rng = random.Random(11)
    keys = sorted({_text(rng, 10) for _ in range(KEYS)})
    first = {k: _text(rng, rng.randint(24, 40)) for k in keys}
    final = dict(first)
    for key in keys[::3]:
        final[key] = _text(rng, rng.randint(24, 40))
    return keys, first, final


def _fill(heap_dir: Path) -> Espresso:
    """A store holding the final model, with the overwritten values (and
    their boxes) left behind as garbage for the collector."""
    keys, first, final = _model()
    jvm = Espresso(heap_dir)
    jvm.create_heap(HEAP, HEAP_BYTES)
    store = ShardStore.create(jvm)
    for key in keys:
        store.put(key, first[key])
    for key in keys[::3]:
        store.put(key, final[key])
    return jvm


def _assert_intact(jvm: Espresso) -> None:
    _keys, _first, final = _model()
    store = ShardStore.reattach(jvm)
    assert dict(store.items()) == final
    report = fsck_heap(jvm.heaps.heap(HEAP))
    assert report.clean, report


def test_gc_keeps_every_key(tmp_path):
    jvm = _fill(tmp_path / "heaps")
    jvm.persistent_gc()
    _assert_intact(jvm)
    # ...and the collected image reloads to the same store.
    jvm2 = jvm.restart(crash=True)
    jvm2.load_heap(HEAP)
    _assert_intact(jvm2)


def test_gc_crash_sweep_recovers_every_key(tmp_path):
    """Crash at every STRIDE-th failpoint hit of the collection; after
    reload (which finishes the collection) every key reads back."""
    template = tmp_path / "template"
    _fill(template).crash()  # saves the durable image

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="store-gc-"))
        shutil.copytree(template, tmp / "heaps")
        jvm = Espresso(tmp / "heaps")
        jvm.load_heap(HEAP)
        return SimpleNamespace(tmp=tmp, jvm=jvm)

    def recover(ctx, crashed):
        jvm = ctx.jvm.restart(crash=True)
        jvm.load_heap(HEAP)
        return SimpleNamespace(jvm=jvm, heap=jvm.heaps.heap(HEAP))

    harness = CrashSweepHarness(
        "store_gc",
        setup=setup,
        workload=lambda ctx: ctx.jvm.persistent_gc(),
        recover=recover,
        invariant=lambda rctx, completed: _assert_intact(rctx.jvm),
        fsck=lambda rctx: fsck_heap(rctx.heap),
        teardown=lambda ctx, rctx: shutil.rmtree(ctx.tmp, ignore_errors=True),
        devices=lambda ctx: [ctx.jvm.heaps.heap(HEAP).device],
        registry=lambda ctx: ctx.jvm.vm.failpoints)
    report = harness.sweep_global_hits(stride=STRIDE)
    assert report.exhausted
    assert report.crash_points >= 5
