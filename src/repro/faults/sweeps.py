"""Registered crash sweeps: one per persistence layer.

Each :class:`SweepSpec` names a harness factory plus the sweep style and the
fast-mode parameters used by the default test selection (the exhaustive
walks carry ``@pytest.mark.sweep`` and run via ``make sweep`` /
``python -m repro.faults.sweep_all``).

Layers covered:

* ``pjh_alloc_gc``   — persistent allocation + persistent GC (failpoints)
* ``pjh_alloc_buffer`` — the per-mutator allocation-buffer claim protocol:
  tiny TLABs over freshly-reclaimed (stale-image) space, crashed at every
  flush boundary of the zero/top/table-entry/filler sequence; recovery
  must truncate or plug every partially-filled window with no resurrected
  objects (flush boundaries)
* ``h2_sql``         — the SQL engine's WAL (flush boundaries)
* ``pjhlib``         — Java-level ACID collections (flush boundaries)
* ``pcj_nvml``       — PCJ's NVML-style undo-log transactions (flush)
* ``pjo_commit``     — the PJO commit path with dedup + field tracking (flush)
* ``mixed_domains``  — PJH allocation interleaved with H2 WAL commits, both
  routed through coalescing persist domains on separate devices (flush)
* ``resume_task``    — crash-transparent execution: a resumable task's
  persistent frame stack, crashed at every protocol failpoint and resumed
  after restart; the resumed durable image must be byte-identical to an
  uncrashed run's (failpoints)
* ``fleet_failover`` — the sharded multi-heap fleet: one shard is
  power-failed at every flush boundary mid-traffic while its siblings
  keep serving, then recovered on the worker gang; every shard and the
  shard directory fsck clean, routing stays correct (no request lands on
  a down shard, no session migrates), and the durable directory image is
  byte-identical to an uncrashed run's (flush boundaries, victim device
  only)
* ``concurrent_kv``  — the concurrent mutator gang hammering the
  lock-free durable map: a 3-mutator contended KV workload is crashed at
  every flush boundary (each an arbitrary cut through the seeded
  interleaving); the recovered map must pass its protocol audit, satisfy
  durable linearizability against the gang's recorded history, and fsck
  clean (flush boundaries)
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Optional

from repro.faults.harness import CrashSweepHarness, SweepReport
from repro.nvm.device import FaultMode
from repro.obs import Observatory


@dataclass(frozen=True)
class SweepSpec:
    """A named sweep: how to build its harness and how to drive it."""

    name: str
    strategy: str               # "failpoint" | "flush"
    factory: Callable[[], CrashSweepHarness]
    fast_stride: int            # stride for the under-budget default tests
    fast_max_points: int


#: Every sweep harness runs its JVMs with a parallel GC gang, so each
#: induced crash (and each recovery) exercises the worker scheduler's
#: protocol-state guarantees, not just the serial collector's.
GC_WORKERS = 3

SWEEPS: Dict[str, SweepSpec] = {}


def _register(spec: SweepSpec) -> SweepSpec:
    SWEEPS[spec.name] = spec
    return spec


def run_sweep(name: str, fault_mode: str = FaultMode.ATOMIC, *,
              exhaustive: bool = True, seed: int = 0) -> SweepReport:
    """Run one registered sweep; ``exhaustive=False`` uses the fast stride."""
    spec = SWEEPS[name]
    harness = spec.factory()
    if spec.strategy == "failpoint":
        run = harness.sweep_global_hits
    else:
        run = harness.sweep_flush_boundaries
    if exhaustive:
        return run(fault_mode, seed=seed)
    return run(fault_mode, seed=seed, stride=spec.fast_stride,
               max_points=spec.fast_max_points)


# ----------------------------------------------------------------------
# PJH allocation + persistent GC (failpoint sweep, fsck after recovery)
# ----------------------------------------------------------------------
def _pjh_harness() -> CrashSweepHarness:
    from repro.api import Espresso, EspressoConfig
    from repro.runtime.klass import FieldKind, field
    from repro.tools.fsck import fsck_heap

    CHURN = 18       # allocations before GC (most become garbage)
    POST_GC = 6      # allocations after GC (over the reclaimed tail)

    def anchors():
        committed = [i for i in range(CHURN) if i % 3 == 0]
        committed += list(range(CHURN, CHURN + POST_GC))
        return committed

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-pjh-"))
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        node = jvm.define_class("SweepNode", [field("v", FieldKind.INT),
                                              field("next", FieldKind.REF)])
        jvm.create_heap("h", 256 * 1024, region_words=128)
        return SimpleNamespace(tmp=tmp, jvm=jvm, node=node, obs=jvm.obs)

    def commit_anchor(ctx, handle):
        ctx.jvm.flush_reachable(handle)
        ctx.jvm.set_root("keep", handle)

    def workload(ctx):
        jvm = ctx.jvm
        keep = None
        for i in range(CHURN):
            n = jvm.pnew(ctx.node)
            jvm.set_field(n, "v", i)
            if i % 3 == 0:
                if keep is not None:
                    jvm.set_field(n, "next", keep)
                keep = n
                commit_anchor(ctx, keep)
            else:
                n.close()  # garbage for the collector
        jvm.persistent_gc()
        for i in range(CHURN, CHURN + POST_GC):
            n = jvm.pnew(ctx.node)
            jvm.set_field(n, "v", i)
            jvm.set_field(n, "next", keep)
            keep = n
            commit_anchor(ctx, keep)

    def recover(ctx, crashed):
        ctx.jvm.crash()  # power loss: durable image saved, heap unmounted
        jvm2 = Espresso(ctx.tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        jvm2.load_heap("h")
        return SimpleNamespace(jvm=jvm2, heap=jvm2.heaps.heap("h"),
                               obs=jvm2.obs)

    def invariant(rctx, completed):
        jvm = rctx.jvm
        allowed = anchors()
        head = jvm.get_root("keep")
        if completed or head is not None:
            assert head is not None, "committed root lost"
            chain = []
            cursor = head
            while cursor is not None:
                chain.append(jvm.get_field(cursor, "v"))
                cursor = jvm.get_field(cursor, "next")
            # The chain is exactly the committed anchors down from its head:
            # flush_reachable + set_root published every link before the root.
            head_v = chain[0]
            assert head_v in allowed, chain
            expected = [v for v in reversed(allowed) if v <= head_v]
            assert chain == expected, (chain, expected)
            if completed:
                assert head_v == allowed[-1], chain

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "pjh_alloc_gc",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("h").device],
        registry=lambda ctx: ctx.jvm.vm.failpoints)


_register(SweepSpec("pjh_alloc_gc", "failpoint", _pjh_harness,
                    fast_stride=13, fast_max_points=10))


# ----------------------------------------------------------------------
# Per-mutator allocation buffers: the refill/retire claim protocol
# (flush-boundary sweep, fsck after recovery)
# ----------------------------------------------------------------------
def _alloc_buffer_harness() -> CrashSweepHarness:
    """Crash the TLAB claim protocol at every flush boundary.

    Tiny buffers (32 words) force a refill every couple of allocations,
    so the bomb lands inside partially-filled windows, between the
    durable zeroing / top bump / table-entry publish of a claim, and in
    the filler writes of retirement.  The workload GCs a batch of
    garbage first, so every buffer is claimed over reclaimed space that
    still holds stale object images — the exact shape where a sloppy
    tail truncation would resurrect dead objects.
    """
    from repro.api import Espresso, EspressoConfig
    from repro.runtime.klass import FieldKind, field

    BUF_WORDS = 32
    GARBAGE = 10
    ROUNDS = 10

    def _config():
        return EspressoConfig(observatory=Observatory(),
                              gc_workers=GC_WORKERS,
                              alloc_buffer_words=BUF_WORDS)

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-tlab-"))
        jvm = Espresso(tmp / "heaps", config=_config())
        node = jvm.define_class("BufNode", [field("v", FieldKind.INT),
                                            field("next", FieldKind.REF)])
        jvm.create_heap("h", 256 * 1024, region_words=128)
        # Pre-crash churn OUTSIDE the sweep window: garbage, then a
        # compacting GC, so the data tail is littered with stale images.
        keep = jvm.pnew(node)
        jvm.set_field(keep, "v", 0)
        jvm.flush_reachable(keep)
        jvm.set_root("keep", keep)
        for i in range(GARBAGE):
            dead = jvm.pnew(node)
            jvm.set_field(dead, "v", 1000 + i)
            dead.close()
        jvm.persistent_gc()
        return SimpleNamespace(tmp=tmp, jvm=jvm, node=node, obs=jvm.obs)

    def workload(ctx):
        jvm = ctx.jvm
        keep = jvm.get_root("keep")
        for i in range(1, ROUNDS + 1):
            n = jvm.pnew(ctx.node)
            jvm.set_field(n, "v", i)
            jvm.set_field(n, "next", keep)
            keep = n
            jvm.flush_reachable(keep)
            jvm.set_root("keep", keep)
        # An oversize array leaves the buffered path for a direct claim
        # mid-stream, then one more buffered node lands after it.
        jvm.pnew_array(jvm.vm.object_klass, 2 * BUF_WORDS)
        tail = jvm.pnew(ctx.node)
        jvm.set_field(tail, "v", ROUNDS + 1)
        jvm.set_field(tail, "next", keep)
        jvm.flush_reachable(tail)
        jvm.set_root("keep", tail)

    def recover(ctx, crashed):
        ctx.jvm.crash()
        jvm = Espresso(ctx.tmp / "heaps", config=_config())
        jvm.load_heap("h")
        return SimpleNamespace(jvm=jvm, heap=jvm.heaps.heap("h"),
                               obs=jvm.obs)

    def invariant(rctx, completed):
        jvm, heap = rctx.jvm, rctx.heap
        # The rooted chain is a contiguous committed prefix.
        chain = []
        cursor = jvm.get_root("keep")
        while cursor is not None:
            chain.append(jvm.get_field(cursor, "v"))
            cursor = jvm.get_field(cursor, "next")
        assert chain == list(range(chain[0], -1, -1)), chain
        if completed:
            assert chain[0] == ROUNDS + 1, chain
        # No resurrected objects: every surviving BufNode is one the
        # post-GC workload wrote — never a 1000+ garbage stamp exposed
        # out of a stale image under a settled buffer tail.  An in-flight
        # allocation may survive with durably-zero fields (pnew only
        # guarantees the header, §3.5), so v=0 can repeat; a *written*
        # stamp cannot.
        values = []
        for address in heap.walk():
            if jvm.vm.access.klass_of(address).name == "BufNode":
                values.append(jvm.get_field(jvm.vm.handle(address), "v"))
        assert all(0 <= v <= ROUNDS + 1 for v in values), sorted(values)
        positive = [v for v in values if v > 0]
        assert len(positive) == len(set(positive)), sorted(values)
        assert set(chain) <= set(values)

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "pjh_alloc_buffer",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("h").device])


_register(SweepSpec("pjh_alloc_buffer", "flush", _alloc_buffer_harness,
                    fast_stride=11, fast_max_points=10))


# ----------------------------------------------------------------------
# H2 SQL engine (flush-boundary sweep over the WAL protocol)
# ----------------------------------------------------------------------
def _h2_harness() -> CrashSweepHarness:
    from repro.h2.engine import Database

    def expected_rows():
        rows = {i: f"v{i}" for i in range(6)}
        rows[2] = "updated"
        del rows[4]
        rows[100] = "uncommitted"
        rows[0] = "torn"
        return rows

    def setup():
        obs = Observatory()
        return SimpleNamespace(db=Database(size_words=1 << 18, obs=obs),
                               obs=obs)

    def workload(ctx):
        db = ctx.db
        db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
        for i in range(6):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("UPDATE t SET v = 'updated' WHERE k = 2")
        db.execute("DELETE FROM t WHERE k = 4")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (100, 'uncommitted')")
        db.execute("UPDATE t SET v = 'torn' WHERE k = 0")
        db.execute("COMMIT")

    def recover(ctx, crashed):
        obs = Observatory()
        return SimpleNamespace(db=ctx.db.crash(obs=obs), obs=obs)

    def invariant(rctx, completed):
        db = rctx.db
        if completed:
            assert dict(db.execute("SELECT k, v FROM t").rows) \
                == expected_rows()
            return
        if not db.catalog.exists("t"):
            return  # crashed before CREATE committed: empty DB is valid
        rows = dict(db.execute("SELECT k, v FROM t").rows)
        for k, v in rows.items():
            if k == 100:
                assert v == "uncommitted"
                assert rows.get(0) == "torn"
            elif k == 0:
                assert v in ("v0", "torn")
            elif k == 2:
                assert v in ("v2", "updated")
            else:
                assert v == f"v{k}"
        # The final transaction is atomic: both or neither of its effects.
        assert (100 in rows) == (rows.get(0) == "torn")
        # And the engine still works after recovery.
        db.execute("INSERT INTO t VALUES (999, 'post')")
        assert dict(db.execute("SELECT k, v FROM t").rows)[999] == "post"

    return CrashSweepHarness(
        "h2_sql",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant,
        devices=lambda ctx: [ctx.db.device])


_register(SweepSpec("h2_sql", "flush", _h2_harness,
                    fast_stride=17, fast_max_points=10))


# ----------------------------------------------------------------------
# pjhlib ACID collections (flush-boundary sweep, fsck after recovery)
# ----------------------------------------------------------------------
def _pjhlib_harness() -> CrashSweepHarness:
    from repro.api import Espresso, EspressoConfig
    from repro.pjhlib import PjhHashmap, PjhLong, PjhTransaction

    def expected_final():
        model = {i: i * 10 for i in range(8)}
        for i in range(0, 8, 2):
            model[i] = i * 100
        del model[3]
        del model[5]
        return model

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-pjhlib-"))
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        jvm.create_heap("kv", 2 * 1024 * 1024)
        txn = PjhTransaction(jvm)
        table = PjhHashmap(jvm, txn)
        jvm.set_root("table", table.h)
        jvm.set_root("txn_entries", txn._entries)
        jvm.set_root("txn_meta", txn._meta)
        return SimpleNamespace(tmp=tmp, jvm=jvm, txn=txn, table=table,
                               obs=jvm.obs)

    def workload(ctx):
        jvm, txn, table = ctx.jvm, ctx.txn, ctx.table
        for i in range(8):
            table.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i * 10))
        for i in range(0, 8, 2):
            table.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i * 100))
        table.remove_raw(3)
        table.remove_raw(5)

    def recover(ctx, crashed):
        ctx.jvm.crash()
        jvm = Espresso(ctx.tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        jvm.load_heap("kv")
        txn = PjhTransaction.reattach(jvm, jvm.get_root("txn_entries"),
                                      jvm.get_root("txn_meta"))
        txn.recover()  # roll back any torn multi-slot operation
        table = PjhHashmap(jvm, txn, handle=jvm.get_root("table"))
        return SimpleNamespace(jvm=jvm, table=table,
                               heap=jvm.heaps.heap("kv"), obs=jvm.obs)

    def invariant(rctx, completed):
        jvm, table = rctx.jvm, rctx.table
        seen = {}
        for key_h, value_h in table.items():
            key = jvm.get_field(key_h, "value")
            value = jvm.get_field(value_h, "value")
            seen[key] = value
            allowed = {key * 10}
            if key % 2 == 0:
                allowed.add(key * 100)
            assert value in allowed, (key, value)
        assert table.size() == len(seen)
        if completed:
            assert seen == expected_final()

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "pjhlib",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("kv").device])


_register(SweepSpec("pjhlib", "flush", _pjhlib_harness,
                    fast_stride=29, fast_max_points=10))


# ----------------------------------------------------------------------
# PCJ NVML undo-log transactions (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pcj_harness() -> CrashSweepHarness:
    from repro.pcj import MemoryPool, PersistentLong

    ROUNDS = 6

    def setup():
        obs = Observatory()
        pool = MemoryPool(256 * 1024, tx_log_words=8192, obs=obs)
        a = PersistentLong(pool, 0)
        b = PersistentLong(pool, 0)
        pool.set_root("a", a.offset)
        pool.set_root("b", b.offset)
        return SimpleNamespace(pool=pool, a=a, b=b, obs=obs)

    def workload(ctx):
        pool = ctx.pool
        # Two counters updated inside one transaction each round: after any
        # crash + recovery they must agree (the undo log's whole promise).
        for i in range(1, ROUNDS + 1):
            pool.tx_begin()
            pool._tx_write(ctx.a.offset, i)
            pool._tx_write(ctx.b.offset, i)
            pool.tx_commit()

    def recover(ctx, crashed):
        image = ctx.pool.crash_image()
        obs = Observatory()
        # MemoryPool.open runs recover(), replaying the undo log
        pool = MemoryPool.open(image, obs=obs)
        return SimpleNamespace(pool=pool, obs=obs)

    def invariant(rctx, completed):
        pool = rctx.pool
        assert not pool.in_transaction
        from repro.pcj import PersistentLong
        a = PersistentLong.from_offset(pool, pool.get_root("a")).long_value()
        b = PersistentLong.from_offset(pool, pool.get_root("b")).long_value()
        assert a == b, (a, b)
        assert 0 <= a <= ROUNDS
        if completed:
            assert a == ROUNDS

    return CrashSweepHarness(
        "pcj_nvml",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant,
        devices=lambda ctx: [ctx.pool.device])


_register(SweepSpec("pcj_nvml", "flush", _pcj_harness,
                    fast_stride=7, fast_max_points=10))


# ----------------------------------------------------------------------
# PJO commit path: dedup + field tracking on (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pjo_harness() -> CrashSweepHarness:
    from repro.api import Espresso, EspressoConfig
    from repro.jpab.model import BasicPerson
    from repro.pjo import PjoEntityManager

    PEOPLE = 3
    ROUNDS = 3

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-pjo-"))
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        jvm.create_heap("jpab", 4 * 1024 * 1024)
        em = PjoEntityManager(jvm)  # dedup + field tracking are the defaults
        em.create_schema([BasicPerson])
        return SimpleNamespace(tmp=tmp, jvm=jvm, em=em, obs=jvm.obs)

    def workload(ctx):
        em = ctx.em
        tx = em.get_transaction()
        tx.begin()
        for i in range(1, PEOPLE + 1):
            em.persist(BasicPerson(i, "r0", "Sweep", "r0"))
        tx.commit()
        # Each round rewrites two fields of every person in ONE transaction;
        # first_name and phone must therefore never disagree after recovery.
        for rnd in range(1, ROUNDS + 1):
            em.clear()
            tx.begin()
            for i in range(1, PEOPLE + 1):
                person = em.find(BasicPerson, i)
                person.first_name = f"r{rnd}"
                person.phone = f"r{rnd}"
            tx.commit()

    def recover(ctx, crashed):
        ctx.jvm.crash()
        jvm = Espresso(ctx.tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS))
        jvm.load_heap("jpab")
        em = PjoEntityManager(jvm)  # backend reattaches + recovers the log
        return SimpleNamespace(jvm=jvm, em=em, heap=jvm.heaps.heap("jpab"),
                               obs=jvm.obs)

    def invariant(rctx, completed):
        em = rctx.em
        from repro.jpab.model import BasicPerson
        people = [em.find(BasicPerson, i) for i in range(1, PEOPLE + 1)]
        present = [p for p in people if p is not None]
        # The initial persist of all three is one transaction: all or none.
        assert len(present) in (0, PEOPLE), [p and p.id for p in people]
        stamps = set()
        for person in present:
            # Field-pair atomicity within one entity...
            assert person.first_name == person.phone, (
                person.id, person.first_name, person.phone)
            stamps.add(person.first_name)
        # ...and round atomicity across entities (one tx updates them all).
        assert len(stamps) <= 1, stamps
        if completed:
            assert stamps == {f"r{ROUNDS}"}

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "pjo_commit",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("jpab").device])


_register(SweepSpec("pjo_commit", "flush", _pjo_harness,
                    fast_stride=37, fast_max_points=8))


# ----------------------------------------------------------------------
# Mixed persist domains: PJH allocation + H2 WAL on separate devices
# ----------------------------------------------------------------------
def _mixed_harness() -> CrashSweepHarness:
    """Epoch coalescing must hold when two domains interleave.

    Each round anchors a new PJH node (flush_reachable + set_root, its own
    domain epochs) and then commits an H2 insert recording the round (WAL
    payload/counter epochs on a different device).  The flush bomb counts
    clflush calls globally across both devices, so every interleaving of
    the two protocols gets crashed — a flush that leaked across an epoch
    boundary in either domain breaks a per-layer invariant, and the
    cross-layer ordering (row *i* durable implies anchor *i* durable)
    catches coalescing that reorders work between the subsystems.
    """
    from repro.api import Espresso, EspressoConfig
    from repro.h2.engine import Database
    from repro.runtime.klass import FieldKind, field

    ROUNDS = 5

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-mixed-"))
        obs = Observatory()
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=obs, gc_workers=GC_WORKERS))
        node = jvm.define_class("MixNode", [field("v", FieldKind.INT),
                                            field("next", FieldKind.REF)])
        jvm.create_heap("h", 256 * 1024, region_words=128)
        # One observatory spans both domains: the dump shows PJH anchor
        # spans interleaved with WAL commit spans in one timeline.
        db = Database(size_words=1 << 18, clock=jvm.clock, obs=obs)
        return SimpleNamespace(tmp=tmp, jvm=jvm, node=node, db=db, obs=obs)

    def workload(ctx):
        jvm, db = ctx.jvm, ctx.db
        db.execute("CREATE TABLE log (k BIGINT PRIMARY KEY, v VARCHAR)")
        keep = None
        for i in range(ROUNDS):
            n = jvm.pnew(ctx.node)
            jvm.set_field(n, "v", i)
            if keep is not None:
                jvm.set_field(n, "next", keep)
            keep = n
            jvm.flush_reachable(keep)
            jvm.set_root("keep", keep)
            db.execute("INSERT INTO log VALUES (?, ?)", (i, f"v{i}"))
        # A multi-statement transaction at the end: atomic or absent.
        db.execute("BEGIN")
        db.execute("UPDATE log SET v = 'x0' WHERE k = 0")
        db.execute("INSERT INTO log VALUES (100, 'tail')")
        db.execute("COMMIT")

    def recover(ctx, crashed):
        ctx.jvm.crash()
        obs = Observatory()
        # Reuse the shared clock so the recovered JVM and DB keep one
        # coherent timeline (db.crash() rebinds obs to the same clock).
        jvm2 = Espresso(ctx.tmp / "heaps", config=EspressoConfig(
            clock=ctx.db.clock, observatory=obs, gc_workers=GC_WORKERS))
        jvm2.load_heap("h")
        return SimpleNamespace(jvm=jvm2, db=ctx.db.crash(obs=obs),
                               heap=jvm2.heaps.heap("h"), obs=obs)

    def invariant(rctx, completed):
        jvm, db = rctx.jvm, rctx.db
        # PJH side: the rooted chain is a contiguous anchored suffix.
        head = jvm.get_root("keep")
        chain = []
        cursor = head
        while cursor is not None:
            chain.append(jvm.get_field(cursor, "v"))
            cursor = jvm.get_field(cursor, "next")
        if chain:
            assert chain == list(range(chain[0], -1, -1)), chain
        # H2 side: committed inserts form a prefix; the tx is atomic.
        rows = {}
        if db.catalog.exists("log"):
            rows = dict(db.execute("SELECT k, v FROM log").rows)
        keys = sorted(k for k in rows if k < 100)
        assert keys == list(range(len(keys))), keys
        assert (100 in rows) == (rows.get(0) == "x0")
        for k in keys[1:]:
            assert rows[k] == f"v{k}"
        if keys:
            assert rows[0] in ("v0", "x0")
            # Cross-domain ordering: insert i commits only after anchor i
            # was published, so a durable row implies a durable anchor.
            assert chain and chain[0] >= keys[-1], (chain, keys)
        if completed:
            assert chain and chain[0] == ROUNDS - 1, chain
            assert len(keys) == ROUNDS and 100 in rows, rows

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "mixed_domains",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("h").device,
                             ctx.db.device])


_register(SweepSpec("mixed_domains", "flush", _mixed_harness,
                    fast_stride=23, fast_max_points=10))


# ----------------------------------------------------------------------
# Crash-transparent execution (failpoint sweep over the resume protocol)
# ----------------------------------------------------------------------
def _resume_harness() -> CrashSweepHarness:
    """Crash a resumable task at every ``resume.*`` protocol point.

    The workload is a two-task program (``build`` pushes a persistent
    linked list one node per step; each iteration also ``call``s a child
    ``weigh`` frame) so every sweep walks pushes, checkpoints, child
    enters, pops and the finalize tail.  The invariant is the tentpole
    promise itself: after crash + restart + re-run, the heap's durable
    image is SHA-256-identical to the image an *uncrashed* run produces,
    and the task yields the same result.  The golden hash is computed
    once per harness from a crash-free run with identical session setup.
    """
    import hashlib

    from repro.api import Espresso, EspressoConfig
    from repro.runtime.klass import FieldKind, field

    N = 5
    EXPECTED = sum(i * i for i in range(N))

    def _define(jvm):
        jvm.define_class("ResumeNode", [field("v", FieldKind.INT),
                                        field("next", FieldKind.REF)])

    def _mk(s, i, prev):
        node = s.pnew("ResumeNode")
        s.set_field(node, "v", i)
        if prev is not None:
            s.set_field(node, "next", prev)
        s.flush_reachable(node)
        return node

    def _register_tasks(jvm):
        @jvm.register_task("build")
        def build(task, s, n):
            prev = None
            total = 0
            for i in range(n):
                prev = task.step(_mk, s, i, prev)
                total += task.call("weigh", i)
            s.set_root("list", prev)
            return total

        @jvm.register_task("weigh")
        def weigh(task, s, i):
            return task.step(lambda: i * i)

    def _session(tmp):
        cfg = EspressoConfig(resumable=True, observatory=Observatory(),
                             gc_workers=GC_WORKERS)
        jvm = Espresso(tmp / "heaps", config=cfg)
        _define(jvm)
        _register_tasks(jvm)
        jvm.create_heap("h", 512 * 1024)
        return jvm

    def _image_hash(jvm):
        device = jvm.heaps.heap("h").device
        return hashlib.sha256(device.durable_image().tobytes()).hexdigest()

    golden = {}

    def _golden_hash():
        if "hash" not in golden:
            tmp = Path(tempfile.mkdtemp(prefix="sweep-resume-golden-"))
            try:
                jvm = jvm0 = _session(tmp)
                assert jvm.resumable_task("build").run(N) == EXPECTED
                golden["hash"] = _image_hash(jvm)
            finally:
                jvm0.shutdown()
                shutil.rmtree(tmp, ignore_errors=True)
        return golden["hash"]

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-resume-"))
        jvm = _session(tmp)
        return SimpleNamespace(tmp=tmp, jvm=jvm, obs=jvm.obs)

    def workload(ctx):
        ctx.jvm.resumable_task("build").run(N)

    def recover(ctx, crashed):
        # restart(crash=True): durable image saved, fresh VM, same config
        # (the task registry rides along by reference) — a restarted JVM
        # must redefine its classes, exactly like a real one reloading
        # them.
        jvm2 = ctx.jvm.restart(crash=True)
        _define(jvm2)
        jvm2.load_heap("h")
        result = jvm2.resumable_task("build").run(N)
        return SimpleNamespace(jvm=jvm2, result=result,
                               heap=jvm2.heaps.heap("h"), obs=jvm2.obs)

    def invariant(rctx, completed):
        assert rctx.result == EXPECTED, rctx.result
        resumed = _image_hash(rctx.jvm)
        assert resumed == _golden_hash(), (
            "resumed durable image diverged from the uncrashed run's")

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        report = fsck_heap(rctx.heap)
        assert report.frames_clean, report.frame_errors
        return report

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "resume_task",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("h").device],
        registry=lambda ctx: ctx.jvm.vm.failpoints)


_register(SweepSpec("resume_task", "failpoint", _resume_harness,
                    fast_stride=11, fast_max_points=10))


# ----------------------------------------------------------------------
# Fleet fail-over: one shard crashed mid-traffic, siblings keep serving
# ----------------------------------------------------------------------
def _fleet_harness() -> CrashSweepHarness:
    """Flush-boundary sweep of a 3-shard fleet, bombing ONE shard.

    Only the victim shard's device is instrumented, so every injection
    point models a single-shard power failure under live multi-tenant
    traffic.  Recovery is the router's own fail-over path: assert the
    survivors serve (reads *and* writes) while the victim fails fast
    with :class:`~repro.errors.ShardDownError`, then bring the victim
    back on the recovery gang.  Afterwards: committed KV state is
    consistent on every shard, no session silently migrated, every
    shard heap and the directory heap fsck clean, and the durable shard
    directory is byte-identical to an uncrashed fleet's — fail-over
    writes zero directory flushes by design.
    """
    import hashlib
    import zlib

    from repro.errors import ShardDownError
    from repro.fleet.directory import DIRECTORY_HEAP, shard_heap_name
    from repro.fleet.router import FleetConfig, FleetRouter

    SHARDS = 3
    VICTIM = 0
    ROUNDS = 3

    def _config():
        return FleetConfig(shards=SHARDS, shard_size_bytes=256 * 1024,
                           max_in_flight=32, gc_workers=GC_WORKERS)

    def _sessions():
        """Two session ids per shard, in deterministic order."""
        per_shard = {i: [] for i in range(SHARDS)}
        i = 0
        while any(len(v) < 2 for v in per_shard.values()):
            sid = f"tenant-{i}"
            home = zlib.crc32(sid.encode()) % SHARDS
            if len(per_shard[home]) < 2:
                per_shard[home].append(sid)
            i += 1
        return per_shard

    def _directory_image_hash(fleet):
        heap = fleet.directory_jvm.heaps.heap(DIRECTORY_HEAP)
        return hashlib.sha256(heap.device.durable_image().tobytes()) \
            .hexdigest()

    golden = {}

    def _golden_hash():
        """Directory image of an uncrashed fleet with identical setup."""
        if "hash" not in golden:
            tmp = Path(tempfile.mkdtemp(prefix="sweep-fleet-golden-"))
            try:
                fleet = FleetRouter.create(tmp / "fleet", config=_config())
                golden["hash"] = _directory_image_hash(fleet)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return golden["hash"]

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-fleet-"))
        fleet = FleetRouter.create(tmp / "fleet", config=_config())
        return SimpleNamespace(tmp=tmp, fleet=fleet, sessions=_sessions(),
                               committed={}, inflight={},
                               obs=fleet.shards[VICTIM].jvm.obs)

    def workload(ctx):
        fleet = ctx.fleet
        for rnd in range(ROUNDS):
            ctx.inflight = {}
            for sids in ctx.sessions.values():
                for sid in sids:
                    value = f"{sid}.r{rnd}"
                    fleet.submit(sid, "put", "state", value)
                    ctx.inflight[sid] = value
            fleet.drain()   # the bomb fires here, mid-drain on the victim
            ctx.committed.update(ctx.inflight)
            ctx.inflight = {}

    def recover(ctx, crashed):
        fleet = ctx.fleet
        fleet.crash_shard(VICTIM)
        # Survivors keep serving while the victim is down: reads of
        # committed state and fresh writes both succeed...
        for shard_index in range(SHARDS):
            if shard_index == VICTIM:
                continue
            sid = ctx.sessions[shard_index][0]
            expected = ctx.committed.get(sid) or ctx.inflight.get(sid)
            got = fleet.get(sid, "state")
            if ctx.committed.get(sid) is not None and \
                    sid not in ctx.inflight:
                assert got == expected, (sid, got, expected)
            fleet.put(sid, "probe", "alive")
            assert fleet.get(sid, "probe") == "alive"
        # ...and the victim's traffic fails fast instead of landing on a
        # sibling that does not hold its data.
        victim_sid = ctx.sessions[VICTIM][0]
        try:
            fleet.submit(victim_sid, "get", "state")
            raise AssertionError("down shard accepted a request")
        except ShardDownError as exc:
            assert exc.shard == VICTIM
        placements_before = dict(fleet.placements)
        fleet.recover_shard(VICTIM)
        return SimpleNamespace(fleet=fleet,
                               sessions=ctx.sessions,
                               committed=dict(ctx.committed),
                               inflight=dict(ctx.inflight),
                               placements_before=placements_before,
                               obs=fleet.shards[VICTIM].jvm.obs)

    def invariant(rctx, completed):
        fleet = rctx.fleet
        # Committed KV state is intact on every shard; the crashed
        # round's writes are atomic per key: old value, new value, or
        # (first round) absent — never garbage.
        for sids in rctx.sessions.values():
            for sid in sids:
                got = fleet.get(sid, "state")
                allowed = set()
                if sid in rctx.inflight:
                    allowed.add(rctx.inflight[sid])
                    allowed.add(rctx.committed.get(sid))
                else:
                    allowed.add(rctx.committed.get(sid))
                assert got in allowed, (sid, got, allowed)
        if completed:
            for sid, value in rctx.committed.items():
                assert fleet.get(sid, "state") == value
        # Routing correctness: no session migrated across the fail-over.
        for sid, home in rctx.placements_before.items():
            assert fleet.route(sid) == home, (sid, home)
        # Zero directory writes during traffic, crash and fail-over: the
        # durable directory image matches an uncrashed fleet's, byte for
        # byte.
        assert _directory_image_hash(fleet) == _golden_hash(), (
            "fleet directory image diverged from the uncrashed run's")

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        fleet = rctx.fleet
        report = fsck_heap(
            fleet.directory_jvm.heaps.heap(DIRECTORY_HEAP))
        assert report.clean, ("directory", report.errors)
        for shard in fleet.shards:
            report = fsck_heap(
                shard.jvm.heaps.heap(shard_heap_name(shard.index)))
            assert report.clean, (shard.index, report.errors)
        return report  # the last shard's; all were asserted above

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    def victim_device(ctx):
        heap = ctx.fleet.shards[VICTIM].jvm.heaps.heap(
            shard_heap_name(VICTIM))
        return [heap.device]

    return CrashSweepHarness(
        "fleet_failover",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=victim_device)


_register(SweepSpec("fleet_failover", "flush", _fleet_harness,
                    fast_stride=19, fast_max_points=8))


# ----------------------------------------------------------------------
# Concurrent mutator gang on the lock-free durable map (flush sweep):
# crashing after the N-th clflush lands at an arbitrary point of the
# seeded interleaving, so every boundary is a different cut through the
# contended multi-mutator schedule.
# ----------------------------------------------------------------------
def _concurrent_kv_harness() -> CrashSweepHarness:
    from repro.api import Espresso, EspressoConfig
    from repro.workloads.concurrent_kv import ConcurrentKvWorkload

    MUTATORS = 3

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-ckv-"))
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS,
            mutators=MUTATORS))
        jvm.create_heap("kv", 2 * 1024 * 1024)
        workload = ConcurrentKvWorkload(jvm, mutators=MUTATORS,
                                        ops_per_mutator=5, key_space=3,
                                        seed=7, buckets=4)
        return SimpleNamespace(tmp=tmp, jvm=jvm, workload=workload,
                               obs=jvm.obs)

    def workload(ctx):
        ctx.workload.run()

    def recover(ctx, crashed):
        ctx.jvm.crash()
        jvm = Espresso(ctx.tmp / "heaps", config=EspressoConfig(
            observatory=Observatory(), gc_workers=GC_WORKERS,
            mutators=MUTATORS))
        jvm.load_heap("kv")
        return SimpleNamespace(jvm=jvm, workload=ctx.workload,
                               heap=jvm.heaps.heap("kv"), obs=jvm.obs)

    def invariant(rctx, completed):
        problems = rctx.workload.check_after_recovery(rctx.jvm, completed)
        assert not problems, problems

    def fsck(rctx):
        from repro.tools.fsck import fsck_heap
        return fsck_heap(rctx.heap)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    return CrashSweepHarness(
        "concurrent_kv",
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck, teardown=teardown,
        devices=lambda ctx: [ctx.jvm.heaps.heap("kv").device])


_register(SweepSpec("concurrent_kv", "flush", _concurrent_kv_harness,
                    fast_stride=23, fast_max_points=8))
