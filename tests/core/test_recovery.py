"""Recovery tests (paper §4.3): crash at every point inside a collection.

The exhaustive sweep injects a crash at the N-th persistence failpoint of a
persistent GC, for every N until the collection completes untouched.  After
each crash the heap image (durable lines only!) is reloaded in a fresh JVM;
loadHeap triggers recovery, and the full object graph must come back
bit-identical to the pre-GC flushed state.
"""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import SimulatedCrash

from tests.core.conftest import define_node


HEAP_BYTES = 256 * 1024
# Small regions force many regions, including scratch (overlap) cases.
REGION_WORDS = 128


def build_workload(heap_dir, seed=0):
    """A heap with a mix of live lists and garbage, fully flushed."""
    jvm = Espresso(heap_dir)
    node = define_node(jvm)
    jvm.create_heap("h", HEAP_BYTES, region_words=REGION_WORDS)
    lists = {}
    for li in range(6):
        values = [seed + li * 100 + i for i in range(12)]
        head = None
        for v in reversed(values):
            n = jvm.pnew(node)
            jvm.set_field(n, "value", v)
            if head is not None:
                jvm.set_field(n, "next", head)
            head = n
        jvm.flush_reachable(head)
        jvm.set_root(f"list{li}", head)
        lists[f"list{li}"] = values
        # Interleave garbage so compaction actually moves things.
        for _ in range(20):
            jvm.pnew(node).close()
    return jvm, lists


def verify(heap_dir, lists, gc_workers=1):
    from repro.tools.fsck import fsck_heap
    jvm = Espresso(heap_dir, config=EspressoConfig(gc_workers=gc_workers))
    heap, report = jvm.heaps.load_heap_with_report("h")
    structure = fsck_heap(heap)
    assert structure.clean, structure.errors
    for name, values in lists.items():
        head = jvm.get_root(name)
        got = []
        n = head
        while n is not None:
            got.append(jvm.get_field(n, "value"))
            n = jvm.get_field(n, "next")
        assert got == values, f"{name} corrupted after recovery: {got}"
    return report


def test_recovery_sweep_every_failpoint(heap_dir):
    """Crash at the N-th failpoint for every N; recovery must always work."""
    n = 1
    completed_without_crash = False
    rounds = 0
    while not completed_without_crash:
        rounds += 1
        assert rounds < 500, "failpoint sweep did not terminate"
        subdir = heap_dir / f"round{n}"
        jvm, lists = build_workload(subdir)
        jvm.vm.failpoints.crash_on_global_hit(n)
        try:
            jvm.persistent_gc()
            completed_without_crash = True
        except SimulatedCrash:
            pass
        jvm.vm.failpoints.clear()
        jvm.crash()  # lose unflushed lines, save durable image
        report = verify(subdir, lists)
        if not completed_without_crash:
            # Depending on where the crash hit, recovery either replays the
            # collection or the flag was never raised (mark-phase crash).
            assert report.recovery is not None
        n += 1
    assert n > 10  # the protocol has many distinct persistence points


def test_recovery_is_idempotent_under_double_crash(heap_dir):
    """Crash during GC, then crash during *recovery*, then recover again."""
    jvm, lists = build_workload(heap_dir)
    # Crash mid-compaction (after a few region completions).
    jvm.vm.failpoints.crash_on_hit("gc.compact.region_done", 2)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()

    # First recovery attempt also crashes.
    jvm2 = Espresso(heap_dir)
    jvm2.vm.failpoints.crash_on_hit("gc.compact.dest_persisted", 3)
    with pytest.raises(SimulatedCrash):
        jvm2.load_heap("h")
    jvm2.vm.failpoints.clear()
    jvm2.crash()

    # Second recovery must finish the job.
    report = verify(heap_dir, lists)
    assert report.recovery.performed


def test_recovery_noop_on_clean_heap(heap_dir):
    jvm, lists = build_workload(heap_dir)
    jvm.shutdown()
    report = verify(heap_dir, lists)
    assert not report.recovery.performed


def test_recovery_after_crash_before_any_region(heap_dir):
    """Crash right after the flag is raised: recovery replays everything."""
    jvm, lists = build_workload(heap_dir)
    jvm.vm.failpoints.crash_on_hit("pgc.flag_raised", 1)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()
    report = verify(heap_dir, lists)
    assert report.recovery.performed
    assert report.recovery.regions_replayed > 0


def test_recovery_after_crash_at_final_flag_clear(heap_dir):
    """Crash after top persisted but before the flag cleared."""
    jvm, lists = build_workload(heap_dir)
    jvm.vm.failpoints.crash_on_hit("pgc.top_persisted", 1)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()
    report = verify(heap_dir, lists)
    assert report.recovery.performed
    # Nothing left to re-copy: every region bit was already set.
    assert report.recovery.objects_recopied == 0


def test_allocation_works_after_recovery(heap_dir):
    jvm, lists = build_workload(heap_dir)
    jvm.vm.failpoints.crash_on_hit("gc.compact.copied", 5)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    node = define_node(jvm2)
    jvm2.load_heap("h")
    fresh = jvm2.pnew(node)
    jvm2.set_field(fresh, "value", 12345)
    jvm2.flush_object(fresh)
    jvm2.set_root("fresh", fresh)
    jvm2.shutdown()

    jvm3 = Espresso(heap_dir)
    jvm3.load_heap("h")
    assert jvm3.get_field(jvm3.get_root("fresh"), "value") == 12345


def test_parallel_gc_crash_recovers_under_any_worker_count(heap_dir):
    """A collection crashed mid-compaction on a 4-worker gang must recover
    to the *same* durable image whether the recovering session runs 1 or 4
    workers — recovery is worker-count agnostic (DESIGN.md §12)."""
    import shutil

    jvm = Espresso(heap_dir / "crashed", config=EspressoConfig(gc_workers=4))
    node = define_node(jvm)
    jvm.create_heap("h", HEAP_BYTES, region_words=REGION_WORDS)
    lists = {}
    for li in range(4):
        values = [li * 100 + i for i in range(10)]
        head = None
        for v in reversed(values):
            n = jvm.pnew(node)
            jvm.set_field(n, "value", v)
            if head is not None:
                jvm.set_field(n, "next", head)
            head = n
        jvm.flush_reachable(head)
        jvm.set_root(f"list{li}", head)
        lists[f"list{li}"] = values
        for _ in range(15):
            jvm.pnew(node).close()

    jvm.vm.failpoints.crash_on_hit("gc.compact.region_done", 2)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()

    images = {}
    for workers in (1, 4):
        root = heap_dir / f"recover-w{workers}"
        shutil.copytree(heap_dir / "crashed", root)
        report = verify(root, lists, gc_workers=workers)
        assert report.recovery.performed
        jvm2 = Espresso(root, config=EspressoConfig(gc_workers=workers))
        heap = jvm2.heaps.load_heap("h")
        images[workers] = heap.device.durable_image().tobytes()
    assert images[1] == images[4]
