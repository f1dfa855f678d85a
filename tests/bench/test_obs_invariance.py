"""Tracing must not perturb the measurement.

The Observatory reads the simulated clock without charging it and reads
device counters without issuing device traffic, so a traced bench run
must produce byte-identical timings and flush/fence counts to an
untraced one.  Pinned here on fig17 (both providers, all four CRUD
operations) and on a traced TPC-C run.
"""

from repro.api import Espresso, EspressoConfig
from repro.bench.fig17_basictest_breakdown import run as run_fig17
from repro.obs import Observatory
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck_heap
from repro.tpcc import run_tpcc


def test_fig17_identical_with_and_without_tracing(tmp_path):
    baseline = run_fig17(count=15, heap_dir=tmp_path / "plain")
    traced = run_fig17(count=15, heap_dir=tmp_path / "traced", trace=True)
    # Simulated per-phase times: identical to the nanosecond.
    assert traced.cells == baseline.cells
    # Device flush/fence/dedup/epoch counts: identical.
    assert traced.nvm == baseline.nvm
    # ...and the traced run actually recorded something.
    assert baseline.obs == {}
    assert traced.obs
    pjo_create = traced.obs[("H2-PJO", "Create")]
    assert pjo_create["spans"]["jpab.create"]["count"] == 1
    assert pjo_create["counters"]["pjh.alloc.objects"] > 0


def test_tpcc_identical_with_and_without_tracing(tmp_path):
    baseline = run_tpcc("pjo", transactions=20, heap_dir=tmp_path / "plain")
    traced = run_tpcc("pjo", transactions=20, heap_dir=tmp_path / "traced",
                      observatory=Observatory())
    assert traced.sim_ns == baseline.sim_ns
    assert traced.nvm == baseline.nvm
    assert traced.snapshot == baseline.snapshot
    assert baseline.obs == {}
    assert traced.obs["transactions"]["spans"]["tpcc.transactions"]["count"] \
        == 1


def _collect_with_workers(root, workers, observatory=None):
    """Build a fixed heap, run one persistent GC with *workers* workers."""
    jvm = Espresso(root, config=EspressoConfig(
        gc_workers=workers, observatory=observatory))
    node = jvm.define_class("Node", [field("v", FieldKind.INT),
                                     field("next", FieldKind.REF)])
    jvm.create_heap("h", 512 * 1024)
    keep = jvm.pnew_array(node, 64)
    for i in range(256):
        n = jvm.pnew(node)
        jvm.set_field(n, "v", i)
        if i % 4 == 0:
            jvm.array_set(keep, i // 4, n)    # survivor
    jvm.flush_reachable(keep)
    jvm.set_root("keep", keep)
    result = jvm.persistent_gc("h")
    heap = jvm.heaps.heap("h")
    assert fsck_heap(heap).clean
    return jvm, heap, result


def test_gc_worker_count_never_changes_the_durable_image(tmp_path):
    """gc_workers is a *timing* knob: the durable heap image after a full
    collection is byte-identical for 1 and 8 workers, and fsck-clean."""
    images = {}
    for workers in (1, 8):
        _jvm, heap, result = _collect_with_workers(
            tmp_path / f"w{workers}", workers)
        assert result.stats.moved_objects > 0
        images[workers] = heap.device.durable_image().tobytes()
    assert images[1] == images[8]


def test_parallel_gc_identical_with_and_without_tracing(tmp_path):
    """The invariance contract holds per worker count: tracing a parallel
    collection must not change its simulated timing or device traffic."""
    for workers in (1, 8):
        plain_jvm, plain_heap, _ = _collect_with_workers(
            tmp_path / f"plain{workers}", workers)
        traced_jvm, traced_heap, _ = _collect_with_workers(
            tmp_path / f"traced{workers}", workers, observatory=Observatory())
        assert traced_jvm.clock.now_ns == plain_jvm.clock.now_ns
        assert traced_heap.device.stats.flushes \
            == plain_heap.device.stats.flushes
        assert traced_heap.device.stats.fences \
            == plain_heap.device.stats.fences
        assert traced_heap.device.durable_image().tobytes() \
            == plain_heap.device.durable_image().tobytes()
        if workers > 1:
            workers_seen = set()

            def walk(span):
                if span.name == "gc.worker":
                    workers_seen.add(span.attrs["worker"])
                for child in span.children:
                    walk(child)

            for root in traced_jvm.obs.tracer.timeline():
                walk(root)
            assert workers_seen == set(range(workers))
