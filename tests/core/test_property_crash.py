"""Property-based crash tests: random graphs, random crash points.

The strongest invariant in the system: for ANY object graph and ANY crash
point inside a persistent collection, loadHeap recovery reproduces the
flushed pre-GC state exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Espresso, EspressoConfig
from repro.errors import SimulatedCrash
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field


def build_random_graph(jvm, node_klass, data):
    """Random graph: N nodes, random edges, random subset rooted."""
    count = data.draw(st.integers(3, 30), label="count")
    nodes = []
    for i in range(count):
        n = jvm.pnew(node_klass)
        jvm.set_field(n, "v", i)
        nodes.append(n)
    edges = {}
    for i in range(count):
        for slot in ("a", "b"):
            j = data.draw(st.integers(-1, count - 1), label=f"edge{i}{slot}")
            if j >= 0:
                jvm.set_field(nodes[i], slot, nodes[j])
                edges[(i, slot)] = j
    rooted = sorted(data.draw(
        st.sets(st.integers(0, count - 1), min_size=1, max_size=5),
        label="roots"))
    for i in rooted:
        jvm.flush_reachable(nodes[i])
        jvm.set_root(f"n{i}", nodes[i])
    # Garbage in between keeps compaction honest.
    for _ in range(data.draw(st.integers(0, 40), label="garbage")):
        jvm.pnew(node_klass).close()
    return count, edges, rooted


def reachable_from(rooted, edges, count):
    seen = set()
    stack = list(rooted)
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        for slot in ("a", "b"):
            j = edges.get((i, slot))
            if j is not None:
                stack.append(j)
    return seen


def verify_graph(jvm, edges, rooted, count):
    """Walk the reloaded graph and compare with the model."""
    reachable = reachable_from(rooted, edges, count)
    handles = {}
    stack = []
    for i in rooted:
        handle = jvm.get_root(f"n{i}")
        assert handle is not None
        handles[i] = handle
        stack.append(i)
    visited = set()
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        node = handles[i]
        assert jvm.get_field(node, "v") == i
        for slot in ("a", "b"):
            j = edges.get((i, slot))
            target = jvm.get_field(node, slot)
            if j is None:
                assert target is None
            else:
                assert jvm.get_field(target, "v") == j
                handles[j] = target
                stack.append(j)
    assert visited == reachable


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_random_graph_random_crash_point(tmp_path_factory, data):
    heap_dir = tmp_path_factory.mktemp("crash")
    jvm = Espresso(heap_dir)
    node_klass = jvm.define_class(
        "PNode", [field("v", FieldKind.INT),
                  field("a", FieldKind.REF), field("b", FieldKind.REF)])
    jvm.create_heap("g", 256 * 1024, region_words=128)
    count, edges, rooted = build_random_graph(jvm, node_klass, data)

    crash_at = data.draw(st.integers(1, 300), label="crash_at")
    jvm.vm.failpoints.crash_on_global_hit(crash_at)
    try:
        jvm.persistent_gc()
    except SimulatedCrash:
        pass
    jvm.vm.failpoints.clear()
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    jvm2.load_heap("g")
    verify_graph(jvm2, edges, rooted, count)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_property_graph_survives_gc_without_crash(tmp_path_factory, data):
    """Baseline for the crash property: GC alone preserves random graphs."""
    heap_dir = tmp_path_factory.mktemp("gc")
    jvm = Espresso(heap_dir)
    node_klass = jvm.define_class(
        "QNode", [field("v", FieldKind.INT),
                  field("a", FieldKind.REF), field("b", FieldKind.REF)])
    jvm.create_heap("g", 256 * 1024, region_words=128)
    count, edges, rooted = build_random_graph(jvm, node_klass, data)
    jvm.persistent_gc()
    jvm.persistent_gc()  # twice: exercises re-compaction of compacted data
    verify_graph(jvm, edges, rooted, count)


def test_dram_full_gc_with_region_spanning_objects(tmp_path):
    """The volatile engine also faces big objects (serialized path)."""
    jvm = Espresso(tmp_path / "h", config=EspressoConfig(
        heap_config=HeapConfig(eden_words=4096, survivor_words=2048,
                               old_words=16384, region_words=256)))
    keep = []
    big = jvm.new_array(FieldKind.INT, 900)  # spans several regions
    for i in range(900):
        jvm.array_set(big, i, i * 3)
    keep.append(big)
    node = jvm.define_class("DNode", [field("v", FieldKind.INT)])
    for i in range(50):
        n = jvm.new(node)
        jvm.set_field(n, "v", i)
        if i % 5 == 0:
            keep.append(n)
        else:
            n.close()
    jvm.system_gc()
    jvm.system_gc()
    assert [jvm.array_get(big, i) for i in range(0, 900, 100)] \
        == [i * 3 for i in range(0, 900, 100)]
    values = [jvm.get_field(h, "v") for h in keep[1:]]
    assert values == [0, 5, 10, 15, 20, 25, 30, 35, 40, 45]
