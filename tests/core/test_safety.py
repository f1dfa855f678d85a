"""Memory-safety level tests (paper §3.4)."""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.core.safety import SafetyLevel, TypeBasedPolicy
from repro.errors import NullPointerException, UnsafePointerError
from repro.runtime.klass import FieldKind, field

from tests.core.conftest import HEAP_BYTES, define_person


class TestUserGuaranteed:
    def test_stale_volatile_pointer_survives_reload(self, heap_dir):
        """UG level: the dangling pointer is left in place (user's problem)."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_field(p, "name", jvm.new_string("volatile"))  # DRAM ref
        jvm.flush_object(p)
        jvm.set_root("p", p)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h", safety=SafetyLevel.USER_GUARANTEED)
        p2 = jvm2.get_root("p")
        raw = jvm2.vm.access.field_word(
            p2.address, jvm2.vm.klass_of(p2).field_offset("name"))
        assert raw != 0  # stale pointer still there — undefined if used

    def test_no_scan_on_load(self, heap_dir):
        jvm = Espresso(heap_dir)
        define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        jvm.shutdown()
        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report("h")
        assert report.nullified_pointers == 0


class TestZeroing:
    def test_out_pointers_nullified(self, heap_dir):
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_field(p, "name", jvm.new_string("volatile"))
        jvm.flush_object(p)
        jvm.set_root("p", p)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report(
            "h", safety=SafetyLevel.ZEROING)
        assert report.nullified_pointers == 1
        p2 = jvm2.get_root("p")
        assert jvm2.get_field(p2, "name") is None  # null, not garbage

    def test_null_check_raises_npe_not_corruption(self, heap_dir):
        """Paper: 'the worst case ... will only get a NullPointerException'."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_field(p, "name", jvm.new_string("x"))
        jvm.flush_object(p)
        jvm.set_root("p", p)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h", safety=SafetyLevel.ZEROING)
        p2 = jvm2.get_root("p")
        with pytest.raises(NullPointerException):
            jvm2.read_string(jvm2.get_field(p2, "name"))

    def test_internal_pointers_kept(self, heap_dir):
        """Zeroing only nullifies pointers that *leave* the PJH."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        name = jvm.pnew_string("persistent")
        jvm.set_field(p, "name", name)
        jvm.flush_reachable(p)
        jvm.set_root("p", p)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h", safety=SafetyLevel.ZEROING)
        p2 = jvm2.get_root("p")
        assert jvm2.read_string(jvm2.get_field(p2, "name")) == "persistent"

    def test_array_out_pointers_nullified(self, heap_dir):
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        arr = jvm.pnew_array(person, 3)
        jvm.array_set(arr, 0, jvm.new(person))    # volatile
        jvm.array_set(arr, 1, jvm.pnew(person))   # persistent
        jvm.flush_object(arr)
        jvm.set_root("arr", arr)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h", safety=SafetyLevel.ZEROING)
        arr2 = jvm2.get_root("arr")
        assert jvm2.array_get(arr2, 0) is None
        assert jvm2.array_get(arr2, 1) is not None

    def test_multi_dim_row_out_pointer_nullified(self, heap_dir):
        """A row pointer of a persistent 2-D array that escapes the PJH
        (the row itself lives in DRAM) must be nullified at load."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        grid = jvm.pnew_multi_array(person, [2, 2])
        volatile_row = jvm.new_array(person, 2)      # DRAM row
        jvm.array_set(grid, 0, volatile_row)
        jvm.flush_reachable(grid)
        jvm.set_root("grid", grid)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report(
            "h", safety=SafetyLevel.ZEROING)
        assert report.nullified_pointers >= 1
        grid2 = jvm2.get_root("grid")
        assert jvm2.array_get(grid2, 0) is None       # escaped row: nulled
        assert jvm2.array_get(grid2, 1) is not None   # persistent row: kept

    def test_nested_array_inner_element_nullified(self, heap_dir):
        """An out-of-PJH pointer buried in an *inner* row of a nested
        array is reached by the scan, not just the outer row slots."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        grid = jvm.pnew_multi_array(person, [2, 2])
        row = jvm.array_get(grid, 1)
        jvm.array_set(row, 0, jvm.new(person))        # volatile element
        jvm.array_set(row, 1, jvm.pnew(person))       # persistent element
        jvm.flush_reachable(grid)
        jvm.set_root("grid", grid)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h", safety=SafetyLevel.ZEROING)
        row2 = jvm2.array_get(jvm2.get_root("grid"), 1)
        assert jvm2.array_get(row2, 0) is None
        assert jvm2.array_get(row2, 1) is not None

    def test_primitive_array_values_never_zeroed(self, heap_dir):
        """Int payloads that happen to equal out-of-heap addresses are
        data, not pointers — the scan must leave them alone."""
        jvm = Espresso(heap_dir)
        define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        longs = jvm.pnew_array(FieldKind.INT, 4)
        volatile = jvm.new_string("decoy")            # a real DRAM address
        for i in range(4):
            jvm.array_set(longs, i, volatile.address + i)
        jvm.flush_object(longs)
        jvm.set_root("longs", longs)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report(
            "h", safety=SafetyLevel.ZEROING)
        assert report.nullified_pointers == 0
        longs2 = jvm2.get_root("longs")
        for i in range(4):
            assert jvm2.array_get(longs2, i) == volatile.address + i

    def test_parallel_zeroing_scan_matches_serial(self, heap_dir):
        """gc_workers only shrinks simulated scan time; the nullified
        count and the resulting durable image are identical."""
        def build(root):
            jvm = Espresso(root)
            person = define_person(jvm)
            jvm.create_heap("h", HEAP_BYTES)
            arr = jvm.pnew_array(person, 8)
            for i in range(8):
                owner = jvm.pnew(person)
                jvm.set_field(owner, "name",
                              jvm.new_string(f"v{i}") if i % 2
                              else jvm.pnew_string(f"p{i}"))
                jvm.array_set(arr, i, owner)
            jvm.flush_reachable(arr)
            jvm.set_root("arr", arr)
            jvm.shutdown()

        images, counts = [], []
        for workers, sub in ((1, "w1"), (8, "w8")):
            root = heap_dir / sub
            build(root)
            jvm2 = Espresso(root, config=EspressoConfig(gc_workers=workers))
            heap, report = jvm2.heaps.load_heap_with_report(
                "h", safety=SafetyLevel.ZEROING)
            counts.append(report.nullified_pointers)
            images.append(heap.device.durable_image().tobytes())
        assert counts[0] == counts[1] > 0
        assert images[0] == images[1]


class TestTypeBased:
    def make_jvm(self, heap_dir, allowed):
        jvm = Espresso(heap_dir)
        jvm.create_heap("h", HEAP_BYTES, safety=SafetyLevel.TYPE_BASED)
        heap = jvm.heaps.heap("h")
        assert isinstance(heap.safety, TypeBasedPolicy)
        for name in allowed:
            heap.safety.allow(name)
        return jvm

    def test_unannotated_class_rejected(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=[])
        person = define_person(jvm)
        with pytest.raises(UnsafePointerError):
            jvm.pnew(person)

    def test_annotated_class_allowed(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=["Person", "java.lang.Object"])
        person = define_person(jvm)
        p = jvm.pnew(person)
        assert jvm.heaps.heap("h").contains(p.address)

    def test_volatile_store_rejected(self, heap_dir):
        """No pointer within PJH may point out of it (NV-Heaps invariant)."""
        jvm = self.make_jvm(heap_dir,
                            allowed=["Person", "java.lang.String", "[J",
                                     "java.lang.Object"])
        person = define_person(jvm)
        p = jvm.pnew(person)
        with pytest.raises(UnsafePointerError):
            jvm.set_field(p, "name", jvm.new_string("volatile"))

    def test_persistent_store_allowed(self, heap_dir):
        jvm = self.make_jvm(jvm_dir := heap_dir,
                            allowed=["Person", "java.lang.String", "[J",
                                     "java.lang.Object"])
        person = define_person(jvm)
        p = jvm.pnew(person)
        jvm.set_field(p, "name", jvm.pnew_string("persistent"))
        assert jvm.read_string(jvm.get_field(p, "name")) == "persistent"


class TestTypeBasedArrays:
    """Array allocation paths are vetted through their element class.

    A PJH array of an unannotated class would otherwise become durable
    before the first per-store check could fire; the policy walks the
    element chain at ``pnew_array``/``pnew_multi_array`` time instead.
    """

    def make_jvm(self, heap_dir, allowed):
        jvm = Espresso(heap_dir)
        jvm.create_heap("h", HEAP_BYTES, safety=SafetyLevel.TYPE_BASED)
        heap = jvm.heaps.heap("h")
        for name in allowed:
            heap.safety.allow(name)
        return jvm

    def test_pnew_array_of_unannotated_element_rejected(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=[])
        person = define_person(jvm)
        with pytest.raises(UnsafePointerError):
            jvm.pnew_array(person, 4)

    def test_pnew_array_of_allowed_element_accepted(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=["Person"])
        person = define_person(jvm)
        array = jvm.pnew_array(person, 4)
        assert jvm.heaps.heap("h").contains(array.address)

    def test_pnew_array_of_object_elements_accepted(self, heap_dir):
        """Object[] degrades to per-store checking (no static element)."""
        jvm = self.make_jvm(heap_dir, allowed=[])
        array = jvm.pnew_array(jvm.vm.object_klass, 4)
        assert jvm.heaps.heap("h").contains(array.address)

    def test_pnew_primitive_array_accepted(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=[])
        array = jvm.pnew_array(FieldKind.INT, 8)
        assert jvm.heaps.heap("h").contains(array.address)

    def test_pnew_multi_array_of_unannotated_element_rejected(self, heap_dir):
        jvm = self.make_jvm(heap_dir, allowed=[])
        person = define_person(jvm)
        with pytest.raises(UnsafePointerError):
            jvm.pnew_multi_array(person, (2, 2))

    def test_nested_ref_array_walks_to_leaf_element(self, heap_dir):
        """[[LPerson; is rejected through two array layers."""
        jvm = self.make_jvm(heap_dir, allowed=[])
        person = define_person(jvm)
        inner = jvm.vm.array_klass(person)
        with pytest.raises(UnsafePointerError):
            jvm.pnew_array(inner, 2)

    def test_array_copy_of_volatile_refs_rejected(self, heap_dir):
        """Bulk copies keep the store barrier: DRAM refs cannot leak in."""
        jvm = self.make_jvm(heap_dir,
                            allowed=["Person", "java.lang.Object"])
        person = define_person(jvm)
        src = jvm.new_array(person, 2)  # DRAM array
        jvm.vm.array_set(src, 0, jvm.vm.new(person))
        dst = jvm.pnew_array(person, 2)
        with pytest.raises(UnsafePointerError):
            jvm.vm.array_copy(src, 0, dst, 0, 2)

    def test_array_copy_of_persistent_refs_accepted(self, heap_dir):
        jvm = self.make_jvm(heap_dir,
                            allowed=["Person", "java.lang.Object"])
        person = define_person(jvm)
        src = jvm.pnew_array(person, 2)
        jvm.vm.array_set(src, 0, jvm.pnew(person))
        dst = jvm.pnew_array(person, 2)
        jvm.vm.array_copy(src, 0, dst, 0, 2)
        assert jvm.vm.array_get(dst, 0) is not None
