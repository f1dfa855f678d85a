"""Edge-case tests: huge allocations, corrupt images, handle churn."""

import numpy as np
import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import HeapCorruptionError, OutOfMemoryError
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field


class TestHugeAllocations:
    def test_humongous_dram_array_goes_to_old(self, tmp_path):
        jvm = Espresso(tmp_path / "h", config=EspressoConfig(
            heap_config=HeapConfig(eden_words=512, survivor_words=256,
                                   old_words=16384)))
        big = jvm.vm.new_array(FieldKind.INT, 2000)  # > eden
        assert jvm.vm.heap.old.contains(big.address)
        jvm.array_set(big, 1999, 7)
        jvm.system_gc()
        assert jvm.array_get(big, 1999) == 7

    def test_pjh_allocation_larger_than_free_space(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("small", 64 * 1024)
        with pytest.raises(OutOfMemoryError):
            jvm.pnew_array(FieldKind.INT, 1_000_000)

    def test_pjh_array_spanning_most_of_the_heap(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        heap = jvm.create_heap("big", 1024 * 1024)
        capacity = heap.data_space.free_words - 16
        arr = jvm.pnew_array(FieldKind.INT, capacity - 3)
        jvm.array_set(arr, capacity - 4, 42)
        jvm.flush_array_element(arr, capacity - 4)
        jvm.set_root("arr", arr)
        jvm.crash()
        jvm2 = Espresso(tmp_path / "h")
        jvm2.load_heap("big")
        assert jvm2.array_get(jvm2.get_root("arr"), capacity - 4) == 42


class TestCorruptImages:
    def test_zeroed_image_rejected(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("h", 64 * 1024)
        jvm.shutdown()
        # Overwrite the image with zeros: the magic is gone.
        jvm.heaps.names.save_image("h", np.zeros(8192, dtype=np.int64))
        jvm2 = Espresso(tmp_path / "h")
        with pytest.raises(HeapCorruptionError):
            jvm2.load_heap("h")

    def test_bitflipped_magic_rejected(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("h", 64 * 1024)
        jvm.shutdown()
        image = jvm.heaps.names.load_image("h")
        image[0] ^= 0xFF
        jvm.heaps.names.save_image("h", image)
        jvm2 = Espresso(tmp_path / "h")
        with pytest.raises(HeapCorruptionError):
            jvm2.load_heap("h")


class TestHandleChurn:
    def test_many_short_lived_handles_recycle_slots(self, tmp_path):
        import gc as pygc
        jvm = Espresso(tmp_path / "h")
        klass = jvm.define_class("Churn", [field("v", FieldKind.INT)])
        keeper = jvm.new(klass)
        for _ in range(3):
            for _ in range(2000):
                jvm.new(klass).close()
            pygc.collect()
        # The table reuses freed slots instead of growing without bound.
        assert len(jvm.vm.handles._slots) < 4000
        assert len(jvm.vm.handles) >= 1  # the keeper survives
        assert jvm.get_field(keeper, "v") == 0

    def test_gc_with_thousands_of_live_handles(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        klass = jvm.define_class("Churn2", [field("v", FieldKind.INT)])
        handles = []
        for i in range(500):
            h = jvm.new(klass)
            jvm.set_field(h, "v", i)
            handles.append(h)
        jvm.system_gc()
        jvm.system_gc()
        assert [jvm.get_field(h, "v") for h in handles[::50]] \
            == list(range(0, 500, 50))


class TestHeapRemoval:
    def test_remove_heap_frees_name_and_address(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        heap = jvm.create_heap("gone", 64 * 1024)
        base = heap.base_address
        jvm.heaps.remove_heap("gone")
        assert not jvm.exists_heap("gone")
        # The address range is reusable immediately.
        again = jvm.create_heap("gone", 64 * 1024)
        assert again.base_address == base

    def test_remove_unloaded_heap(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("x", 64 * 1024)
        jvm.shutdown()
        jvm2 = Espresso(tmp_path / "h")
        jvm2.heaps.remove_heap("x")
        assert not jvm2.exists_heap("x")
