"""Crash *during recovery*: the second power loss.

Recovery itself runs over NVM, so the power can fail again while
``loadHeap`` is replaying a crashed collection or normalising the frame
stack.  Both recovery passes are written to be idempotent; these tests
pin that down by injecting a second :class:`~repro.errors.SimulatedCrash`
inside ``recover()`` / ``recover_frames()`` via failpoints armed during
the load, saving the half-recovered device's durable image (the
``_last_load_device`` stash), and letting a third session finish the job.

The invariant in every scenario: the doubly-crashed path converges on the
same durable bytes (and the same answers) as the straight
crash-once-recover-once path.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import SimulatedCrash
from repro.obs import Observatory
from repro.runtime.klass import FieldKind, field


def _image_hash(heap) -> str:
    return hashlib.sha256(heap.device.durable_image().tobytes()).hexdigest()


def _save_partial_recovery(jvm, name: str) -> None:
    """Persist the half-recovered device after a crash inside load."""
    device = jvm.heaps._last_load_device
    assert device is not None, "load crash did not stash its device"
    device.crash()  # apply the power loss to the partial recovery
    jvm.heaps.names.save_image(name, device.durable_image())


# ----------------------------------------------------------------------
# PJH layer: second crash inside GC recovery
# ----------------------------------------------------------------------
class TestCrashDuringGcRecovery:
    def _build_crashed_heap(self, tmp):
        """A heap durably mid-collection: crashed mid-compact."""
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory()))
        node = jvm.define_class("RNode", [field("v", FieldKind.INT),
                                          field("next", FieldKind.REF)])
        jvm.create_heap("h", 256 * 1024, region_words=128)
        keep = None
        for i in range(18):
            n = jvm.pnew(node)
            jvm.set_field(n, "v", i)
            if i % 3 == 0:
                if keep is not None:
                    jvm.set_field(n, "next", keep)
                keep = n
                jvm.flush_reachable(keep)
                jvm.set_root("keep", keep)
            else:
                n.close()
        jvm.vm.failpoints.crash_on_hit("gc.compact.serial_object_done", 3)
        with pytest.raises(SimulatedCrash):
            jvm.persistent_gc()
        jvm.crash()  # power loss: the mid-GC durable image is saved
        return jvm

    def _fresh(self, tmp):
        jvm = Espresso(tmp / "heaps", config=EspressoConfig(
            observatory=Observatory()))
        jvm.define_class("RNode", [field("v", FieldKind.INT),
                                   field("next", FieldKind.REF)])
        return jvm

    @pytest.mark.parametrize("site", ["gc.compact.serial_object_done",
                                      "pgc.redo_applied",
                                      "pgc.flag_cleared"])
    def test_second_crash_inside_recover_converges(self, site):
        tmp = Path(tempfile.mkdtemp(prefix="rcvcrash-gc-"))
        try:
            self._build_crashed_heap(tmp)

            # Straight path: one recovery, no second crash.  The load
            # mutates only the in-memory device (nothing is saved back),
            # so the on-disk image still holds the first crash state.
            ref = self._fresh(tmp)
            heap = ref.load_heap("h")
            straight = _image_hash(heap)

            # Doubly-crashed path: the recovery itself dies at *site*.
            jvm2 = self._fresh(tmp)
            jvm2.vm.failpoints.crash_on_hit(site, 1)
            with pytest.raises(SimulatedCrash):
                jvm2.load_heap("h")
            _save_partial_recovery(jvm2, "h")

            jvm3 = self._fresh(tmp)
            heap3 = jvm3.load_heap("h")
            assert _image_hash(heap3) == straight
            # The survivor chain is intact either way.
            head = jvm3.get_root("keep")
            chain = []
            while head is not None:
                chain.append(jvm3.get_field(head, "v"))
                head = jvm3.get_field(head, "next")
            assert chain == [15, 12, 9, 6, 3, 0]
            from repro.tools.fsck import fsck_heap
            report = fsck_heap(heap3)
            assert report.clean, report.errors
            assert report.frames_clean, report.frame_errors
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Resume layer: second crash inside frame recovery
# ----------------------------------------------------------------------
class TestCrashDuringFrameRecovery:
    N = 5
    EXPECTED = sum(i * i for i in range(N))

    def _define(self, jvm):
        jvm.define_class("FNode", [field("v", FieldKind.INT),
                                   field("next", FieldKind.REF)])

    def _session(self, tmp, registry=None):
        cfg = EspressoConfig(resumable=True, observatory=Observatory(),
                             task_registry=registry)
        jvm = Espresso(tmp / "heaps", config=cfg)
        self._define(jvm)
        if registry is None:
            self._register(jvm)
        return jvm

    def _register(self, jvm):
        def _mk(s, i, prev):
            node = s.pnew("FNode")
            s.set_field(node, "v", i)
            if prev is not None:
                s.set_field(node, "next", prev)
            s.flush_reachable(node)
            return node

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

    def _build_half_popped_heap(self, tmp):
        """Crash right after a child frame seals: the pop is half done."""
        jvm = self._session(tmp)
        jvm.create_heap("h", 512 * 1024)
        jvm.vm.failpoints.crash_on_hit("resume.frame_finished", 2)
        with pytest.raises(SimulatedCrash):
            jvm.resumable_task("build").run(self.N)
        jvm.crash()
        return jvm.config.task_registry

    @pytest.mark.parametrize("site", ["resume.pop_checkpointed",
                                      "resume.top_popped"])
    def test_second_crash_inside_recover_frames_converges(self, site):
        tmp = Path(tempfile.mkdtemp(prefix="rcvcrash-frames-"))
        try:
            registry = self._build_half_popped_heap(tmp)

            # Straight path: load (completes the pop), then finish the
            # task.  Nothing is written back to disk.
            ref = self._session(tmp, registry)
            heap = ref.load_heap("h")
            straight_after_load = _image_hash(heap)
            assert ref.obs.metrics.counters_snapshot().get(
                "recovery.frame_pops_completed", 0) == 1
            assert ref.resumable_task("build").run(self.N) == self.EXPECTED
            straight_final = _image_hash(heap)

            # Doubly-crashed path: frame recovery dies mid-pop.
            jvm2 = self._session(tmp, registry)
            jvm2.vm.failpoints.crash_on_hit(site, 1)
            with pytest.raises(SimulatedCrash):
                jvm2.load_heap("h")
            _save_partial_recovery(jvm2, "h")

            jvm3 = self._session(tmp, registry)
            heap3 = jvm3.load_heap("h")
            # Idempotent recovery: the twice-recovered stack matches the
            # once-recovered one byte for byte...
            assert _image_hash(heap3) == straight_after_load
            # ...and the task still resumes to the same answer and the
            # same final image.
            assert jvm3.resumable_task("build").run(self.N) == self.EXPECTED
            assert _image_hash(heap3) == straight_final
            from repro.tools.fsck import fsck_heap
            report = fsck_heap(heap3)
            assert report.clean, report.errors
            assert report.frames_clean, report.frame_errors
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_frame_recovery_counter_not_double_counted(self):
        """After a crash at resume.top_popped the pop is fully durable:
        the third load finds a live top frame and completes zero pops."""
        tmp = Path(tempfile.mkdtemp(prefix="rcvcrash-count-"))
        try:
            registry = self._build_half_popped_heap(tmp)
            jvm2 = self._session(tmp, registry)
            jvm2.vm.failpoints.crash_on_hit("resume.top_popped", 1)
            with pytest.raises(SimulatedCrash):
                jvm2.load_heap("h")
            _save_partial_recovery(jvm2, "h")

            jvm3 = self._session(tmp, registry)
            jvm3.load_heap("h")
            assert jvm3.obs.metrics.counters_snapshot().get(
                "recovery.frame_pops_completed", 0) == 0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
