"""The crash-transparent execution engine (repro.runtime.resume, §14).

Three contract groups:

* the mirror constants — ``resume`` must not import ``repro.core``, so
  its private copies of the durable encodings are pinned against the
  core definitions here;
* the session surface — registration, the ``resumable=True`` gate,
  ensure-completed ``run()`` semantics, ``reset()``, ``result()``;
* the resume protocol — crash at a failpoint, restart, resume; skipped
  vs executed step accounting; child-frame replay depth; the protocol
  errors raised on nondeterministic or ill-typed replays.
"""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import (IllegalArgumentException, IllegalStateException,
                          ResumeProtocolError, SimulatedCrash)
from repro.obs import Observatory
from repro.runtime import resume
from repro.runtime.klass import FieldKind, field
from repro.runtime.resume import TaskRegistry


class TestMirrorConstants:
    """resume.py is core-agnostic; its constants must track the core."""

    def test_does_not_import_core(self):
        import ast
        import inspect
        tree = ast.parse(inspect.getsource(resume))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any(mod.startswith("repro.core") for mod in imported), \
            sorted(imported)

    def test_task_status_words_match_metadata(self):
        from repro.core import metadata
        assert resume.TASK_NONE == metadata.TASK_NONE
        assert resume.TASK_RUNNING == metadata.TASK_RUNNING
        assert resume.TASK_DONE == metadata.TASK_DONE

    def test_value_kinds_match_frame_segment(self):
        from repro.core import frame_segment
        assert resume.KIND_NONE == frame_segment.KIND_NONE
        assert resume.KIND_INT == frame_segment.KIND_INT
        assert resume.KIND_REF == frame_segment.KIND_REF


class TestRegistry:
    def test_register_and_decorator_forms(self):
        registry = TaskRegistry()
        registry.register("a", lambda task, s: 1)

        @registry.task("b")
        def b(task, s):
            return 2

        assert "a" in registry and "b" in registry
        assert registry.resolve("b") is b

    def test_unknown_task_raises_protocol_error(self):
        registry = TaskRegistry()
        registry.register("known", lambda task, s: 1)
        with pytest.raises(ResumeProtocolError, match="known"):
            registry.resolve("nope")


# ----------------------------------------------------------------------
# Session fixtures
# ----------------------------------------------------------------------
N = 4
EXPECTED = sum(i * i for i in range(N))  # 14


def _define(jvm):
    jvm.define_class("RNode", [field("v", FieldKind.INT),
                               field("next", FieldKind.REF)])


def _mk(s, i, prev):
    node = s.pnew("RNode")
    s.set_field(node, "v", i)
    if prev is not None:
        s.set_field(node, "next", prev)
    s.flush_reachable(node)
    return node


def _register(jvm):
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


def _session(tmp_path, registry=None):
    cfg = EspressoConfig(resumable=True, observatory=Observatory(),
                         task_registry=registry)
    jvm = Espresso(tmp_path / "heaps", config=cfg)
    _define(jvm)
    if registry is None:
        _register(jvm)
    return jvm


@pytest.fixture
def jvm(tmp_path):
    jvm = _session(tmp_path)
    jvm.create_heap("h", 512 * 1024)
    return jvm


def _counters(jvm):
    return jvm.obs.metrics.counters_snapshot()


# ----------------------------------------------------------------------
# Gating and surface
# ----------------------------------------------------------------------
class TestSessionSurface:
    def test_resumable_flag_gates_both_entry_points(self, tmp_path):
        plain = Espresso(tmp_path / "heaps")
        with pytest.raises(IllegalStateException, match="resumable=True"):
            plain.register_task("t", lambda task, s: 1)
        with pytest.raises(IllegalStateException, match="resumable=True"):
            plain.resumable_task("t")

    def test_status_and_result_lifecycle(self, jvm):
        task = jvm.resumable_task("build")
        assert task.status == "none"
        with pytest.raises(IllegalArgumentException, match="not completed"):
            task.result()
        assert task.run(N) == EXPECTED
        assert task.status == "done"
        assert task.result() == EXPECTED

    def test_run_is_ensure_completed(self, jvm):
        task = jvm.resumable_task("build")
        assert task.run(N) == EXPECTED
        executed = _counters(jvm)["resume.steps_executed"]
        # A second run returns the stored result without re-executing.
        assert task.run(N) == EXPECTED
        assert _counters(jvm)["resume.steps_executed"] == executed

    def test_reset_discards_the_completed_invocation(self, jvm):
        task = jvm.resumable_task("build")
        assert task.run(N) == EXPECTED
        executed = _counters(jvm)["resume.steps_executed"]
        task.reset()
        assert task.status == "none"
        assert task.run(N) == EXPECTED
        assert _counters(jvm)["resume.steps_executed"] == 2 * executed

    def test_registry_shared_through_config(self, tmp_path):
        registry = TaskRegistry()
        registry.register("one", lambda task, s: task.step(lambda: 1))
        jvm = _session(tmp_path, registry)
        jvm.create_heap("h", 256 * 1024)
        assert jvm.resumable_task("one").run() == 1


# ----------------------------------------------------------------------
# Protocol errors
# ----------------------------------------------------------------------
class TestProtocolErrors:
    def _crashed(self, tmp_path, hit=8):
        jvm = _session(tmp_path)
        jvm.create_heap("h", 512 * 1024)
        jvm.vm.failpoints.crash_on_global_hit(hit)
        with pytest.raises(SimulatedCrash):
            jvm.resumable_task("build").run(N)
        jvm2 = jvm.restart(crash=True)
        _define(jvm2)
        jvm2.load_heap("h")
        return jvm2

    def test_resume_with_different_args_rejected(self, tmp_path):
        jvm2 = self._crashed(tmp_path)
        with pytest.raises(ResumeProtocolError, match="arguments"):
            jvm2.resumable_task("build").run(N + 1)

    def test_resume_under_wrong_name_rejected(self, tmp_path):
        jvm2 = self._crashed(tmp_path)
        with pytest.raises(ResumeProtocolError, match="in flight"):
            jvm2.resumable_task("weigh").run(0)

    def test_ref_final_result_rejected(self, jvm):
        @jvm.register_task("leak")
        def leak(task, s):
            return task.step(_mk, s, 0, None)  # handle as final result

        with pytest.raises(ResumeProtocolError, match="set_root"):
            jvm.resumable_task("leak").run()

    def test_unencodable_step_value_rejected(self, jvm):
        @jvm.register_task("bad")
        def bad(task, s):
            return task.step(lambda: "strings are not durable")

        with pytest.raises(ResumeProtocolError, match="None, int or"):
            jvm.resumable_task("bad").run()

    def test_handle_step_value_roundtrips(self, jvm):
        @jvm.register_task("mk")
        def mk(task, s):
            node = task.step(_mk, s, 41, None)
            task.step(s.set_field, node, "v", 42)
            s.set_root("n", node)
            return task.step(s.get_field, node, "v")

        assert jvm.resumable_task("mk").run() == 42


# ----------------------------------------------------------------------
# Crash / resume accounting
# ----------------------------------------------------------------------
class TestCrashResume:
    def test_resume_skips_checkpointed_steps(self, tmp_path):
        jvm = _session(tmp_path)
        jvm.create_heap("h", 512 * 1024)
        # Far enough in that several steps are durably checkpointed.
        jvm.vm.failpoints.crash_on_global_hit(20)
        with pytest.raises(SimulatedCrash):
            jvm.resumable_task("build").run(N)
        jvm2 = jvm.restart(crash=True)
        _define(jvm2)
        jvm2.load_heap("h")
        assert jvm2.resumable_task("build").status == "running"
        # restart(crash=True) carries the observatory, so diff against a
        # post-restart snapshot to count only the replay.
        snap = _counters(jvm2)
        assert jvm2.resumable_task("build").run(N) == EXPECTED
        delta = jvm2.obs.metrics.counters_since(snap)
        assert delta.get("resume.steps_skipped", 0) > 0
        assert delta.get("resume.steps_executed", 0) > 0
        assert delta.get("resume.frames_replayed", 0) >= 1
        # The full uncrashed run executes 2N steps (one _mk + one weigh
        # per iteration); replay executed strictly fewer.
        assert delta.get("resume.steps_executed", 0) < 2 * N

    def test_resume_inside_child_frame(self, tmp_path):
        jvm = _session(tmp_path)
        jvm.create_heap("h", 512 * 1024)
        # Hits per iteration: push(2) step-ckpt(1) push(2) child-ckpt(1)
        # finish(1) pop-ckpt(1) pop(1); global hit 7 lands after the
        # first weigh's step checkpoint but before its pop completes —
        # the durable stack is two frames deep.
        jvm.vm.failpoints.crash_on_global_hit(7)
        with pytest.raises(SimulatedCrash):
            jvm.resumable_task("build").run(N)
        jvm2 = jvm.restart(crash=True)
        _define(jvm2)
        heap = jvm2.load_heap("h")
        assert heap.frames.depth() >= 1
        assert jvm2.resumable_task("build").run(N) == EXPECTED
        assert _counters(jvm2)["resume.frames_replayed"] >= 1

    def test_every_run_converges_to_the_same_roots(self, tmp_path):
        jvm = _session(tmp_path)
        jvm.create_heap("h", 512 * 1024)
        jvm.vm.failpoints.crash_on_global_hit(13)
        with pytest.raises(SimulatedCrash):
            jvm.resumable_task("build").run(N)
        jvm2 = jvm.restart(crash=True)
        _define(jvm2)
        jvm2.load_heap("h")
        assert jvm2.resumable_task("build").run(N) == EXPECTED
        chain = []
        cursor = jvm2.get_root("list")
        while cursor is not None:
            chain.append(jvm2.get_field(cursor, "v"))
            cursor = jvm2.get_field(cursor, "next")
        assert chain == list(range(N - 1, -1, -1))
