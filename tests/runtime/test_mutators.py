"""MutatorGang: scheduling semantics, pause accounting, determinism.

The determinism contract is the headline: same seed, same ops — same
interleaving, same history, and the *same durable heap image byte for
byte*, across independent runs and across unrelated session knobs
(``gc_workers``), with identical observatory timelines.
"""

import hashlib

import pytest

from repro.api import Espresso, EspressoConfig
from repro.obs import Observatory
from repro.runtime.mutators import MutatorGang
from repro.workloads.concurrent_kv import ConcurrentKvWorkload


# ----------------------------------------------------------------------
# Scheduling semantics (no heap needed: plain generators)
# ----------------------------------------------------------------------
def _clock(jvm):
    return jvm.clock


@pytest.fixture
def jvm(tmp_path):
    return Espresso(tmp_path / "heaps")


class TestScheduling:
    def test_results_and_history_roundtrip(self, jvm):
        gang = MutatorGang(jvm.clock, mutators=2, seed=1)

        def op(value):
            yield
            yield ("linearized", "v", value)
            return value * 10

        gang.submit(0, "a", lambda: op(1))
        gang.submit(1, "b", lambda: op(2))
        report = gang.run()
        assert report.results == {"a": 10, "b": 20}
        kinds = [k for _s, _m, _o, k, _p in report.history]
        assert kinds.count("invoke") == 2
        assert kinds.count("response") == 2
        assert report.markers("linearized") == [
            (s, m, o, p) for s, m, o, k, p in report.history
            if k == "linearized"]
        assert len(report.markers("linearized")) == 2

    def test_fifo_per_mutator(self, jvm):
        gang = MutatorGang(jvm.clock, mutators=1, seed=3)
        order = []

        def op(tag):
            yield
            order.append(tag)
            return tag

        for tag in ("first", "second", "third"):
            gang.submit(0, tag, lambda tag=tag: op(tag))
        gang.run()
        assert order == ["first", "second", "third"]

    def test_submit_out_of_range_rejected(self, jvm):
        gang = MutatorGang(jvm.clock, mutators=2)
        with pytest.raises(ValueError):
            gang.submit(2, "x", lambda: iter(()))

    def test_unknown_marker_kind_rejected(self, jvm):
        gang = MutatorGang(jvm.clock, mutators=1)

        def bad():
            yield ("committed", "nope")

        gang.submit(0, "bad", bad)
        with pytest.raises(ValueError, match="unknown marker kind"):
            gang.run()

    def test_livelock_guard(self, jvm):
        gang = MutatorGang(jvm.clock, mutators=1)

        def spin():
            while True:
                yield

        gang.submit(0, "spin", spin)
        with pytest.raises(RuntimeError, match="livelock"):
            gang.run(max_steps=50)

    def test_gang_is_reusable_and_rng_stream_continues(self, jvm):
        def op():
            yield
            return None

        def schedules(seed):
            gang = MutatorGang(jvm.clock, mutators=3, seed=seed)
            out = []
            for _round in range(2):
                for m in range(3):
                    gang.submit(m, f"op-{_round}-{m}-{len(out)}",
                                lambda: op())
                out.append(tuple(gang.run().schedule))
            return out

        first = schedules(9)
        second = schedules(9)
        assert first == second
        # The second run continues the stream — it is not a replay of
        # the first run's schedule.
        assert first[0] != first[1] or len(first[0]) != len(first[1])


class TestPauseAccounting:
    def test_pause_is_max_not_sum(self, tmp_path):
        """With real heap traffic split over 4 mutators the committed
        pause is the busiest mutator's time, far below the sum."""
        jvm = Espresso(tmp_path / "heaps", config=EspressoConfig(mutators=4))
        jvm.create_heap("kv", 2 * 1024 * 1024)
        workload = ConcurrentKvWorkload(jvm, mutators=4,
                                        ops_per_mutator=6, seed=2)
        report = workload.run()
        assert report.committed_ns == pytest.approx(max(report.busy_ns))
        assert report.committed_ns < sum(report.busy_ns)
        assert all(busy > 0 for busy in report.busy_ns)


# ----------------------------------------------------------------------
# Determinism: image, history and timelines
# ----------------------------------------------------------------------
def _contended_run(where, seed, gc_workers=1, mutators=3):
    jvm = Espresso(where, config=EspressoConfig(
        observatory=Observatory(), gc_workers=gc_workers, mutators=mutators))
    jvm.create_heap("kv", 2 * 1024 * 1024)
    workload = ConcurrentKvWorkload(jvm, mutators=mutators,
                                    ops_per_mutator=6, key_space=3,
                                    seed=seed)
    report = workload.run()
    device = jvm.heaps.heap("kv").device
    image = hashlib.sha256(device.durable_image().tobytes()).hexdigest()
    return report, image, jvm.obs.render_timeline()


class TestDeterminism:
    def test_same_seed_same_schedule_and_image(self, tmp_path):
        first, image_a, timeline_a = _contended_run(tmp_path / "a", seed=5)
        second, image_b, timeline_b = _contended_run(tmp_path / "b", seed=5)
        assert first.schedule == second.schedule
        assert first.history == second.history
        assert image_a == image_b
        assert timeline_a == timeline_b
        assert timeline_a  # non-empty: the comparison is meaningful

    def test_image_identical_across_gc_workers(self, tmp_path):
        _, image_a, timeline_a = _contended_run(tmp_path / "w1", seed=5,
                                                gc_workers=1)
        _, image_b, timeline_b = _contended_run(tmp_path / "w3", seed=5,
                                                gc_workers=3)
        assert image_a == image_b
        assert timeline_a == timeline_b

    def test_different_seed_different_interleaving(self, tmp_path):
        first, _, _ = _contended_run(tmp_path / "a", seed=5)
        second, _, _ = _contended_run(tmp_path / "b", seed=6)
        assert first.schedule != second.schedule
