"""The benchmark's own tests (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run, stats, workloads
from perfbench.trace import SpanRecorder, instrument

ROOT = Path(__file__).resolve().parents[2]

#: Small sizes: a few hundred ops over 3 rounds, seconds not hours.
SMALL = {
    "kv-read": replace(workloads.SIZES["kv-read"], keys=60,
                       ops_per_second=300),
    "kv-write": replace(workloads.SIZES["kv-write"], keys=16,
                        ops_per_second=300, crash_every=40),
    "tpcc-pjo": replace(workloads.SIZES["tpcc-pjo"], ops_per_second=60),
    "kv-gc": workloads.SIZES["kv-gc"],
}


def small_pass(name, tmp_path, seed=3, recorder=None):
    return run.run_pass(name, seed, 1, tmp_path / "heaps",
                        recorder=recorder, sizes=SMALL[name])


# -- statistics -----------------------------------------------------------
def test_nearest_rank():
    values = list(range(100, 0, -1))  # unsorted on purpose
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 99) == 99
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank([7.0], 50) == 7.0
    assert stats.nearest_rank([1, 2, 3, 4], 50) == 2
    # A failed op misses every limit.
    assert stats.nearest_rank([1, 2, math.inf], 99) == math.inf
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_highest_supported_percentile_leaves_ten_samples_beyond():
    assert stats.highest_supported_percentile(1000) == 99
    assert stats.highest_supported_percentile(999) == 98
    assert stats.highest_supported_percentile(100) == 90
    assert stats.highest_supported_percentile(10) is None
    for n in (20, 57, 1000, 4321):
        pct = stats.highest_supported_percentile(n)
        assert n - math.ceil(pct / 100 * n) >= stats.TAIL_SAMPLES
        assert not stats.supports(n, pct + 1)


def test_windowed_rate_keeps_fastest_repetition_of_each_window():
    ms = 1_000_000
    # Two rounds of four ops, windows of two ops; the second round was
    # slowed down in its first half, the first round in its second half.
    durations = [1 * ms, 1 * ms, 5 * ms, 5 * ms,
                 3 * ms, 3 * ms, 1 * ms, 1 * ms]
    assert stats.windowed_rate(durations, 2, 2) == pytest.approx(1000.0)
    # One round: the plain rate over whole windows (partial one dropped).
    assert stats.windowed_rate([ms, ms, ms, 9 * ms], 1, 3) == \
        pytest.approx(1000.0)
    with pytest.raises(ValueError):
        stats.windowed_rate([ms], 1, 2)


def test_per_op_normalisation():
    assert stats.per_op(30, 12) == 2.5
    with pytest.raises(ValueError):
        stats.per_op(1, 0)


# -- op streams -------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_and_changes_the_op_stream(name):
    sizes = SMALL[name]
    first = workloads.make(name, 1, 1, sizes)
    assert workloads.make(name, 1, 1, sizes).ops == first.ops
    assert workloads.make(name, 2, 1, sizes).ops != first.ops
    assert len(first.ops) == sizes.op_count(1)


@pytest.mark.parametrize("name,mix", [
    ("kv-read", {"get": 95, "put": 5}),
    ("kv-write", {"get": 20, "put": 80}),
    ("tpcc-pjo", {"new_order": 45, "payment": 35, "order_status": 12,
                  "delivery": 8}),
])
def test_every_block_holds_the_exact_mix(name, mix):
    ops = workloads.make(name, 5, 15).ops
    block = workloads.BLOCK
    for start in range(0, len(ops) - block + 1, block):
        assert Counter(op[0] for op in ops[start:start + block]) == mix


def test_op_count_scales_with_seconds_in_whole_blocks():
    sizes = workloads.SIZES["kv-read"]
    assert sizes.op_count(15) == 33000
    assert sizes.op_count(30) == 2 * sizes.op_count(15)
    assert sizes.op_count(15) % (sizes.rounds * workloads.BLOCK) == 0


def test_sessions_use_the_default_configuration():
    from repro.api import EspressoConfig
    from repro.core.safety import SafetyLevel
    from repro.nvm.clock import Clock

    default = EspressoConfig()
    config = workloads.session_config(Clock())
    for knob in ("alloc_buffer_words", "elision_certificate", "gc_workers",
                 "mutators", "safety_certificate"):
        assert getattr(config, knob) == getattr(default, knob), knob
    assert config.alloc_buffer_words == 256
    assert workloads.SAFETY is SafetyLevel.USER_GUARANTEED


# -- whole passes -------------------------------------------------------------
@pytest.mark.parametrize("name", ["kv-read", "kv-write", "tpcc-pjo"])
def test_same_seed_repeats_every_simulated_metric(name, tmp_path):
    a = small_pass(name, tmp_path / "a")
    b = small_pass(name, tmp_path / "b")
    assert a["wrong"] == a["lost"] == a["failed"] == 0
    assert run.invariance_diff(a, b) == []
    ea, eb = run.end_to_end(a), run.end_to_end(b)
    for metric in ("sim_ops_per_ms", "sim_p50_us", "flushes_per_op",
                   "fences_per_op", "recovery_sim_ms", "space_amp"):
        assert ea[metric] == eb[metric], metric
    assert len(a["recoveries"]) >= a["rounds"]


def test_different_seed_changes_the_simulated_result(tmp_path):
    a = run.run_pass("kv-write", 1, 1, tmp_path / "a",
                     sizes=SMALL["kv-write"])
    b = run.run_pass("kv-write", 2, 1, tmp_path / "b",
                     sizes=SMALL["kv-write"])
    assert a["sim_lat"] != b["sim_lat"]


def test_failure_accounting_after_heap_corruption(tmp_path):
    raw = small_pass("kv-gc", tmp_path)
    completed = sum(1 for v in raw["sim_lat"] if v != math.inf)
    assert len(raw["sim_lat"]) == raw["attempted"]
    assert raw["failed"] == raw["attempted"] - completed
    if raw["errors"].get("HeapCorruptionError"):
        # The corrupting op ends the run: everything after it failed.
        assert raw["executed"] == completed + sum(raw["errors"].values())
        assert raw["sim_lat"][-1] == math.inf
        assert raw["recoveries"] == []


def test_traced_pass_matches_untraced_and_restores_methods(tmp_path):
    from repro.nvm.device import NvmDevice
    from repro.fleet.store import ShardStore

    read, create = NvmDevice.read, ShardStore.__dict__["create"]
    plain = small_pass("tpcc-pjo", tmp_path / "plain")
    recorder = SpanRecorder(sample_every=7)
    with instrument(recorder):
        traced = small_pass("tpcc-pjo", tmp_path / "traced",
                            recorder=recorder)
    assert NvmDevice.read is read
    assert ShardStore.__dict__["create"] is create
    assert run.invariance_diff(plain, traced) == []
    layers = run.per_layer(plain, traced, recorder)
    ops = traced["executed"]
    assert layers["nvm.reads_per_op"] == \
        traced["meter"].device["reads"] / ops
    spans = recorder.by_name()
    assert layers["pjhlib.undo_slots_per_op"] == \
        spans["pjhlib:PjhTransaction.log_slot"]["calls"] / ops
    assert layers["pjo.rows_scanned_per_tx"] > 0
    assert layers["store.host_self_us_per_op"] == 0
    # Self time never exceeds total time, and the kept spans nest.
    for row in spans.values():
        assert row["host_self_ns"] <= row["host_total_ns"]
    kept = recorder.kept
    assert len(kept["name"]) > 0
    assert all(p < i for i, p in enumerate(kept["parent"]))
    recorder.save(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


# -- the command ------------------------------------------------------------
def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = dict(run.END_TO_END)
    per_layer = dict(run.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert end_to_end[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert per_layer[metric["name"]] == metric["unit"]
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.reported(run.END_TO_END)]
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in run.reported(run.PER_LAYER)]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
