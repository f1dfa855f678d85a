"""Two-clock benchmark of the Espresso reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 15 --trace 0

runs one workload (``kv-read``, ``kv-write``, ``tpcc-pjo`` or ``kv-gc``;
``all`` runs each in turn) as a closed loop with one client, checks every
output against a model, and prints each metric by name and unit.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A ``--trace 1`` run executes the workload twice with the same seed: once
untraced, then with an :class:`repro.obs.Observatory` installed and span
wrappers around each layer's public methods (``perfbench/trace.py``).  It
fails unless both passes charge identical simulated time and device
counts, and reports the tracing overhead in host time.  The span table is
written to ``.perfbench_out/spans-<workload>.npz``.

Exit status: 0 when every output was correct, 1 when a check failed, 2
when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("kv-read", "kv-write", "tpcc-pjo", "kv-gc")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("sim_ops_per_ms", "1/ms"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("flushes_per_op", "count"),
    ("fences_per_op", "count"),
    ("failed_frac", "ratio"),
    ("acked_lost", "count"),
    ("recovery_sim_ms", "ms"),
    ("recovery_host_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
]

SIM_CATEGORIES = ("allocation", "data", "database", "gc", "metadata",
                  "transaction", "transformation", "other")

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    ("nvm.reads_per_op", "count"),
    ("nvm.writes_per_op", "count"),
    ("nvm.flushes_deduped_per_op", "count"),
    ("nvm.epochs_per_op", "count"),
    ("nvm.flushes_elided_per_op", "count"),
    ("nvm.calls_per_op", "count"),
    ("nvm.host_self_us_per_op", "us"),
    ("runtime.object_ops_per_op", "count"),
    ("runtime.host_self_us_per_op", "us"),
    ("core.allocs_per_op", "count"),
    ("core.buffer_refills_per_op", "count"),
    ("core.host_self_us_per_op", "us"),
    ("core.load_sim_ms", "ms"),
    ("core.load_host_ms", "ms"),
    ("core.gc_pause_sim_ms", "ms"),
    ("core.gc_host_ms", "ms"),
    ("core.gc_moved_objects", "count"),
    ("core.gc_flushes", "count"),
    ("core.gc_mark_sim_ms", "ms"),
    ("core.gc_summary_sim_ms", "ms"),
    ("core.gc_compact_sim_ms", "ms"),
    ("core.gc_fix_external_sim_ms", "ms"),
    ("pjhlib.tx_per_op", "count"),
    ("pjhlib.undo_slots_per_op", "count"),
    ("pjhlib.host_self_us_per_op", "us"),
    ("store.host_self_us_per_op", "us"),
    ("pjo.commit_sim_us_per_tx", "us"),
    ("pjo.commit_host_us_per_tx", "us"),
    ("pjo.rows_scanned_per_tx", "count"),
    ("pjo.host_self_us_per_tx", "us"),
    ("h2.backend_host_self_us_per_tx", "us"),
    ("tpcc.host_self_us_per_tx", "us"),
] + [(f"sim.{c}_ns_per_op", "ns") for c in SIM_CATEGORIES] + [
    ("bench.host_self_us_per_op", "us"),
    ("trace.host_overhead_frac", "ratio"),
]

_IDLE_LAYER = "a time of a layer some listed workload never enters (always 0)"
#: Metrics every run prints but keeps out of its result line, and why.
#: The result line carries only metrics that are never 0 and, for times,
#: never read the same on every seed.
PRINTED_ONLY = {
    "failed_frac": "0 on a healthy run; the result line's failed count",
    "acked_lost": "0 on a healthy run; any loss makes the result incorrect",
    "sim_p50_us": "quantised by the cost model: the median kv-read get and "
                  "TPC-C transaction cost the same simulated ns on most "
                  "seeds",
    "recovery_host_s": "a few ms of allocation and file reads that the probe "
                       "clock does not correct; its seed-to-seed spread "
                       "(0.10-0.20) is too near the largest bound (0.25)",
    "store.host_self_us_per_op": _IDLE_LAYER,
    "pjo.commit_sim_us_per_tx": _IDLE_LAYER,
    "pjo.commit_host_us_per_tx": _IDLE_LAYER,
    "pjo.host_self_us_per_tx": _IDLE_LAYER,
    "h2.backend_host_self_us_per_tx": _IDLE_LAYER,
    "tpcc.host_self_us_per_tx": _IDLE_LAYER,
    **{f"core.gc_{m}": "kv-gc only, which is not a listed workload while "
                       "every collection fails (defect (a))"
       for m in ("pause_sim_ms", "host_ms", "moved_objects", "flushes",
                 "mark_sim_ms", "summary_sim_ms", "compact_sim_ms",
                 "fix_external_sim_ms")},
    **{f"sim.{c}_ns_per_op": _IDLE_LAYER
       for c in SIM_CATEGORIES if c != "other"},
}


def reported(metrics):
    """The (name, unit) pairs of *metrics* that go in the result line."""
    return [(name, unit) for name, unit in metrics
            if name not in PRINTED_ONLY]


#: Crashed restarts timed at each restart point before the verify: a
#: recovery takes a few ms, so the median needs many samples.
RECOVERY_REPS = 5


class Meter:
    """Simulated counters summed over the ops alone (not set-up, checks,
    restarts or verification): device stats, the clock's category
    breakdown and, in a traced pass, Observatory counters and spans."""

    def __init__(self, clock, obs) -> None:
        self.clock = clock
        self.obs = obs if obs is not None and obs.enabled else None
        self.device: Counter = Counter()
        self.sim: Counter = Counter()
        self.counters: Counter = Counter()
        self.span_ns: Counter = Counter()

    def start(self, device) -> None:
        self._device = device
        self._stats = device.stats.snapshot()
        self._breakdown = self.clock.breakdown()
        if self.obs is not None:
            self._phase = self.obs.phase_snapshot()

    def stop(self) -> None:
        self.device.update(self._device.stats.delta(self._stats).as_dict())
        self.sim.update(self.clock.breakdown_since(self._breakdown))
        if self.obs is not None:
            phase = self.obs.phase_since(self._phase)
            self.counters.update(phase["counters"])
            for name, row in phase["spans"].items():
                self.span_ns[name] += row["total_ns"]


def run_pass(name: str, seed: int, seconds: float, workdir: Path,
             recorder=None, sizes=None) -> Dict:
    """Run the workload's rounds, each on a freshly set-up heap and ending
    in a crashed restart and verify.  Returns the raw measurements."""
    from repro.errors import HeapCorruptionError
    from repro.nvm.clock import Clock
    from repro.obs import Observatory
    from perfbench import workloads
    from perfbench.hostclock import ProbeClock
    from perfbench.trace import OP_SPAN

    wl = workloads.make(name, seed, seconds, sizes)
    sizes = wl.sizes
    host = ProbeClock()
    if recorder is not None:
        recorder.host_clock = host
    per_round = len(wl.ops) // sizes.rounds
    op_nid = recorder.intern(OP_SPAN) if recorder is not None else None
    setup_s: List[float] = []
    sim_lat: List[float] = []
    host_ns: List[float] = []
    raw_ns: List[int] = []
    errors: Counter = Counter()
    failed = wrong = executed = lost = 0
    corrupted = False
    recoveries = []
    space_amp: List[float] = []
    meter = None

    def crash_restart() -> None:
        """RECOVERY_REPS crashed restarts back to back (each one timed),
        then a check of every acknowledged write."""
        nonlocal lost, wrong
        for _ in range(RECOVERY_REPS):
            wl.crash()
            gc.collect()
            sim0 = clock.now_ns
            scaled_ns, raw_ns = host.timed(wl.recover)
            recoveries.append((clock.now_ns - sim0, scaled_ns / 1e9,
                               raw_ns / 1e9))
        try:
            lost += wl.verify()
        except AssertionError as exc:
            print(f"# {name}: {exc}", file=sys.stderr)
            wrong += 1

    for rnd in range(sizes.rounds):
        clock = Clock()
        obs = Observatory() if recorder is not None else None
        if recorder is not None:
            recorder.clock = clock
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        setup_s.append(host.timed(wl.setup, workdir, clock, obs)[0] / 1e9)
        if meter is None:
            meter = Meter(clock, obs)
        else:
            meter.clock, meter.obs = clock, obs
        for local in range(per_round):
            index = rnd * per_round + local
            op = wl.ops[index]
            if local and sizes.crash_every and local % sizes.crash_every == 0:
                crash_restart()
            exc: Optional[BaseException] = None
            host.maybe_refresh()
            meter.start(wl.heap().device)
            if recorder is not None:
                recorder.op_id = index
                span = recorder.open(op_nid)
            sim0 = clock.now_ns
            t0 = perf_counter_ns()
            try:
                result = wl.apply(op)
            except Exception as error:  # a raised exception is a failed op
                exc = error
            t1 = perf_counter_ns()
            sim1 = clock.now_ns
            if recorder is not None:
                recorder.close(span)
                recorder.op_id = -1
            meter.stop()
            executed += 1
            raw_ns.append(t1 - t0)
            host_ns.append(host.scale(t1 - t0))
            if exc is None:
                try:
                    if not wl.check(op, result):
                        wrong += 1
                        print(f"# {name}: op {index} {op!r} returned "
                              f"{result!r}", file=sys.stderr)
                except Exception as error:
                    exc = error
            if exc is None:
                sim_lat.append(sim1 - sim0)
                continue
            failed += 1
            errors[type(exc).__name__] += 1
            sim_lat.append(math.inf)
            wl.fail(op)
            if isinstance(exc, HeapCorruptionError):
                corrupted = True
                break
        # A corrupted heap is not restarted or verified: the run's
        # remaining ops count as failed, and its contents are known bad.
        if corrupted:
            break
        # Each round ends with its invariants checked on both sides of a
        # crashed restart and a verify of every acknowledged write.
        space_amp.append(wl.space_amp())
        for when in ("before", "after"):
            if when == "after":
                crash_restart()
            if not wl.invariants_hold():
                print(f"# {name}: invariants violated {when} the "
                      f"end-of-round restart", file=sys.stderr)
                wrong += 1

    skipped = len(wl.ops) - executed
    failed += skipped
    sim_lat.extend([math.inf] * skipped)
    return {
        "workload": wl, "attempted": len(wl.ops), "executed": executed,
        "failed": failed, "wrong": wrong, "lost": lost, "errors": errors,
        "sim_lat": sim_lat, "host_ns": host_ns, "raw_ns": raw_ns,
        "probes": host.probes, "setup_s": setup_s,
        "rounds": sizes.rounds, "recoveries": recoveries,
        "space_amp": space_amp, "meter": meter,
    }


def rate_window(per_round: int) -> int:
    """Ops per host-rate window: about a tenth of a round, in whole mix
    blocks, so the same window of every round holds the same op mix."""
    from perfbench.workloads import BLOCK
    return (BLOCK * max(1, per_round // (10 * BLOCK)) if per_round >= BLOCK
            else max(1, per_round // 10))


def host_rate(raw: Dict, key: str = "host_ns") -> float:
    """Completed ops per host second, from the per-op times in *key*."""
    from perfbench import stats

    completed = raw["attempted"] - raw["failed"]
    if completed == raw["attempted"]:
        per_round = completed // raw["rounds"]
        return stats.windowed_rate(raw[key], raw["rounds"],
                                   rate_window(per_round))
    # Failed ops break the rounds' shared shape: fall back to the mean.
    return completed / (sum(raw[key]) / 1e9) if completed else 0.0


def end_to_end(raw: Dict) -> Dict[str, Optional[float]]:
    from perfbench import stats

    attempted, executed = raw["attempted"], raw["executed"]
    completed = attempted - raw["failed"]
    ok_sim = [v for v in raw["sim_lat"] if v != math.inf]
    tail = stats.highest_supported_percentile(attempted)

    def pct(p):
        value = stats.nearest_rank(raw["sim_lat"], p) / 1e3
        return None if value == math.inf else value

    recoveries = raw["recoveries"]
    device = raw["meter"].device
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "host_ops_per_s": host_rate(raw),
        "sim_ops_per_ms": (completed / (sum(ok_sim) / 1e6)
                           if completed else 0.0),
        "sim_p50_us": pct(50),
        "sim_p99_us": pct(99) if tail == 99 else None,
        "flushes_per_op": stats.per_op(device["flushes"], executed),
        "fences_per_op": stats.per_op(device["fences"], executed),
        "failed_frac": raw["failed"] / attempted,
        "acked_lost": raw["lost"],
        "recovery_sim_ms": (statistics.mean(r[0] for r in recoveries) / 1e6
                            if recoveries else None),
        "recovery_host_s": (statistics.median(r[1] for r in recoveries)
                            if recoveries else None),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "space_amp": (statistics.mean(raw["space_amp"])
                      if raw["space_amp"] else None),
    }


def per_layer(plain: Dict, traced: Dict, recorder) -> Dict[str, float]:
    from perfbench import stats
    from perfbench.trace import layer_of

    ops = traced["executed"]
    meter = traced["meter"]
    spans = recorder.by_name()
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    for span_name, row in spans.items():
        layer_self[layer_of(span_name)] += row["host_self_ns"]
        layer_calls[layer_of(span_name)] += row["calls"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def self_us(layer):
        return stats.per_op(layer_self[layer], ops) / 1e3

    load = recorder.by_name(inside_ops=False).get(
        "core:HeapManager.load_heap", {"calls": 0})
    loads = load["calls"]
    collect = "core:PersistentHeap.collect"
    device = meter.device
    out = {
        "nvm.reads_per_op": stats.per_op(device["reads"], ops),
        "nvm.writes_per_op": stats.per_op(device["writes"], ops),
        "nvm.flushes_deduped_per_op": stats.per_op(
            device["flushes_deduped"], ops),
        "nvm.epochs_per_op": stats.per_op(device["epochs"], ops),
        "nvm.flushes_elided_per_op": stats.per_op(
            device["flushes_elided"], ops),
        "nvm.calls_per_op": stats.per_op(layer_calls["nvm"], ops),
        "nvm.host_self_us_per_op": self_us("nvm"),
        "runtime.object_ops_per_op": stats.per_op(layer_calls["runtime"],
                                                  ops),
        "runtime.host_self_us_per_op": self_us("runtime"),
        "core.allocs_per_op": stats.per_op(
            meter.counters["pjh.alloc.objects"], ops),
        "core.buffer_refills_per_op": stats.per_op(
            meter.counters["pjh.alloc.buffer_refills"], ops),
        "core.host_self_us_per_op": self_us("core"),
        "core.load_sim_ms": (load["sim_total_ns"] / loads / 1e6
                             if loads else 0.0),
        "core.load_host_ms": (load["host_total_ns"] / loads / 1e6
                              if loads else 0.0),
        "core.gc_pause_sim_ms": stats.per_op(span(collect, "sim_total_ns"),
                                             ops) / 1e6,
        "core.gc_host_ms": stats.per_op(span(collect, "host_total_ns"),
                                        ops) / 1e6,
        "core.gc_moved_objects": stats.per_op(
            meter.counters["gc.moved_objects"], ops),
        "core.gc_flushes": stats.per_op(
            getattr(traced["workload"], "gc_flushes", 0), ops),
        "pjhlib.tx_per_op": stats.per_op(
            meter.counters["pjhlib.tx.begins"], ops),
        "pjhlib.undo_slots_per_op": stats.per_op(
            span("pjhlib:PjhTransaction.log_slot", "calls"), ops),
        "pjhlib.host_self_us_per_op": self_us("pjhlib"),
        "store.host_self_us_per_op": self_us("store"),
        "pjo.commit_sim_us_per_tx": stats.per_op(
            span("pjo:EntityTransaction.commit", "sim_total_ns"), ops) / 1e3,
        "pjo.commit_host_us_per_tx": stats.per_op(
            span("pjo:EntityTransaction.commit", "host_total_ns"), ops) / 1e3,
        "pjo.rows_scanned_per_tx": stats.per_op(recorder.rows_scanned, ops),
        "pjo.host_self_us_per_tx": self_us("pjo"),
        "h2.backend_host_self_us_per_tx": self_us("h2"),
        "tpcc.host_self_us_per_tx": self_us("tpcc"),
        "bench.host_self_us_per_op": self_us("bench"),
        "trace.host_overhead_frac": (sum(traced["host_ns"])
                                     / sum(plain["host_ns"]) - 1.0),
    }
    for phase in ("mark", "summary", "compact", "fix_external"):
        out[f"core.gc_{phase}_sim_ms"] = stats.per_op(
            meter.span_ns[f"gc.{phase}"], ops) / 1e6
    for category in SIM_CATEGORIES:
        out[f"sim.{category}_ns_per_op"] = stats.per_op(
            meter.sim[category], ops)
    return out


def invariance_diff(plain: Dict, traced: Dict) -> List[str]:
    """Simulated results and counts that differ between the passes."""
    def facts(raw: Dict) -> Dict:
        found = {key: raw[key] for key in (
            "sim_lat", "attempted", "executed", "failed", "lost",
            "space_amp")}
        found["recovery_sim"] = [r[0] for r in raw["recoveries"]]
        found["device"] = raw["meter"].device
        found["clock_breakdown"] = raw["meter"].sim
        return found

    a, b = facts(plain), facts(traced)
    return [key for key in a if a[key] != b[key]]


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    from perfbench import stats
    from perfbench.hostclock import ProbeClock
    from perfbench.trace import SpanRecorder, instrument

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        from perfbench.workloads import SIZES
        sizes = SIZES[args.workload]
        if not args.trace:
            raw = run_pass(args.workload, args.seed, args.seconds,
                           workdir / "run")
            metrics = end_to_end(raw)
            shown = END_TO_END
            diffs: List[str] = []
        else:
            plain = run_pass(args.workload, args.seed, args.seconds,
                             workdir / "plain")
            recorder = SpanRecorder(sample_every=max(
                1, sizes.op_count(args.seconds) // 200))
            with instrument(recorder):
                raw = run_pass(args.workload, args.seed, args.seconds,
                               workdir / "traced", recorder=recorder)
            diffs = invariance_diff(plain, raw)
            metrics = per_layer(plain, raw, recorder)
            shown = PER_LAYER
            out_dir = ROOT / ".perfbench_out"
            recorder.save(out_dir / f"spans-{args.workload}.npz")
            (out_dir / f"layers-{args.workload}.json").write_text(
                json.dumps(metrics, indent=1, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, executed = raw["attempted"], raw["executed"]
    tail = stats.highest_supported_percentile(attempted)
    print(f"# workload {args.workload}: seed {args.seed}, "
          f"{attempted} ops attempted, {executed} executed, "
          f"{raw['failed']} failed, closed loop, 1 client")
    print(f"# latency sample: {attempted} ops; highest supported "
          f"percentile p{tail}")
    probes = raw["probes"]
    print(f"# host clock: {len(probes)} probes, median "
          f"{statistics.median(probes) / 1e3:.0f} us against "
          f"{ProbeClock.NOMINAL_NS / 1e3:.0f} us nominal; unscaled "
          f"host_ops_per_s {_fmt(host_rate(raw, 'raw_ns'))} 1/s")
    if raw["recoveries"]:
        unscaled = statistics.median(r[2] for r in raw["recoveries"])
        print(f"# {len(raw['recoveries'])} crashed restarts; unscaled "
              f"recovery_host_s {unscaled:.6g} s")
    if raw["errors"]:
        print(f"# exceptions: {dict(sorted(raw['errors'].items()))}")
    if args.trace:
        print(f"# trace: {recorder.spans} spans; simulated results "
              f"{'identical to' if not diffs else 'DIFFER from'} the "
              f"untraced pass{': ' + ', '.join(diffs) if diffs else ''}")
    elif tail is not None and tail < 99:
        value = stats.nearest_rank(raw["sim_lat"], tail) / 1e3
        print(f"sim_p{tail}_us {_fmt(None if value == math.inf else value)}"
              f" us")
    for metric, unit in shown:
        note = "  (not in the result line)" if metric in PRINTED_ONLY else ""
        print(f"{metric} {_fmt(metrics[metric])} {unit}{note}")

    correct = raw["wrong"] == 0 and raw["lost"] == 0 and not diffs
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported(shown)},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes reach the heap (String.hash words) and the
        # interpreter's dict layouts; pin them so that runs repeat.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve()),
                  *(sys.argv[1:] if argv is None else argv)])
    if args.workload == "all":
        return run_all(args)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
