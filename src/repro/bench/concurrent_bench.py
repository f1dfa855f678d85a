"""Mutator-gang scaling benchmark: KV throughput vs gang width.

A fixed budget of contended KV operations (puts/removes/gets over a
small shared key space of the lock-free durable map) is split evenly
across gangs of 1/2/4/8 mutators sharing one simulated clock.  Because
:meth:`MutatorGang.run` commits the *max* over per-mutator charge
meters — the mutators are parallel in simulated time — wall time should
shrink (and throughput grow) with the gang width, bounded by CAS-retry
work the contention induces: the paper's "more non-volatility" story
only pays off if the durable structures scale with the mutators
hammering them.

The ≥3x acceptance line mirrors the fleet bench: an 8-mutator gang must
clear 3x the single-mutator throughput on the identical op budget.

Emits ``BENCH_concurrent.json`` through the shared bench envelope.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from repro.bench.harness import format_table, write_bench_json

GANG_WIDTHS = (1, 2, 4, 8)
TOTAL_OPS = 96
KEY_SPACE = 6
SEED = 11


@dataclass
class GangRow:
    mutators: int
    ops: int
    steps: int
    elapsed_ms: float
    throughput_ops_per_ms: float
    busy_ns: List[int]
    speedup: float  # vs the narrowest gang in the run


@dataclass
class ConcurrentBenchResult:
    rows: List[GangRow]
    total_ops: int
    key_space: int

    @property
    def max_speedup(self) -> float:
        return self.rows[-1].speedup


def run_scaling(base_dir, widths: Sequence[int] = GANG_WIDTHS,
                total_ops: int = TOTAL_OPS,
                key_space: int = KEY_SPACE,
                seed: int = SEED) -> List[GangRow]:
    """One fresh session per gang width, identical total op budget."""
    from repro.api import Espresso, EspressoConfig
    from repro.workloads.concurrent_kv import ConcurrentKvWorkload

    base_dir = Path(base_dir)
    rows: List[GangRow] = []
    baseline = None
    for width in widths:
        jvm = Espresso(base_dir / f"gang-{width}", config=EspressoConfig(
            mutators=width))
        jvm.create_heap("kv", 4 * 1024 * 1024)
        workload = ConcurrentKvWorkload(
            jvm, mutators=width, ops_per_mutator=total_ops // width,
            key_space=key_space, seed=seed, buckets=8)
        report = workload.run()
        elapsed_ms = report.committed_ns / 1e6
        throughput = len(workload.ops) / elapsed_ms
        if baseline is None:
            baseline = throughput
        rows.append(GangRow(
            mutators=width,
            ops=len(workload.ops),
            steps=report.steps,
            elapsed_ms=elapsed_ms,
            throughput_ops_per_ms=throughput,
            busy_ns=list(report.busy_ns),
            speedup=throughput / baseline,
        ))
    return rows


def run(base_dir, widths: Sequence[int] = GANG_WIDTHS,
        total_ops: int = TOTAL_OPS,
        key_space: int = KEY_SPACE) -> ConcurrentBenchResult:
    rows = run_scaling(base_dir, widths, total_ops, key_space)
    return ConcurrentBenchResult(rows=rows, total_ops=total_ops,
                                 key_space=key_space)


def emit(result: ConcurrentBenchResult, out_dir=None) -> str:
    """Write ``BENCH_concurrent.json`` via the envelope; returns path."""
    return write_bench_json("concurrent", {
        "scaling": [{
            "mutators": row.mutators,
            "ops": row.ops,
            "steps": row.steps,
            "elapsed_ms": row.elapsed_ms,
            "throughput_ops_per_ms": row.throughput_ops_per_ms,
            "busy_ns": row.busy_ns,
            "speedup": row.speedup,
        } for row in result.rows],
        "max_speedup": result.max_speedup,
        "scaling_target_met": result.max_speedup >= 3.0,
    }, out_dir=out_dir, params={
        "gang_widths": [row.mutators for row in result.rows],
        "total_ops": result.total_ops,
        "key_space": result.key_space,
    })


def main() -> ConcurrentBenchResult:
    with tempfile.TemporaryDirectory() as tmp:
        result = run(tmp)
    print(format_table(
        ["Mutators", "Ops", "Steps", "Elapsed (ms)", "ops/ms", "Speedup"],
        [(row.mutators, row.ops, row.steps, f"{row.elapsed_ms:.4f}",
          f"{row.throughput_ops_per_ms:.1f}", f"{row.speedup:.2f}x")
         for row in result.rows],
        title=(f"§16 — contended KV throughput vs gang width "
               f"({result.total_ops} ops over {result.key_space} keys; "
               f"target: 8-mutator ≥ 3x 1-mutator)")))
    path = emit(result)
    print(f"wrote {path}")
    return result


if __name__ == "__main__":
    main()
