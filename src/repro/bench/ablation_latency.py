"""Ablation: sensitivity of the headline results to NVM media latency.

The paper's machine had one NVDIMM; emerging media span a wide latency
range.  This harness re-runs a Figure 15 slice (Tuple create/set/get) and a
Figure 16 slice (BasicTest update) with every NVM latency scaled by 1x, 2x
and 4x, showing that the *direction* of every headline claim is insensitive
to the media constant.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from repro.api import Espresso, EspressoConfig
from repro.jpab import BASIC_TEST, run_jpab_test
from repro.nvm.clock import Clock
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.pcj import MemoryPool, PersistentLong, PersistentTuple
from repro.pjhlib import PjhLong, PjhTransaction, PjhTuple

from repro.bench.harness import format_table

SCALES = [1.0, 2.0, 4.0]


@dataclass
class LatencyAblationResult:
    # scale -> {"tuple_set": speedup, "tuple_get": ..., "jpab_update": ...}
    by_scale: Dict[float, Dict[str, float]]

    def all_directions_hold(self) -> bool:
        return all(speedup > 1.0
                   for cells in self.by_scale.values()
                   for speedup in cells.values())


def _tuple_speedups(latency: LatencyConfig, count: int,
                    heap_dir: Path) -> Dict[str, float]:
    pcj_clock = Clock()
    pool = MemoryPool(1 << 21, clock=pcj_clock, latency=latency,
                      tx_log_words=1 << 14)
    tuples = [PersistentTuple(pool, 3) for _ in range(count)]
    values = [PersistentLong(pool, i) for i in range(16)]
    t0 = pcj_clock.now_ns
    for i in range(count):
        tuples[i].set(i % 3, values[i % 16])
    pcj_set = (pcj_clock.now_ns - t0) / count
    t0 = pcj_clock.now_ns
    for i in range(count):
        tuples[i].get(i % 3)
    pcj_get = (pcj_clock.now_ns - t0) / count

    jvm = Espresso(heap_dir, config=EspressoConfig(latency=latency))
    jvm.create_heap("t", 1 << 23)
    txn = PjhTransaction(jvm)
    ptuples = [PjhTuple(jvm, txn, 3) for _ in range(count)]
    pvalues = [PjhLong(jvm, txn, i) for i in range(16)]
    t0 = jvm.clock.now_ns
    for i in range(count):
        ptuples[i].set(i % 3, pvalues[i % 16])
    pjh_set = (jvm.clock.now_ns - t0) / count
    t0 = jvm.clock.now_ns
    for i in range(count):
        ptuples[i].get(i % 3)
    pjh_get = (jvm.clock.now_ns - t0) / count
    return {"tuple_set": pcj_set / pjh_set, "tuple_get": pcj_get / pjh_get}


def run(count: int = 800, heap_dir: Path | None = None
        ) -> LatencyAblationResult:
    root = heap_dir if heap_dir is not None else Path(tempfile.mkdtemp())
    by_scale: Dict[float, Dict[str, float]] = {}
    for scale in SCALES:
        latency = DEFAULT_LATENCY.scaled(scale)
        cells = _tuple_speedups(latency, count, root / f"tuple{scale}")
        # The stock factories use the default latency; rebuild with scaled:
        from repro.h2.engine import Database
        from repro.jpa.entity_manager import JpaEntityManager

        def jpa_factory(clock, _latency=latency):
            database = Database(size_words=1 << 21, clock=clock,
                                latency=_latency)
            em = JpaEntityManager(database)
            em.create_schema(BASIC_TEST.entities)
            return em

        def pjo_factory(clock, _latency=latency, _scale=scale):
            from repro.pjo.provider import PjoEntityManager
            jvm = Espresso(root / f"jpab{_scale}", config=EspressoConfig(
                clock=clock, latency=_latency))
            jvm.create_heap("jpab", 32 * 1024 * 1024)
            em = PjoEntityManager(jvm)
            em.create_schema(BASIC_TEST.entities)
            return em

        jpa = run_jpab_test(BASIC_TEST, jpa_factory, 25, "H2-JPA")
        pjo = run_jpab_test(BASIC_TEST, pjo_factory, 25, "H2-PJO")
        cells["jpab_update"] = (pjo.operations["Update"].throughput
                                / jpa.operations["Update"].throughput)
        by_scale[scale] = cells
    return LatencyAblationResult(by_scale=by_scale)


def main(count: int = 800) -> LatencyAblationResult:
    result = run(count)
    rows = [(f"{scale:.0f}x",
             f"{cells['tuple_set']:.1f}x",
             f"{cells['tuple_get']:.1f}x",
             f"{cells['jpab_update']:.2f}x")
            for scale, cells in sorted(result.by_scale.items())]
    print(format_table(
        ["NVM latency", "Tuple set (PJH/PCJ)", "Tuple get (PJH/PCJ)",
         "JPAB update (PJO/JPA)"],
        rows,
        title="Ablation — headline speedups under scaled NVM media latency"))
    return result


if __name__ == "__main__":
    main()
