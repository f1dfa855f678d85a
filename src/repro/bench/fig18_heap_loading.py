"""Figure 18: heap loading time, user-guaranteed vs zeroing safety.

Paper §6.4: heaps holding 0.2-2 million objects of 20 different Klasses.
"The heap loading time for user-guaranteed safety remains constant when the
number of objects increases, as the heap loading is dominated by the number
of Klasses instead of objects.  In contrast, the loading time grows
linearly with the number of objects with zeroing safety."

We sweep object counts (scaled down 10x by default — simulated time is
deterministic, so the flat-vs-linear shape needs no averaging) and measure
``load_heap`` time under both safety levels.  A third series repeats the
zeroing load with an 8-worker gang (``gc_workers=8``): the scan
partitions the object walk over simulated workers, flattening the linear
curve without changing the loaded image.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.api import Espresso, EspressoConfig
from repro.core.safety import SafetyLevel
from repro.runtime.klass import FieldKind, field as kfield

from repro.bench.harness import format_table, write_bench_json

KLASS_COUNT = 20  # "20 different Klasses", as in the paper


@dataclass
class Fig18Result:
    # object count -> {"UG": ms, "Zero": ms}
    series: Dict[int, Dict[str, float]] = field(default_factory=dict)


def _define_klasses(jvm) -> List:
    return [
        jvm.define_class(f"Fig18Type{k}",
                         [kfield("a", FieldKind.INT),
                          kfield("b", FieldKind.INT),
                          kfield("ref", FieldKind.REF)])
        for k in range(KLASS_COUNT)
    ]


def _build_heap(heap_dir: Path, object_count: int) -> None:
    jvm = Espresso(heap_dir)
    klasses = _define_klasses(jvm)
    # Size generously: ~5 words per object + slack.
    jvm.create_heap("fig18", max(1 << 20, object_count * 8 * 10))
    anchor = jvm.pnew_array(jvm.vm.object_klass, object_count)
    jvm.set_root("anchor", anchor)
    for i in range(object_count):
        obj = jvm.pnew(klasses[i % KLASS_COUNT])
        jvm.array_set(anchor, i, obj)
        obj.close()
    jvm.shutdown()


ZERO_WORKERS = 8  # gang size for the parallel-zeroing series


def _load_time_ms(heap_dir: Path, safety: SafetyLevel,
                  workers: int = 1) -> float:
    jvm = Espresso(heap_dir, config=EspressoConfig(gc_workers=workers))
    _define_klasses(jvm)
    _heap, report = jvm.heaps.load_heap_with_report("fig18", safety)
    return report.load_ns / 1e6


def run(object_counts: List[int] | None = None,
        heap_dir: Path | None = None) -> Fig18Result:
    if object_counts is None:
        # The paper's 0.2M..2M scaled down 10x.
        object_counts = [20_000, 50_000, 100_000, 150_000, 200_000]
    root = heap_dir if heap_dir is not None else Path(tempfile.mkdtemp())
    result = Fig18Result()
    for count in object_counts:
        build_dir = root / f"n{count}"
        _build_heap(build_dir, count)
        # Each load runs in its own fresh "JVM process".
        result.series[count] = {
            "UG": _load_time_ms(build_dir, SafetyLevel.USER_GUARANTEED),
            "Zero": _load_time_ms(build_dir, SafetyLevel.ZEROING),
            "ZeroW8": _load_time_ms(build_dir, SafetyLevel.ZEROING,
                                    workers=ZERO_WORKERS),
        }
    return result


def main(object_counts: List[int] | None = None) -> Fig18Result:
    result = run(object_counts)
    rows = [(f"{count:,}", f"{times['UG']:.3f}", f"{times['Zero']:.3f}",
             f"{times['ZeroW8']:.3f}")
            for count, times in sorted(result.series.items())]
    print(format_table(
        ["Objects", "UG load (ms)", "Zeroing load (ms)",
         f"Zeroing x{ZERO_WORKERS} workers (ms)"],
        rows,
        title=("Figure 18 — heap loading time (paper: UG flat in object "
               "count, zeroing linear; counts scaled 10x down)")))
    path = write_bench_json("fig18", {
        "klass_count": KLASS_COUNT,
        "zero_workers": ZERO_WORKERS,
        "series": {str(count): times
                   for count, times in sorted(result.series.items())},
    }, params={"klass_count": KLASS_COUNT, "zero_workers": ZERO_WORKERS})
    print(f"wrote {path}")
    return result


if __name__ == "__main__":
    main()
