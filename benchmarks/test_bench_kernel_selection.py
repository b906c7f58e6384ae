"""Kernel selection: the batch width at which batched beats scalar.

:func:`repro.core.kernel.simulate_many` runs the batched kernel for
batches of at least ``BATCH_MIN_WIDTH`` configs and the scalar kernel
below that.  This bench times both kernels on the first *w* configs of
a 58-config Figure 8 grid (the catalogue plus a +4-cycle-latency
variant of every point) at each width in ``WIDTHS``, on espresso and
doduc at factor 0.05, and runs the same batch once more without naming
a kernel.  At every width it asserts byte-identical stats across the
three runs and prints the batched/scalar speedup table that sets
``BATCH_MIN_WIDTH``.

Gates:

* the pick, read from ``batch_snapshot`` deltas around the call that
  names no kernel (no timing): batched from ``BATCH_MIN_WIDTH`` up,
  scalar below;
* at widths 8 and 58 the picked kernel's best wall time is within
  ``GATE_SLACK`` of the faster kernel's.

The 58-wide speedup is printed and stored in the benchmark's
``extra_info`` (``--benchmark-json``); it is not gated.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel_selection.py \\
        --benchmark-only -s -q
"""

from __future__ import annotations

import math
import time

from repro.core.kernel import BATCH_MIN_WIDTH, batch_snapshot, simulate_many
from repro.experiments.fig8_design_space import design_points

#: One integer and one FP workload: the two suites stress different
#: escape paths of the batched kernel (D-side memory vs FP dispatch).
WORKLOADS = ("espresso", "doduc")
FACTOR = 0.05
#: Batch widths timed; they bracket every width the sweep, explorer and
#: server issue (1-12, fig8's 29, ``explore --validate``'s 58).
WIDTHS = (1, 8, 16, 24, 29, 32, 58)
#: Widths at which the pick must be (nearly) the faster kernel: one
#: clearly on each side of the threshold.
GATE_WIDTHS = (8, 58)
#: Allowed excess of the pick's wall time over the faster kernel's.
GATE_SLACK = 0.10
#: Timed runs per (workload, width, kernel); the best one counts.
REPEATS = 3
KERNELS = ("scalar", "batched")


def _grid():
    """The Figure 8 catalogue plus a slower-memory variant of each point."""
    catalogue = [config for _, config, _ in design_points()]
    return catalogue + [
        config.with_latency(config.mem_latency + 4) for config in catalogue
    ]


def _measure(trace, configs) -> tuple[dict[str, float], str]:
    """Best wall seconds per kernel, and the kernel the system picks.

    Raises AssertionError unless all three runs yield identical stats.
    """
    best = dict.fromkeys(KERNELS, math.inf)
    stats = {}
    for _ in range(REPEATS):
        for kernel in KERNELS:
            started = time.perf_counter()
            results = simulate_many(trace, configs, kernel=kernel)
            best[kernel] = min(best[kernel], time.perf_counter() - started)
            stats[kernel] = [r.stats for r in results]
    before = batch_snapshot()
    picked = [r.stats for r in simulate_many(trace, configs)]
    pick = "scalar" if batch_snapshot() == before else "batched"
    assert stats["batched"] == stats["scalar"] == picked
    return best, pick


def _measure_all() -> dict[tuple[str, int], tuple[dict[str, float], str]]:
    from repro.experiments.common import scaled_trace

    grid = _grid()
    assert len(grid) == max(WIDTHS)
    return {
        (workload, width): _measure(scaled_trace(workload, FACTOR), grid[:width])
        for workload in WORKLOADS
        for width in WIDTHS
    }


def _speedup(times: dict[str, float]) -> float:
    return times["scalar"] / times["batched"]


def _render(rows) -> str:
    header = "| Width | " + " | ".join(str(w) for w in WIDTHS) + " |"
    lines = [
        f"batched/scalar speedup, factor {FACTOR:g}, best of {REPEATS}:",
        header,
        "|---" * (len(WIDTHS) + 1) + "|",
    ]
    for workload in WORKLOADS:
        cells = " | ".join(
            f"{_speedup(rows[workload, w][0]):.2f}x" for w in WIDTHS
        )
        lines.append(f"| {workload} | {cells} |")
    winning = [
        w
        for w in WIDTHS
        if all(_speedup(rows[name, w][0]) > 1.0 for name in WORKLOADS)
    ]
    crossover = winning[0] if winning else None
    lines.append(
        f"smallest width where batched wins on both: {crossover}; "
        f"BATCH_MIN_WIDTH = {BATCH_MIN_WIDTH}"
    )
    return "\n".join(lines)


def test_kernel_selection(benchmark):
    rows = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    print()
    print(_render(rows))
    for workload in WORKLOADS:
        ratio = _speedup(rows[workload, max(WIDTHS)][0])
        benchmark.extra_info[f"{workload}_speedup_{max(WIDTHS)}"] = ratio
        print(f"{workload} x {max(WIDTHS)} configs: batched {ratio:.2f}x scalar")

    for (workload, width), (_, pick) in rows.items():
        expected = "batched" if width >= BATCH_MIN_WIDTH else "scalar"
        assert pick == expected, (workload, width, pick)

    for workload in WORKLOADS:
        for width in GATE_WIDTHS:
            times, pick = rows[workload, width]
            fastest = min(times.values())
            assert times[pick] <= fastest * (1 + GATE_SLACK), (
                f"{workload} at width {width}: the {pick} pick took "
                f"{times[pick]:.3f}s, the faster kernel {fastest:.3f}s"
            )
