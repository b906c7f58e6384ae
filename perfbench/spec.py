"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the names the runner
prints and the names the file declares cannot drift apart.
"""

from __future__ import annotations

import json

from harness import valid_name, valid_unit

#: Trace scale for every workload (the sweep's ``--factor``).
FACTOR = 0.05

#: Paper experiments the ``sweep`` workload runs: all twelve take 45 s on
#: a 2-core VM.  The four longest (``fig4`` 6 s, ``fig5`` 7 s, ``fig7``
#: 8 s, ``fig9`` 16 s) are left out so that a run holds several passes.
SWEEP_EXPERIMENTS = (
    "fig1", "table2", "table3_4", "fig6",
    "table5", "fig8", "hit_rates", "table6",
)

#: Traces the ``explore`` workload searches the Figure 8 space on.
EXPLORE_TRACES = ("espresso", "li")
#: Traces the ``serve`` query stream draws from.
SERVE_TRACES = ("espresso", "li", "eqntott", "sc")
#: Open-loop offered rate of the ``serve`` workload, and its share of
#: queries that repeat an earlier one.  At 6 qps the arrival gap
#: (167 ms) stays above the slowest traces' service time (about 120 ms)
#: even when neighbours slow the host by a third, so a slow spell does
#: not cascade into a queue.
SERVE_QPS = 6.0
SERVE_REPEAT_SHARE = 0.25
SERVE_CONNECTIONS = 2

RUN_SECONDS = 35

WORKLOADS = (
    ("sweep", "8 paper experiments, each via run_resilient, jobs 1: runner "
     "envelope, checkpoints and narrow config batches, so per-call costs "
     "(validation, trace memo) weigh; no server"),
    ("explore", "guided Pareto search of the 58-config fig8 space on "
     "espresso and li: the only user of explore.model and search; batches "
     "1-12 wide; li exhausts the 50% budget; no runner or server"),
    ("serve", "aurora-sim serve driven open loop at 6 qps over 2 "
     "connections, 25% repeats over 4 traces: protocol, batcher and memo "
     "store; width-1 kernel calls; bypasses runner and explorer"),
)

#: (name, unit, better, bound).  Every workload reports every one.
#: On the shared 2-core VM this was tuned on, neighbours swing host speed
#: by up to a third for seconds to minutes; batch times are therefore
#: normalized to a fixed host speed (``harness.HostSpeed``), and the time
#: bounds are the 0.25 maximum.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
    ("sim_instr_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("configs_simulated", "count", "lower", 0.05),
)

_EXPERIMENT_LAYER = tuple(
    (f"experiments.{exp_id}.s", "s", "lower") for exp_id in SWEEP_EXPERIMENTS
)

#: (name, unit, better).  Traced runs report every one on every
#: workload; a layer a workload does not run reads 0.
PER_LAYER = (
    ("core.simulate_many.calls", "count", "lower"),
    ("core.simulate_many.s", "s", "lower"),
    ("core.simulate_many.configs", "count", "lower"),
    ("core.batch_width.p50", "count", "higher"),
    ("core.batch_width.max", "count", "higher"),
    ("core.ns_per_record_config", "ns", "lower"),
    ("core.sim_instr_per_s", "1/s", "higher"),
    ("workloads.get_trace.calls", "count", "lower"),
    ("workloads.get_trace.s", "s", "lower"),
    ("workloads.memo_hit_ratio", "ratio", "higher"),
    ("workloads.disk_hit_ratio", "ratio", "higher"),
    ("func.trace_build.s", "s", "lower"),
    ("func.prepare_trace.s", "s", "lower"),
    ("robustness.validate_trace.calls", "count", "lower"),
    ("robustness.validate_trace.s", "s", "lower"),
    ("robustness.runner.overhead_s", "s", "lower"),
    ("robustness.checkpoint.s", "s", "lower"),
    *_EXPERIMENT_LAYER,
    ("experiments.self_s", "s", "lower"),
    ("explore.calibrate.s", "s", "lower"),
    ("explore.calibrate.sims", "count", "lower"),
    ("explore.rounds", "count", "lower"),
    ("explore.band_sims", "count", "lower"),
    ("explore.predict.s", "s", "lower"),
    ("explore.model_mean_rel_error", "ratio", "lower"),
    ("explore.frontier_recall", "ratio", "higher"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("serve.batch_width.mean", "count", "higher"),
    ("serve.dispatches", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.hit_p50_ms", "ms", "lower"),
    ("serve.miss_p50_ms", "ms", "lower"),
    ("serve.generator_late_p95_ms", "ms", "lower"),
    ("telemetry.trace_overhead_frac", "ratio", "lower"),
    ("telemetry.unattributed_frac", "ratio", "lower"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def problems() -> list[str]:
    """Every way the declared names break the benchmark file's rules."""
    found = []
    names = [n for n, _ in WORKLOADS]
    names += [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
    units = [u for _, u, *_ in END_TO_END] + [u for _, u, _ in PER_LAYER]
    found += [f"bad name {n!r}" for n in names if not valid_name(n)]
    found += [f"bad unit {u!r}" for u in units if not valid_unit(u)]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            found.append(f"duplicate name {name!r}")
        seen.add(name)
    for name, why in WORKLOADS:
        if len(why) > 200 or "\n" in why:
            found.append(f"workload {name!r}: why must be one line <= 200")
    for name, _, better, bound in END_TO_END:
        if not 0 < bound <= 0.25:
            found.append(f"{name}: bound {bound} outside (0, 0.25]")
    for name, _, better, *_ in (*END_TO_END, *PER_LAYER):
        if better not in ("lower", "higher"):
            found.append(f"{name}: better must be lower or higher")
    setup = [m for m in END_TO_END if m[0] == "setup_s"]
    if setup != [("setup_s", "s", "lower", max(m[3] for m in END_TO_END))]:
        found.append("setup_s must be in s, lower, with the largest bound")
    if len(json.dumps(benchmark_json())) > 64 * 1024:
        found.append("BENCHMARK.json over 64 KiB")
    return found
