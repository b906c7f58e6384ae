"""One workload in a fresh process: set-up, timed passes, checks.

    python perfbench/child.py WORKLOAD --seconds S --trace 0|1 --seed N
        --tmp DIR --out FILE --spawned-at EPOCH [--setup-only]

Started by ``run.py`` with the scrubbed environment and ``src/`` on
``PYTHONPATH``; writes one JSON document to ``--out``.  ``setup_s`` runs
from ``--spawned-at`` (the parent's clock just before it started this
process) to the first timed operation.

Untraced runs (``--trace 0``) time passes for ``--seconds`` and report
the end-to-end metrics.  Traced runs time untraced reference passes for
half of ``--seconds``, then one traced pass, and report the per-layer
metrics of set-up plus the traced pass.  ``serve`` instead drives one
untraced and one traced server with the same query stream.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import time

import harness
import probes
import workloads
from spec import PER_LAYER_UNITS, SERVE_QPS

#: Calibration loops right after set-up; their median normalizes
#: ``setup_s``.
SETUP_CALIBRATION_LOOPS = 10


def timed_passes(workload, budget: float, host: harness.HostSpeed) -> list:
    """Passes until the next one would overrun ``budget`` (at least one);
    the budget covers calibration too."""
    started = time.perf_counter()
    passes = [workload.run(False, host)]
    while True:
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > budget:
            return passes
        passes.append(workload.run(False, host))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def merged_tally(*tallies) -> list[int]:
    total = harness.Tally()
    for tally in tallies:
        total.merge(tally)
    return [total.attempted, total.failed]


def run_batch(args, tmp: pathlib.Path) -> dict:
    probe = probes.Probe(timed=args.trace)
    probe.install()
    from repro.telemetry import tracing

    tracer = tracing.SpanTracer() if args.trace else None
    start = probes.read_counters()
    workload = workloads.BATCH[args.workload](tmp, probe)
    with tracing.use_tracer(tracer):
        workload.setup()
    setup_s = time.time() - args.spawned_at
    host = harness.HostSpeed(loops=SETUP_CALIBRATION_LOOPS)
    if args.setup_only:
        return {"setup_s": setup_s * host.factor}
    setup_counters = probes.counter_delta(start, probes.read_counters())

    probe.phase = "untraced"
    passes = timed_passes(
        workload, args.seconds / 2 if args.trace else args.seconds, host
    )
    normalized = [p.normalized for p in passes]
    if not args.trace:
        # A pass is the user's one request.  A run holds too few passes
        # for any tail percentile to keep ten beyond it, so p95 repeats
        # the median rather than reporting the slowest pass.
        return {
            "setup_s": setup_s * host.factor,
            "tally": merged_tally(*(p.tally for p in passes)),
            "passes": len(passes),
            "metrics": {
                "wall_s": statistics.median(normalized),
                "p50_ms": statistics.median(normalized) * 1e3,
                "p95_ms": statistics.median(normalized) * 1e3,
                "sim_instr_per_s": statistics.median(
                    p.instructions / p.normalized for p in passes
                ),
                "peak_rss_mb": own_peak_rss_mb(),
                "configs_simulated": statistics.median(p.configs for p in passes),
            },
            "notes": {
                "pass_host_s": [p.wall for p in passes],
                "pass_normalized_s": normalized,
                "calibration_median_ms": statistics.median(host.samples) * 1e3,
            },
        }

    probe.phase = "traced"
    before = probes.read_counters()
    with tracing.use_tracer(tracer):
        traced = workload.run(True, host)
    counters = probes.counter_delta(before, probes.read_counters())
    counters = {k: counters[k] + setup_counters[k] for k in counters}
    spans = tracer.spans()
    if workload.name == "sweep":
        spans += workload.runner_spans()

    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layers.update(probes.core_layer(spans, probe.total("sim.instructions")))
    layers.update(probes.func_layer(spans))
    layers.update(
        {
            "workloads.get_trace.calls": probe.total("get_trace.calls"),
            "workloads.get_trace.s": probe.total("get_trace.s"),
            "workloads.memo_hit_ratio": probes.ratio(
                counters["memo_hits"],
                counters["memo_hits"] + counters["memo_misses"],
            ),
            "workloads.disk_hit_ratio": probes.ratio(
                counters["disk_hits"],
                counters["disk_hits"] + counters["disk_misses"],
            ),
            "robustness.validate_trace.calls": probe.total("validate.calls"),
            "robustness.validate_trace.s": probe.total("validate.s"),
            "robustness.checkpoint.s": probes.span_seconds(spans, "checkpoint"),
            "telemetry.trace_overhead_frac": traced.normalized
            / statistics.median(normalized)
            - 1,
        }
    )
    layers.update(workload.layers(spans, traced))
    covered = layers["core.simulate_many.s"] + layers["robustness.checkpoint.s"]
    covered += sum(
        probe.total(key, ("traced",))
        for key in ("get_trace.s", "validate.s", "predict.s")
    )
    layers["telemetry.unattributed_frac"] = max(0.0, 1 - covered / traced.wall)
    return {
        "tally": merged_tally(*(p.tally for p in passes), traced.tally),
        "passes": len(passes) + 1,
        "metrics": layers,
        "notes": {
            "batch_widths": probes.width_histogram(spans),
            "traced_host_s": traced.wall,
            "traced_normalized_s": traced.normalized,
            "untraced_normalized_s": statistics.median(normalized),
            "validation_counter_calls": counters["validations"],
        },
    }


def run_serve(args, tmp: pathlib.Path) -> dict:
    # Enough queries for the p95 to keep ten beyond it.  A traced run
    # sends the same stream untraced first, as its overhead reference.
    count = max(int(SERVE_QPS * args.seconds), harness.min_samples_for(95))
    serve = workloads.Serve(tmp, args.seed)
    server = serve.start(traced=False)
    setup_s = time.time() - args.spawned_at
    try:
        setup_s *= harness.HostSpeed(loops=SETUP_CALIBRATION_LOOPS).factor
        if args.setup_only:
            return {"setup_s": setup_s}
        reference = serve.session(server, count)
        rss = server.peak_rss_mb()
    finally:
        drained_ok = server.stop()
    drained = harness.Tally()
    drained.record(drained_ok)
    latencies = reference["normalized"]
    if not args.trace:
        return {
            "setup_s": setup_s,
            "tally": merged_tally(reference["tally"], drained),
            "passes": 1,
            "metrics": {
                "wall_s": reference["wall"],
                "p50_ms": harness.percentile(latencies, 50) * 1e3,
                "p95_ms": harness.tail_percentile(latencies, 95) * 1e3,
                "sim_instr_per_s": reference["instructions"] / reference["wall"],
                "peak_rss_mb": rss,
                "configs_simulated": reference["counters"]["serve.simulated_configs"],
            },
            "notes": {
                "queries": len(latencies),
                "host_p50_ms": harness.percentile(reference["latencies"], 50) * 1e3,
                "host_p95_ms": harness.percentile(reference["latencies"], 95) * 1e3,
                "calibration_median_ms": reference["calibration_ms"],
                "generator_late_p95_ms": harness.percentile(
                    reference["lateness"], 95
                )
                * 1e3,
            },
        }

    server = serve.start(traced=True)
    try:
        traced = serve.session(server, count)
        lifetime = server.metrics()["counters"]
    finally:
        drained_ok = server.stop()
    drained.record(drained_ok)
    spans = server.spans()
    session = traced["counters"]
    lookups = [s for s in spans if s.name == "cache_lookup"]
    requests = [
        s for s in spans if s.name == "request" and s.args.get("path") == "/query"
    ]
    inside = [s for s in spans if s.name in ("validate", "batch_wait")]
    calls = lifetime.get("serve.dispatches", 0)
    kernel_s = sum(s.duration for s in probes.core_spans(spans))
    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layers.update(
        probes.core_layer(spans, traced["instructions"] + serve.warm_instructions)
    )
    layers.update(probes.func_layer(spans))
    layers.update(
        {
            "workloads.get_trace.calls": calls,
            "workloads.get_trace.s": sum(
                probes.span_seconds(spans, name)
                for name in ("cache_lookup", "trace_build", "trace_prepare")
            ),
            "workloads.memo_hit_ratio": probes.ratio(calls - len(lookups), calls),
            "workloads.disk_hit_ratio": probes.ratio(
                sum(1 for s in lookups if s.args.get("hit")), len(lookups)
            ),
            "robustness.validate_trace.calls": len(probes.core_spans(spans)),
            "robustness.validate_trace.s": max(
                0.0,
                probes.span_seconds(spans, "simulate_batch", "serve") - kernel_s,
            ),
            "serve.memo_hit_ratio": probes.ratio(
                session["serve.memo.hits"], session["serve.queries"]
            ),
            "serve.batch_width.mean": probes.ratio(
                session["serve.simulated_configs"], session["serve.dispatches"]
            ),
            "serve.dispatches": session["serve.dispatches"],
            "serve.coalesced": session["serve.coalesced"],
            "serve.hit_p50_ms": harness.percentile(traced["hits"], 50) * 1e3,
            "serve.miss_p50_ms": harness.percentile(traced["misses"], 50) * 1e3,
            "serve.generator_late_p95_ms": harness.tail_percentile(
                traced["lateness"], 95
            )
            * 1e3,
            "telemetry.trace_overhead_frac": statistics.fmean(traced["normalized"])
            / statistics.fmean(latencies)
            - 1,
            "telemetry.unattributed_frac": max(
                0.0,
                1
                - sum(s.duration for s in inside)
                / sum(s.duration for s in requests),
            ),
        }
    )
    return {
        "tally": merged_tally(reference["tally"], traced["tally"], drained),
        "passes": 2,
        "metrics": layers,
        "notes": {
            "queries": len(traced["latencies"]),
            "untraced_normalized_mean_ms": statistics.fmean(latencies) * 1e3,
            "traced_normalized_mean_ms": statistics.fmean(traced["normalized"]) * 1e3,
            "batch_widths": probes.width_histogram(spans),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tmp = pathlib.Path(args.tmp)
    if args.workload == "serve":
        result = run_serve(args, tmp)
    else:
        result = run_batch(args, tmp)
    pathlib.Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
