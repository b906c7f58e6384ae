"""Child-side instrumentation: wrappers around the program's layer
functions and readers for the spans and counters it already keeps.

Runs inside a workload child with ``src/`` importable.  Nothing here
changes what the program computes; wrappers only count calls, time them
(traced runs) and sum the instructions each simulation retired.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Phases a child runs through; per-layer figures add ``setup`` and
#: ``traced`` and leave the untraced reference passes out.
PHASES = ("setup", "untraced", "traced")


class Probe:
    """Per-phase call counts, seconds and retired instructions."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.phase = "setup"
        self._totals = {phase: defaultdict(float) for phase in PHASES}

    def add(self, key: str, value: float = 1.0) -> None:
        self._totals[self.phase][key] += value

    def total(self, key: str, phases=("setup", "traced")) -> float:
        return sum(self._totals[phase][key] for phase in phases)

    def phase_total(self, key: str) -> float:
        return self._totals[self.phase][key]

    # ------------------------------------------------------------ wrappers

    def _timed_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(f"{name}.calls")
                self.add(f"{name}.s", time.perf_counter() - started)

        return wrapper

    def _counting_run(self, fn):
        @functools.wraps(fn)
        def run(processor, trace, *args, **kwargs):
            result = fn(processor, trace, *args, **kwargs)
            self.add("sim.configs")
            self.add("sim.instructions", result.stats.instructions)
            return result

        return run

    def _counting_batch(self, fn):
        @functools.wraps(fn)
        def simulate_many(kernel, trace, configs, *args, **kwargs):
            results = fn(kernel, trace, configs, *args, **kwargs)
            self.add("sim.configs", len(results))
            self.add(
                "sim.instructions",
                sum(result.stats.instructions for result in results),
            )
            return results

        return simulate_many

    def install(self) -> None:
        """Wrap the layer entry points; call before importing drivers.

        Module-level functions are also re-bound in every ``repro``
        module that already imported them by name.
        """
        from repro.core import kernel, processor
        from repro.robustness import validation
        from repro.workloads import registry

        processor.AuroraProcessor.run = self._counting_run(
            processor.AuroraProcessor.run
        )
        kernel.BatchedKernel.simulate_many = self._counting_batch(
            kernel.BatchedKernel.simulate_many
        )
        if not self.timed:
            return
        _rebind(registry, "get_trace", self._timed_call("get_trace", registry.get_trace))
        _rebind(
            validation,
            "validate_trace",
            self._timed_call("validate", validation.validate_trace),
        )

    def install_explore(self) -> None:
        """Time the explorer's model predictions (traced runs only)."""
        if not self.timed:
            return
        from repro.explore.model import CPIEstimator

        CPIEstimator.predict = self._timed_call("predict", CPIEstimator.predict)


def _rebind(module, name: str, wrapper) -> None:
    original = getattr(module, name)
    setattr(module, name, wrapper)
    for loaded in list(sys.modules.values()):
        if (
            loaded is not None
            and getattr(loaded, "__name__", "").startswith("repro.")
            and getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, wrapper)


def read_counters() -> dict[str, float]:
    """The counters the program already keeps, as one flat mapping."""
    from repro.func.prepared import prepare_snapshot
    from repro.robustness.validation import validation_snapshot
    from repro.workloads import registry, trace_cache

    memo_hits, memo_misses, _ = registry.memo_snapshot()
    disk_hits, disk_misses = trace_cache.snapshot()
    prepares, prepare_seconds = prepare_snapshot()
    passes, revalidations = validation_snapshot()
    return {
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
        "disk_hits": disk_hits,
        "disk_misses": disk_misses,
        "prepares": prepares,
        "prepare_s": prepare_seconds,
        "validations": passes + revalidations,
    }


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------- spans


def span_seconds(spans, name: str, category: str | None = None) -> float:
    return sum(
        s.duration
        for s in spans
        if s.name == name and (category is None or s.category == category)
    )


def core_spans(spans) -> list:
    """Kernel entry spans: ``simulate_batch`` (``simulate_many``) and
    ``simulate`` (single-config ``simulate_trace``, width 1)."""
    return [
        s
        for s in spans
        if s.category == "simulate" and s.name in ("simulate_batch", "simulate")
    ]


def core_layer(spans, instructions: float) -> dict[str, float]:
    """``core.*`` per-layer figures from the kernel spans."""
    calls = core_spans(spans)
    widths = sorted(int(s.args.get("configs", 1)) for s in calls)
    seconds = sum(s.duration for s in calls)
    record_configs = sum(
        int(s.args.get("records", 0)) * int(s.args.get("configs", 1))
        for s in calls
    )
    return {
        "core.simulate_many.calls": len(calls),
        "core.simulate_many.s": seconds,
        "core.simulate_many.configs": sum(widths),
        "core.batch_width.p50": widths[(len(widths) - 1) // 2] if widths else 0,
        "core.batch_width.max": widths[-1] if widths else 0,
        "core.ns_per_record_config": ratio(seconds * 1e9, record_configs),
        "core.sim_instr_per_s": ratio(instructions, seconds),
    }


def width_histogram(spans) -> dict[int, int]:
    """Kernel calls per batch width (printed as a note of traced runs)."""
    histogram: dict[int, int] = defaultdict(int)
    for s in core_spans(spans):
        histogram[int(s.args.get("configs", 1))] += 1
    return dict(sorted(histogram.items()))


def func_layer(spans) -> dict[str, float]:
    return {
        "func.trace_build.s": span_seconds(spans, "trace_build"),
        "func.prepare_trace.s": span_seconds(spans, "trace_prepare"),
    }


def driver_seconds(spans) -> dict[str, float]:
    """Driver call time per experiment: its ``attempt#n`` spans."""
    by_id = {s.span_id: s for s in spans}
    seconds: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.category != "attempt":
            continue
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.name.startswith("experiment:"):
            seconds[parent.name.split(":", 1)[1]] += s.duration
    return dict(seconds)
