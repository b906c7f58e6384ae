"""Kernel boundary tests: the scalar oracle, the batched kernel, selection.

The contract under test is the one the module docstring of
:mod:`repro.core.kernel` states: every kernel yields byte-identical
per-config :class:`~repro.core.stats.SimStats`, with the scalar kernel
as the oracle.  The oracle suite runs both benchmark suites (one small
trace each) across the three paper models at batch widths 1, 3 and a
full mixed grid.  The selection suite pins the width rule
:func:`~repro.core.kernel.simulate_many` applies when no ``kernel`` is
named.
"""

from __future__ import annotations

import math

import pytest

from repro.core.kernel import (
    BATCH_MIN_WIDTH,
    BatchedKernel,
    KernelError,
    batch_snapshot,
    simulate_many,
)
from repro.experiments.fig8_design_space import design_points
from repro.telemetry import tracing
from repro.telemetry.events import EventBus, EventKind, RingBufferSink


def _full_grid(models):
    """The three models plus variants that stress divergent structures.

    The first three entries are exactly ``models`` so width-3 oracle
    comparisons can reuse the grid's scalar reference.
    """
    small, baseline, large = models
    return [
        small,
        baseline,
        large,
        baseline.with_(issue_width=1),
        baseline.with_(mem_latency=35),
        baseline.with_(mshr_entries=1),
        baseline.with_(rob_entries=8),
        large.without_prefetch(),
    ]


@pytest.fixture(
    scope="module", params=["espresso_trace_small", "fp_trace_small"]
)
def suite_trace(request):
    """One small trace per benchmark suite (int: espresso, fp: hydro2d)."""
    return request.getfixturevalue(request.param)


class TestOracle:
    """Batched stats must equal the scalar kernel's, config for config."""

    def test_width_one(self, suite_trace, models):
        for config in _full_grid(models):
            expected = simulate_many(
                suite_trace, [config], kernel="scalar"
            )[0]
            got = simulate_many(suite_trace, [config], kernel="batched")[0]
            assert got.stats == expected.stats, config.label
            assert got.config is config

    def test_width_three(self, suite_trace, models):
        oracle = simulate_many(suite_trace, list(models), kernel="scalar")
        batch = simulate_many(suite_trace, list(models), kernel="batched")
        assert [r.stats for r in batch] == [r.stats for r in oracle]

    def test_full_grid(self, suite_trace, models):
        grid = _full_grid(models)
        oracle = simulate_many(suite_trace, grid, kernel="scalar")
        batch = simulate_many(suite_trace, grid, kernel="batched")
        assert [r.stats for r in batch] == [r.stats for r in oracle]
        # Results stay index-aligned with the configs passed in.
        for config, result in zip(grid, batch):
            assert result.config is config

    def test_plain_record_lists(self, counting_trace, models):
        # The batched kernel must also accept the tuple representation.
        oracle = simulate_many(counting_trace, list(models), kernel="scalar")
        batch = simulate_many(counting_trace, list(models), kernel="batched")
        assert [r.stats for r in batch] == [r.stats for r in oracle]

    def test_empty_trace(self, models):
        for kernel in ("scalar", "batched"):
            for result in simulate_many([], list(models), kernel=kernel):
                assert result.stats.instructions == 0
                assert math.isnan(result.cpi)

    def test_empty_config_list(self, counting_trace):
        assert simulate_many(counting_trace, [], kernel="batched") == []


class TestTelemetryRefusal:
    def test_active_bus_refused_naming_the_field(self, counting_trace, models):
        class Sink:
            def record(self, event):
                pass

        bus = EventBus(Sink())
        with pytest.raises(KernelError, match="telemetry"):
            BatchedKernel().simulate_many(
                counting_trace, [models[1]], telemetry=bus
            )

    def test_sinkless_bus_is_telemetry_off(self, counting_trace, models):
        # A bus with no sinks is falsy — same normalisation as the
        # scalar loop — so the batched kernel accepts it.
        results = BatchedKernel().simulate_many(
            counting_trace, [models[1]], telemetry=EventBus()
        )
        assert results[0].stats.instructions == len(counting_trace)


def _fig8_grid():
    """The Figure 8 catalogue plus a slower-memory variant: 58 configs."""
    catalogue = [config for _, config, _ in design_points()]
    return catalogue + [c.with_latency(c.mem_latency + 4) for c in catalogue]


def _kernel_ran(trace, configs, **kwargs) -> str:
    """Run ``simulate_many``; return the kernel its span names."""
    tracer = tracing.SpanTracer()
    with tracing.use_tracer(tracer):
        simulate_many(trace, configs, **kwargs)
    (span,) = [
        record
        for record in tracer.finished_records()
        if record["name"] == "simulate_batch"
    ]
    return span["args"]["kernel"]


class TestSelection:
    """Without ``kernel=``, the batch width and telemetry pick the kernel."""

    def test_below_threshold_runs_scalar(self, counting_trace):
        configs = _fig8_grid()[: BATCH_MIN_WIDTH - 1]
        before = batch_snapshot()
        kernel = _kernel_ran(counting_trace, configs)
        assert kernel == "scalar"
        assert batch_snapshot() == before

    def test_at_threshold_runs_batched(self, counting_trace):
        configs = _fig8_grid()[:BATCH_MIN_WIDTH]
        calls, simulated = batch_snapshot()
        kernel = _kernel_ran(counting_trace, configs)
        assert kernel == "batched"
        assert batch_snapshot() == (calls + 1, simulated + BATCH_MIN_WIDTH)

    def test_active_telemetry_runs_scalar_and_delivers(self, counting_trace):
        configs = _fig8_grid()
        ring = RingBufferSink(kinds={EventKind.RETIRE})
        bus = EventBus(ring)
        before = batch_snapshot()
        try:
            results = simulate_many(counting_trace, configs, telemetry=bus)
        finally:
            bus.close()
        assert batch_snapshot() == before
        assert len(ring.events) == sum(r.stats.instructions for r in results)

    def test_sinkless_bus_does_not_force_scalar(self, counting_trace):
        configs = _fig8_grid()[:BATCH_MIN_WIDTH]
        kernel = _kernel_ran(counting_trace, configs, telemetry=EventBus())
        assert kernel == "batched"

    def test_explicit_kernel_overrides(self, counting_trace, models):
        kernel = _kernel_ran(counting_trace, [models[1]], kernel="batched")
        assert kernel == "batched"
        kernel = _kernel_ran(counting_trace, _fig8_grid(), kernel="scalar")
        assert kernel == "scalar"

    def test_unknown_kernel_name_refused(self, counting_trace, models):
        with pytest.raises(KernelError, match="unknown kernel"):
            simulate_many(counting_trace, list(models), kernel="simd")


class TestAccounting:
    def test_batch_snapshot_counts_calls_and_configs(
        self, counting_trace, models
    ):
        calls, configs = batch_snapshot()
        simulate_many(counting_trace, list(models), kernel="batched")
        assert batch_snapshot() == (calls + 1, configs + 3)

    def test_scalar_kernel_does_not_count(self, counting_trace, models):
        before = batch_snapshot()
        simulate_many(counting_trace, list(models), kernel="scalar")
        assert batch_snapshot() == before

    def test_simulate_batch_span(self, counting_trace, models):
        tracer = tracing.SpanTracer()
        with tracing.use_tracer(tracer):
            simulate_many(counting_trace, list(models), kernel="batched")
        spans = [
            record
            for record in tracer.finished_records()
            if record["name"] == "simulate_batch"
        ]
        assert len(spans) == 1
        fields = spans[0]["args"]
        assert fields["records"] == len(counting_trace)
        assert fields["configs"] == 3
        assert fields["kernel"] == "batched"
