"""Tests of the benchmark's own logic (no simulation runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib

import pytest

import harness
import spec
from workloads import serve_queries


# ------------------------------------------------------------ percentiles


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 95) == 95
    assert harness.percentile(samples, 100) == 100
    assert harness.percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0)


def test_p95_needs_ten_samples_beyond_it():
    assert harness.min_samples_for(95) == 200
    assert harness.samples_beyond(200, 95) == 10
    assert harness.samples_beyond(199, 95) == 9
    samples = [float(i) for i in range(200)]
    # Rank 190 of 200: ten samples (190..199) lie beyond it.
    assert harness.tail_percentile(samples, 95) == 189.0
    with pytest.raises(ValueError, match="keeps 9 beyond"):
        harness.tail_percentile(samples[:199], 95)


def test_median_needs_no_tail_rule():
    assert harness.min_samples_for(50) <= 21
    assert harness.tail_percentile(list(range(21)), 50) == 10


# ------------------------------------------------------ open-loop timing


def test_due_times_follow_the_fixed_rate():
    assert harness.due_times(10.0, 8.0, 3) == [10.0, 10.125, 10.25]
    with pytest.raises(ValueError):
        harness.due_times(0.0, 0.0, 3)


def test_latency_runs_from_due_time_and_counts_lateness():
    on_time = harness.Timing(due=1.0, sent=1.0, done=1.05)
    assert on_time.latency == pytest.approx(0.05)
    assert on_time.lateness == 0.0
    # A stalled generator sends 0.3 s late: the wait is charged to the
    # query's latency as well as reported as lateness.
    late = harness.Timing(due=1.0, sent=1.3, done=1.35)
    assert late.latency == pytest.approx(0.35)
    assert late.lateness == pytest.approx(0.3)
    # Sending early (clock jitter) is not negative lateness.
    assert harness.Timing(due=1.0, sent=0.999, done=1.1).lateness == 0.0


def test_one_slow_answer_delays_the_queue_behind_it():
    """Single connection, 10 qps, one 0.5 s answer: the next queries go
    out late and their due-time latency includes that wait."""
    due = harness.due_times(0.0, 10.0, 4)
    service = [0.5, 0.01, 0.01, 0.01]
    free_at = 0.0
    timings = []
    for when, cost in zip(due, service):
        sent = max(when, free_at)
        free_at = sent + cost
        timings.append(harness.Timing(when, sent, free_at))
    latencies = [t.latency for t in timings]
    assert latencies[0] == pytest.approx(0.5)
    assert latencies[1] == pytest.approx(0.41)
    assert timings[1].lateness == pytest.approx(0.4)
    assert latencies[3] == pytest.approx(0.23)


# ------------------------------------------------------ host-speed scaling


def scripted_clock(values):
    samples = iter(values)
    return lambda: next(samples)


def test_unit_is_scaled_by_the_calibration_around_it():
    # Five loops before the unit at 10 ms, five after it at 20 ms.
    host = harness.HostSpeed(clock=scripted_clock([0.010] * 5 + [0.020] * 5))
    assert host.factor == pytest.approx(1.0)
    assert host.normalize(1.0) == pytest.approx(0.010 / 0.015)
    # The loops after one unit are the loops before the next.
    assert host.factor == pytest.approx(0.5)


def test_a_uniform_slowdown_cancels():
    found = []
    for slowdown in (1.0, 1.3):
        host = harness.HostSpeed(clock=lambda: 0.008 * slowdown)
        found.append(host.normalize(2.0 * slowdown))
    assert found[0] == pytest.approx(found[1])
    assert found[0] == pytest.approx(2.0 * 0.010 / 0.008)


def test_calibration_grows_with_the_unit():
    calls = []

    def clock():
        calls.append(1)
        return 0.010

    host = harness.HostSpeed(clock=clock, loops=10)
    assert len(calls) == 10
    host.normalize(0.2)  # short unit: the floor of 5 loops
    assert len(calls) == 15
    host.normalize(4.0)  # 5% of 4 s is 20 loops of 10 ms
    assert len(calls) == 35
    assert len(host.samples) == 35


def test_latency_is_scaled_by_the_calibration_near_its_due_time():
    # The host halves its speed at t = 5 s.
    samples = [(t / 2, 0.010 if t < 10 else 0.020) for t in range(21)]
    assert harness.local_factor(samples, 1.0, window=1.0) == pytest.approx(1.0)
    assert harness.local_factor(samples, 9.0, window=1.0) == pytest.approx(0.5)
    # Nothing within the window: every sample counts.
    assert harness.local_factor(samples, 60.0, window=1.0) == pytest.approx(
        0.010 / 0.020
    )
    with pytest.raises(ValueError):
        harness.local_factor([], 0.0)


# -------------------------------------------------------- error counting


def test_error_frac_counts_wrong_answers_against_attempts():
    tally = harness.Tally()
    for ok in (True, True, False, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_frac == 0.25
    other = harness.Tally(6, 0)
    tally.merge(other)
    assert tally.error_frac == pytest.approx(0.1)


def test_nothing_attempted_is_not_a_clean_run():
    assert harness.Tally().error_frac == 1.0
    line = json.loads(harness.result_line(harness.Tally(), {}))
    assert line["correct"] is False


def test_result_line_shape():
    tally = harness.Tally(3, 1)
    line = json.loads(
        harness.result_line(tally, {"wall_s": (1.5, "s"), "p50_ms": (2.0, "ms")})
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (3, 1)
    assert line["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}


# ------------------------------------------------------------ metric names


@pytest.mark.parametrize(
    "name", ["setup_s", "core.batch_width.p50", "experiments.table3_4.s", "9lives"]
)
def test_valid_names(name):
    assert harness.valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "p95%"]
)
def test_invalid_names(name):
    assert not harness.valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "MB"):
        assert harness.valid_unit(unit)
    for unit in ("", "per second", "x" * 17):
        assert not harness.valid_unit(unit)


def test_result_line_refuses_bad_metrics():
    with pytest.raises(ValueError):
        harness.result_line(harness.Tally(1, 0), {"bad name": (1.0, "s")})
    with pytest.raises(ValueError):
        harness.result_line(harness.Tally(1, 0), {"wall_s": (float("nan"), "s")})


def test_declared_metrics_obey_the_rules():
    assert spec.problems() == []


def test_benchmark_json_matches_the_spec():
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()


# ------------------------------------------------------------ query stream


LABELS = [f"cfg{i}" for i in range(58)]


def test_query_stream_is_seeded():
    assert serve_queries(3, 200, LABELS) == serve_queries(3, 200, LABELS)
    assert serve_queries(3, 200, LABELS) != serve_queries(4, 200, LABELS)


def test_query_stream_repeats_earlier_queries_at_the_fixed_share():
    stream = serve_queries(11, 200, LABELS)
    first_seen: dict = {}
    repeats = 0
    for slot, query in enumerate(stream):
        if query in first_seen:
            repeats += 1
            assert slot - first_seen[query] >= 8
        else:
            first_seen[query] = slot
    assert repeats == round(200 * spec.SERVE_REPEAT_SHARE)
    per_trace = {t: 0 for t in spec.SERVE_TRACES}
    for trace, _ in first_seen:
        per_trace[trace] += 1
    assert max(per_trace.values()) - min(per_trace.values()) <= 1
