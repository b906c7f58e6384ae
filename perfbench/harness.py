"""Pure helpers of the benchmark: statistics, open-loop timing, error
accounting, metric-name rules and the result line.

Nothing here imports the simulator, so the parent process and the tests
can use it without ``src/`` on the path.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import time
from dataclasses import dataclass

#: A metric or workload name: starts with a letter or digit, at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: A tail percentile must keep at least this many samples beyond it.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct!r}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100 * count))


def tail_percentile(samples, pct: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``pct`` percentile, refused unless ``min_beyond`` samples lie
    beyond it (so a tail figure never rests on a handful of points)."""
    beyond = samples_beyond(len(samples), pct)
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples keeps {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return percentile(samples, pct)


def min_samples_for(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``pct`` percentile keeps
    ``min_beyond`` samples beyond it."""
    count = 1
    while samples_beyond(count, pct) < min_beyond:
        count += 1
    return count


@dataclass(frozen=True)
class Timing:
    """One open-loop operation: when it was due, sent and answered.

    Latency runs from the due time, so a generator that falls behind
    charges its lateness to every operation it delayed.
    """

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return max(0.0, self.sent - self.due)


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Fixed-rate open-loop schedule: operation ``i`` is due at
    ``start + i / rate`` whether or not earlier ones have finished."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    return [start + index / rate for index in range(count)]


#: Host-speed calibration: a fixed pure-Python loop, timed between the
#: workload's timed units.  Normalized seconds are host seconds scaled
#: by ``CALIBRATION_NOMINAL_S`` over the loop's local median time, i.e.
#: seconds on a host that runs the loop in exactly 10 ms.
CALIBRATION_ITERATIONS = 100_000
CALIBRATION_NOMINAL_S = 0.010
#: Calibration after each unit: this share of the unit's time, and at
#: least this many loops.
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_LOOPS = 5


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop takes."""
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - started


class HostSpeed:
    """Normalizes timed units to a fixed host speed.

    On a shared host, neighbours slow every process by up to a third for
    seconds to minutes at a time.  The calibration loop, timed just
    before and just after a unit, slows with it; dividing by its local
    median removes most of that swing and keeps the program's own cost.
    Each batch of calibration samples serves the unit before it and the
    unit after it.
    """

    def __init__(self, clock=calibration_loop, loops: int = CALIBRATION_MIN_LOOPS):
        self.clock = clock
        self.samples: list[float] = []
        self._last = self._sample(loops)

    def _sample(self, loops: int) -> list[float]:
        found = [self.clock() for _ in range(loops)]
        self.samples += found
        return found

    @property
    def factor(self) -> float:
        """Nominal over the latest local median: multiply host seconds
        by this to get normalized seconds."""
        return CALIBRATION_NOMINAL_S / statistics.median(self._last)

    def normalize(self, seconds: float) -> float:
        """Normalized seconds of a unit that just took ``seconds``."""
        loops = max(
            CALIBRATION_MIN_LOOPS,
            math.ceil(CALIBRATION_SHARE * seconds / CALIBRATION_NOMINAL_S),
        )
        after = self._sample(loops)
        local = statistics.median(self._last + after)
        self._last = after
        return seconds * CALIBRATION_NOMINAL_S / local


#: ``serve`` calibrates in the load generator's idle time: one loop
#: whenever a connection has this much slack before its next query is
#: due.  Each latency is scaled by the samples taken within
#: ``CALIBRATION_WINDOW_S`` of its due time.
CALIBRATION_SLACK_S = 0.04
CALIBRATION_WINDOW_S = 3.0


def local_factor(samples, at: float, window: float = CALIBRATION_WINDOW_S) -> float:
    """Normalizing factor at time ``at`` from ``(time, seconds)``
    calibration samples: nominal over the median of those within
    ``window`` of it (all of them when none is that close)."""
    if not samples:
        raise ValueError("no calibration samples")
    near = [took for when, took in samples if abs(when - at) <= window]
    return CALIBRATION_NOMINAL_S / statistics.median(
        near or [took for _, took in samples]
    )


@dataclass
class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The final stdout line: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` as ``{name: {"value": v, "unit": u}}``."""
    for name, (value, unit) in metrics.items():
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError(f"invalid metric {name!r} [{unit!r}]")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not a finite number")
    return json.dumps(
        {
            "correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
