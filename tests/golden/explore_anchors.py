"""Golden explorer calibration: anchor inputs and search outcome.

Pins, per workload at a fixed factor, each family anchor's calibration
inputs (``mshr_utilization``, ``writecache_utilization``,
``prefetch_coverage``, ``pair_rate``) as exact ``repr`` floats, plus the
guided Figure 8 search's sorted simulated labels and frontier labels.
A change to how the anchors are timed or measured that moves any float
by one ulp, or any search decision, changes this file.

Usage (``src`` must be importable, e.g. ``PYTHONPATH=src``)::

    python -m tests.golden.explore_anchors --write tests/golden/explore_anchors_f0.05.json
    python -m tests.golden.explore_anchors --check tests/golden/explore_anchors_f0.05.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Workload factor of the committed golden file.
FACTOR = 0.05
#: Workloads pinned: one that converges, one that exhausts the budget.
WORKLOADS = ("espresso", "li")
#: The anchor fields pinned, in file order.
ANCHOR_FIELDS = (
    "mshr_utilization",
    "writecache_utilization",
    "prefetch_coverage",
    "pair_rate",
)
GOLDEN_PATH = pathlib.Path(__file__).with_name("explore_anchors_f0.05.json")


def capture(workload: str, factor: float = FACTOR) -> dict:
    """Calibrate and explore one workload; return its golden entry."""
    from repro.experiments.common import scaled_trace
    from repro.explore import CPIEstimator, explore
    from repro.explore.space import fig8_space

    trace = scaled_trace(workload, factor)
    estimator = CPIEstimator.calibrate(trace)
    anchors = {
        str(icache): {
            name: repr(getattr(anchor, name)) for name in ANCHOR_FIELDS
        }
        for icache, anchor in sorted(estimator.anchors.items())
    }
    result = explore(fig8_space(), trace, workload=workload, factor=factor)
    return {
        "anchors": anchors,
        "simulated": sorted(p.label for p in result.points if p.simulated),
        "frontier": [p.label for p in result.frontier()],
    }


def build(factor: float = FACTOR) -> dict:
    return {
        "factor": factor,
        "workloads": {w: capture(w, factor) for w in WORKLOADS},
    }


def load(path: "str | pathlib.Path" = GOLDEN_PATH) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden.explore_anchors")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="PATH")
    action.add_argument("--check", metavar="PATH")
    args = parser.parse_args(argv)
    if args.write:
        text = json.dumps(build(), indent=1, sort_keys=True) + "\n"
        pathlib.Path(args.write).write_text(text)
        print(f"wrote {args.write}")
        return 0
    golden = load(args.check)
    fresh = build(golden["factor"])
    bad = [
        w for w in golden["workloads"]
        if fresh["workloads"].get(w) != golden["workloads"][w]
    ]
    for workload in bad:
        print(f"MISMATCH {workload}", file=sys.stderr)
    print(f"explore anchors: {len(golden['workloads']) - len(bad)}/"
          f"{len(golden['workloads'])} workloads match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
