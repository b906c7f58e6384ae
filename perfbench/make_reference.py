"""Regenerate the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference/``: each sweep experiment's rendered report,
a ``SimStats`` digest per (trace, Figure 8 config) from direct
``simulate_many`` calls, the exhaustive Pareto frontier per explored trace,
and each guided exploration's simulated set and frontier.  Run it only
when a change is meant to alter simulated results, and say so.  Uses a
private temporary trace cache and writes nothing else.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import spec
from workloads import REFERENCE, stats_digest


def main() -> int:
    scratch = tempfile.mkdtemp(prefix="perfbench-reference-")
    os.environ["REPRO_TRACE_CACHE_DIR"] = scratch
    try:
        from repro.core.kernel import simulate_many
        from repro.cost.rbe import total_cost
        from repro.experiments.common import scaled_trace
        from repro.experiments.run_all import run_resilient
        from repro.explore.pareto import frontier_indices
        from repro.explore.search import explore
        from repro.explore.space import fig8_space

        (REFERENCE / "sweep").mkdir(parents=True, exist_ok=True)
        results, report = run_resilient(
            factor=spec.FACTOR, only=list(spec.SWEEP_EXPERIMENTS),
            stream=io.StringIO(), resume=False, jobs=1,
        )
        if report.failed:
            print(f"sweep failed: {report.failed}", file=sys.stderr)
            return 1
        for exp_id in spec.SWEEP_EXPERIMENTS:
            (REFERENCE / "sweep" / f"{exp_id}.txt").write_text(
                results[exp_id].render()
            )

        space = fig8_space()
        configs = [c.config for c in space]
        digests: dict[str, dict[str, str]] = {}
        frontier: dict[str, list[str]] = {}
        for name in spec.SERVE_TRACES:
            stats = [
                r.stats
                for r in simulate_many(scaled_trace(name, spec.FACTOR), configs)
            ]
            digests[name] = {
                c.label: stats_digest(s.to_dict()) for c, s in zip(space, stats)
            }
            if name in spec.EXPLORE_TRACES:
                points = [(total_cost(c.config), s.cpi) for c, s in zip(space, stats)]
                frontier[name] = sorted(
                    space[i].label for i in frontier_indices(points)
                )
        (REFERENCE / "stats.json").write_text(
            json.dumps(
                {"factor": spec.FACTOR, "digests": digests, "frontier": frontier},
                indent=1, sort_keys=True,
            )
            + "\n"
        )

        explored = {}
        for name in spec.EXPLORE_TRACES:
            result = explore(
                space, scaled_trace(name, spec.FACTOR),
                workload=name, factor=spec.FACTOR,
            )
            explored[name] = {
                "simulated": sorted(p.label for p in result.points if p.simulated),
                "frontier": result.frontier_labels(),
                "configs_simulated": result.configs_simulated,
                "budget_exhausted": result.budget_exhausted,
            }
        (REFERENCE / "explore.json").write_text(
            json.dumps(explored, indent=1, sort_keys=True) + "\n"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
