"""Golden SimStats ledger for the timing loop, on both kernels.

The ledger pins every simulation the 12-experiment paper sweep runs at a
fixed workload factor: one entry per (experiment, workload, config
fingerprint) holding a SHA-256 digest of ``SimStats.to_dict()``, plus
each config's full spec once, keyed by fingerprint.  A change to the
timing loop that alters any counter, for any (trace, config) pair the
sweep touches, changes a digest.

Usage (``src`` must be importable, e.g. ``PYTHONPATH=src``)::

    python -m tests.golden.scalar_ledger --write tests/golden/scalar_f0.05.json
    python -m tests.golden.scalar_ledger --check tests/golden/scalar_f0.05.json

``--write`` runs the sweep in process and records every result at the
kernel boundary (``ScalarKernel`` and ``BatchedKernel``), so simulations
that :func:`repro.core.kernel.simulate_many` routes to the batched
kernel are pinned too.  ``--check`` re-simulates every ledger entry from
its stored spec on the scalar loop, then re-runs each (experiment,
workload) group of at least ``BATCH_MIN_WIDTH`` configs through plain
``simulate_many`` (which picks the batched kernel at that width); it
reports every digest mismatch and exits 1 if there was any.  The tier-1
suite checks :func:`stratified` entries and the Figure 8 group only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time
import zlib

#: Workload factor of the committed ledger.
FACTOR = 0.05
#: Committed ledger next to this module.
LEDGER_PATH = pathlib.Path(__file__).with_name("scalar_f0.05.json")


def stats_digest(stats) -> str:
    """SHA-256 of the stable JSON image of one :class:`SimStats`."""
    payload = json.dumps(stats.to_dict(), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def family(workload: str) -> str:
    """``"int"`` or ``"fp"``: the suite a workload belongs to."""
    from repro.workloads.registry import INTEGER_SUITE

    return "int" if workload in INTEGER_SUITE else "fp"


def build_ledger(factor: float = FACTOR) -> dict:
    """Run every paper experiment and record each simulation it makes."""
    from repro.core.kernel import BatchedKernel, ScalarKernel
    from repro.experiments.common import scaled_trace
    from repro.experiments.run_all import EXPERIMENTS
    from repro.robustness.guards import config_fingerprint
    from repro.serve.protocol import config_to_spec
    from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

    recorded: list = []
    originals = {
        kernel: kernel.simulate_many for kernel in (ScalarKernel, BatchedKernel)
    }

    def recording(original):
        def simulate_many(kernel, trace, configs, **kwargs):
            results = original(kernel, trace, configs, **kwargs)
            recorded.extend((trace, r.config, r.stats) for r in results)
            return results

        return simulate_many

    entries: dict[str, dict] = {}
    configs: dict[str, dict] = {}
    for kernel, original in originals.items():
        kernel.simulate_many = recording(original)
    try:
        for experiment, run_experiment in EXPERIMENTS.items():
            recorded.clear()
            run_experiment(factor)
            traces = {
                name: scaled_trace(name, factor)
                for name in INTEGER_SUITE + FP_SUITE
            }
            for trace, config, stats in recorded:
                workload = next(
                    (name for name, known in traces.items() if known is trace),
                    None,
                )
                if workload is None:
                    raise RuntimeError(
                        f"{experiment}: simulated a trace that is not a "
                        f"suite workload at factor {factor}"
                    )
                fingerprint = config_fingerprint(config)
                key = f"{experiment}|{workload}|{fingerprint}"
                digest = stats_digest(stats)
                previous = entries.get(key)
                if previous is not None and previous["digest"] != digest:
                    raise RuntimeError(f"{key}: one config, two digests")
                entries[key] = {
                    "experiment": experiment,
                    "workload": workload,
                    "fingerprint": fingerprint,
                    "digest": digest,
                }
                configs[fingerprint] = config_to_spec(config)
    finally:
        for kernel, original in originals.items():
            kernel.simulate_many = original
    return {
        "factor": factor,
        "configs": {fp: configs[fp] for fp in sorted(configs)},
        "entries": [entries[key] for key in sorted(entries)],
    }


def dump_ledger(ledger: dict) -> str:
    """JSON text with one config or entry per line (reviewable diffs)."""

    def block(items) -> str:
        return ",\n".join(f"  {item}" for item in items)

    configs = block(
        f"{json.dumps(fp)}: {json.dumps(spec, separators=(',', ':'))}"
        for fp, spec in ledger["configs"].items()
    )
    entries = block(
        json.dumps(entry, separators=(",", ":")) for entry in ledger["entries"]
    )
    return (
        f'{{"factor": {json.dumps(ledger["factor"])},\n'
        f' "configs": {{\n{configs}\n }},\n'
        f' "entries": [\n{entries}\n ]}}\n'
    )


def load_ledger(path: "str | pathlib.Path" = LEDGER_PATH) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def stratified(ledger: dict) -> list[dict]:
    """One entry per (experiment, workload family), picked by a fixed hash.

    The pick rotates across workloads (crc32 of the experiment id indexes
    the group), so the subset covers several traces rather than always
    the alphabetically first one.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for entry in ledger["entries"]:
        key = (entry["experiment"], family(entry["workload"]))
        groups.setdefault(key, []).append(entry)
    picked = []
    for (experiment, _family), group in sorted(groups.items()):
        picked.append(group[zlib.crc32(experiment.encode()) % len(group)])
    return picked


def wide_groups(ledger: dict) -> dict[tuple[str, str], list[dict]]:
    """(experiment, workload) groups wide enough for the batched kernel."""
    from repro.core.kernel import BATCH_MIN_WIDTH

    groups: dict[tuple[str, str], list[dict]] = {}
    for entry in ledger["entries"]:
        key = (entry["experiment"], entry["workload"])
        groups.setdefault(key, []).append(entry)
    return {
        key: group
        for key, group in sorted(groups.items())
        if len(group) >= BATCH_MIN_WIDTH
    }


def check_group(ledger: dict, group: list[dict]) -> list[str]:
    """Re-simulate one group in one plain ``simulate_many`` call.

    No ``kernel`` is named, so the call takes whichever kernel the
    system picks for the group's width.  Returns mismatch messages.
    """
    from repro.core.kernel import simulate_many
    from repro.experiments.common import scaled_trace
    from repro.serve.protocol import config_from_spec

    configs = [
        config_from_spec(ledger["configs"][entry["fingerprint"]])
        for entry in group
    ]
    trace = scaled_trace(group[0]["workload"], ledger["factor"])
    problems = []
    for entry, result in zip(group, simulate_many(trace, configs)):
        digest = stats_digest(result.stats)
        if digest != entry["digest"]:
            problems.append(
                f"{entry_label(entry)} (grouped): digest {digest[:12]} "
                f"!= ledger {entry['digest'][:12]}"
            )
    return problems


def entry_label(entry: dict) -> str:
    return f"{entry['experiment']}|{entry['workload']}|{entry['fingerprint']}"


def check_entry(ledger: dict, entry: dict) -> str | None:
    """Re-simulate one entry; returns a mismatch message or None."""
    from repro.core.processor import AuroraProcessor
    from repro.experiments.common import scaled_trace
    from repro.robustness.guards import config_fingerprint
    from repro.serve.protocol import config_from_spec

    config = config_from_spec(ledger["configs"][entry["fingerprint"]])
    label = entry_label(entry)
    if config_fingerprint(config) != entry["fingerprint"]:
        return f"{label}: spec no longer fingerprints to the ledger key"
    trace = scaled_trace(entry["workload"], ledger["factor"])
    digest = stats_digest(AuroraProcessor(config).run(trace).stats)
    if digest != entry["digest"]:
        return f"{label}: digest {digest[:12]} != ledger {entry['digest'][:12]}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden.scalar_ledger")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="PATH")
    action.add_argument("--check", metavar="PATH")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.write:
        ledger = build_ledger()
        pathlib.Path(args.write).write_text(dump_ledger(ledger))
        print(
            f"wrote {len(ledger['entries'])} entries to {args.write} "
            f"in {time.perf_counter() - started:.1f} s"
        )
        return 0
    ledger = load_ledger(args.check)
    failures = 0
    for entry in ledger["entries"]:
        problem = check_entry(ledger, entry)
        if problem is not None:
            failures += 1
            print(problem, file=sys.stderr)
    total = len(ledger["entries"])
    print(
        f"{total - failures}/{total} ledger entries match "
        f"in {time.perf_counter() - started:.1f} s"
    )
    groups = wide_groups(ledger)
    grouped = sum(len(group) for group in groups.values())
    grouped_failures = 0
    for group in groups.values():
        for problem in check_group(ledger, group):
            grouped_failures += 1
            print(problem, file=sys.stderr)
    print(
        f"{grouped - grouped_failures}/{grouped} entries in {len(groups)} "
        "wide groups match through simulate_many "
        f"in {time.perf_counter() - started:.1f} s"
    )
    return 1 if failures or grouped_failures else 0


if __name__ == "__main__":
    sys.exit(main())
