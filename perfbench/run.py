"""Benchmark of the Aurora III reproduction: one workload per run.

    python3 perfbench/run.py --workload sweep|explore|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root.  Each run starts the workload in fresh
child processes against the program's defaults: every ``REPRO_*``
variable is stripped from their environment, and each child gets private
temporary directories (trace cache, checkpoint manifest, memo store)
under ``.perfbench_tmp/``, which the run removes again.  Nothing is
written under ``results/`` or to ``BENCH_history.json``.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median of
three set-ups (two set-up-only children plus the measuring child).
``--trace 1`` prints the per-layer metrics.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 on a complete run (failed checks show as ``correct: false``),
1 when a child fails, 2 on usage errors or a checkout without ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import harness
import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only children per untraced run (the measuring child adds one
#: more set-up sample).
SETUP_PROBES = 2
#: A run must end within this many seconds, children included.
RUN_DEADLINE = 170.0


class RunError(RuntimeError):
    """A child failed or overran; the run prints no result."""


def scrubbed_environment() -> tuple[dict[str, str], list[str]]:
    """The children's environment: no ``REPRO_*`` behaviour toggles,
    ``src/`` importable.  Returns it with the names stripped."""
    stripped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, stripped


def spawn_child(args, env, run_dir: pathlib.Path, tag: str, deadline: float,
                setup_only: bool = False) -> dict:
    """Run ``child.py`` for one workload in its own directory."""
    child_dir = run_dir / tag
    child_dir.mkdir()
    out = child_dir / "result.json"
    child_env = dict(env, REPRO_TRACE_CACHE_DIR=str(child_dir / "cache"))
    command = [
        sys.executable, str(HERE / "child.py"), args.workload,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--seed", str(args.seed), "--tmp", str(child_dir), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.time()
    # Its own process group, so an overrunning child is killed together
    # with any server it started.
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=child_dir, env=child_env,
        stdout=sys.stderr, stderr=sys.stderr, start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RunError(f"{tag}: child overran the run deadline") from None
    if code != 0 or not out.is_file():
        raise RunError(f"{tag}: child exited {code}")
    return json.loads(out.read_text())


def measure(args, env, run_dir: pathlib.Path) -> tuple[harness.Tally, dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE
    setups = []
    if not args.trace:
        for probe in range(SETUP_PROBES):
            found = spawn_child(
                args, env, run_dir, f"setup-{probe}", deadline, setup_only=True
            )
            setups.append(found["setup_s"])
    result = spawn_child(args, env, run_dir, "measure", deadline)
    tally = harness.Tally(*result["tally"])
    if args.trace:
        units = spec.PER_LAYER_UNITS
        values = result["metrics"]
    else:
        units = spec.END_TO_END_UNITS
        setups.append(result["setup_s"])
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = set(units) - set(values)
    if missing:
        raise RunError(f"child reported no {sorted(missing)}")
    metrics = {name: (float(values[name]), units[name]) for name in units}
    notes = dict(result.get("notes", {}), passes=result["passes"])
    if setups:
        notes["setup_samples_s"] = setups
    return tally, metrics, notes


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    found = spec.problems()
    if found:
        print("error: " + "; ".join(found), file=sys.stderr)
        return 2
    if args.write_spec:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, stripped = scrubbed_environment()
    if stripped:
        print(f"note: ignoring {', '.join(stripped)} (program defaults only)",
              file=sys.stderr)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        tally, metrics, notes = measure(args, env, run_dir)
    except RunError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"  {'error_frac':<36} {tally.error_frac:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for name, value in notes.items():
        print(f"  note {name}: {value}")
    print(harness.result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
