"""The three workloads, each run inside a fresh child process.

A workload sets up (imports, cold trace build into the child's empty
private cache), then runs timed passes.  ``sweep`` and ``explore`` have
fixed inputs: the same traces, space and experiments on every seed.
``serve`` draws its query stream from the seed.
"""

from __future__ import annotations

import hashlib
import http.client
import importlib
import io
import json
import os
import pathlib
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import harness
import probes
from spec import (
    FACTOR,
    EXPLORE_TRACES,
    SERVE_CONNECTIONS,
    SERVE_QPS,
    SERVE_REPEAT_SHARE,
    SERVE_TRACES,
    SWEEP_EXPERIMENTS,
)

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"
#: The load generator's thread switch interval during a session.
GENERATOR_SWITCH_S = 0.001


def stats_digest(stats: dict) -> str:
    """Digest of one ``SimStats.to_dict()`` after a JSON round trip, so a
    local result and a served one hash alike."""
    canonical = json.dumps(json.loads(json.dumps(stats)), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text())


@dataclass
class Pass:
    """One timed pass over a workload's whole input."""

    wall: float
    normalized: float
    instructions: float
    configs: float
    tally: harness.Tally
    extra: dict = field(default_factory=dict)


class BatchWorkload:
    """Shared set-up/pass protocol of ``sweep`` and ``explore``.

    A pass runs the workload's units in turn (one experiment, or one
    trace); each unit is timed on its own and normalized to the host's
    speed around it (``harness.HostSpeed``).
    """

    name = ""
    traces: tuple[str, ...] = ()

    def __init__(self, tmp: pathlib.Path, probe: probes.Probe) -> None:
        self.tmp = tmp
        self.probe = probe
        self.passes = 0

    def setup(self) -> None:
        from repro.experiments.common import scaled_trace

        self.trace = {name: scaled_trace(name, FACTOR) for name in self.traces}

    def units(self) -> tuple[str, ...]:
        return self.traces

    def run(self, traced: bool, host: harness.HostSpeed) -> Pass:
        """Time one pass; check its outputs outside the timed region."""
        self.passes += 1
        instructions = self.probe.phase_total("sim.instructions")
        configs = self.probe.phase_total("sim.configs")
        outputs = {}
        wall = normalized = 0.0
        for unit in self.units():
            started = time.perf_counter()
            outputs[unit] = self.compute(unit, traced)
            took = time.perf_counter() - started
            wall += took
            normalized += host.normalize(took)
        return Pass(
            wall,
            normalized,
            self.probe.phase_total("sim.instructions") - instructions,
            self.probe.phase_total("sim.configs") - configs,
            *self.check(outputs),
        )

    def compute(self, unit: str, traced: bool):
        raise NotImplementedError

    def check(self, outputs: dict) -> tuple[harness.Tally, dict]:
        raise NotImplementedError

    def layers(self, spans, traced_pass: Pass) -> dict[str, float]:
        return {}


class Sweep(BatchWorkload):
    """The paper experiments through the resilient runner."""

    name = "sweep"

    def setup(self) -> None:
        from repro.experiments import run_all
        from repro.experiments.common import scaled_trace
        from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

        self.run_all = run_all
        for exp_id in SWEEP_EXPERIMENTS:
            importlib.import_module(
                f"repro.experiments.{run_all.EXPERIMENTS[exp_id].module}"
            )
        for name in INTEGER_SUITE + FP_SUITE:
            scaled_trace(name, FACTOR)
        self.reference = {
            exp_id: (REFERENCE / "sweep" / f"{exp_id}.txt").read_text()
            for exp_id in SWEEP_EXPERIMENTS
        }
        self.span_files: list[pathlib.Path] = []

    def units(self) -> tuple[str, ...]:
        return SWEEP_EXPERIMENTS

    def compute(self, unit: str, traced: bool):
        """One experiment through the runner, with its own manifest."""
        span_file = self.tmp / f"sweep-spans-{self.passes}-{unit}.json"
        if traced:
            self.span_files.append(span_file)
        return self.run_all.run_resilient(
            factor=FACTOR,
            only=[unit],
            stream=io.StringIO(),
            resume=False,
            manifest=str(self.tmp / f"manifest-{self.passes}-{unit}.json"),
            jobs=1,
            trace_out=str(span_file) if traced else None,
        )

    def check(self, outputs):
        tally = harness.Tally()
        for exp_id, (results, report) in outputs.items():
            status = {o.exp_id: o.status for o in report.outcomes}
            result = results.get(exp_id)
            tally.record(
                status.get(exp_id) == "ok"
                and result is not None
                and result.render() == self.reference[exp_id]
            )
        return tally, {}

    def runner_spans(self) -> list:
        """The traced pass's runner spans, one trace file per experiment
        (span ids are unique only within a file)."""
        from repro.telemetry.tracing import load_chrome_trace

        self.runner_sets = [load_chrome_trace(path) for path in self.span_files]
        return [s for spans in self.runner_sets for s in spans]

    def layers(self, spans, traced_pass):
        drivers = {
            exp_id: seconds
            for runner in self.runner_sets
            for exp_id, seconds in probes.driver_seconds(runner).items()
        }
        driver_total = sum(drivers.values())
        inner = sum(s.duration for s in probes.core_spans(spans))
        inner += self.probe.total("get_trace.s", ("traced",))
        inner += self.probe.total("validate.s", ("traced",))
        found = {
            f"experiments.{exp_id}.s": drivers.get(exp_id, 0.0)
            for exp_id in SWEEP_EXPERIMENTS
        }
        found["experiments.self_s"] = max(0.0, driver_total - inner)
        found["robustness.runner.overhead_s"] = max(
            0.0, traced_pass.wall - driver_total
        )
        return found


class Explore(BatchWorkload):
    """Model-guided Pareto search over the Figure 8 space."""

    name = "explore"
    traces = EXPLORE_TRACES

    def setup(self) -> None:
        super().setup()
        from repro.explore.search import explore
        from repro.explore.space import fig8_space

        self.probe.install_explore()
        self.explore = explore
        self.space = fig8_space()
        self.reference = load_reference("explore.json")
        self.exhaustive = load_reference("stats.json")["frontier"]

    def compute(self, unit: str, traced: bool):
        return self.explore(self.space, self.trace[unit], workload=unit, factor=FACTOR)

    def check(self, outputs):
        tally = harness.Tally()
        found = wanted = 0
        for name, result in outputs.items():
            simulated = sorted(p.label for p in result.points if p.simulated)
            frontier = result.frontier_labels()
            expect = self.reference[name]
            tally.record(
                simulated == expect["simulated"]
                and frontier == expect["frontier"]
            )
            found += len(set(frontier) & set(self.exhaustive[name]))
            wanted += len(self.exhaustive[name])
        return tally, {
            "recall": probes.ratio(found, wanted),
            "results": outputs,
        }

    def layers(self, spans, traced_pass):
        results = traced_pass.extra["results"].values()
        return {
            "explore.calibrate.s": probes.span_seconds(spans, "explore_calibrate"),
            "explore.calibrate.sims": sum(r.calibration_runs for r in results),
            "explore.rounds": sum(r.rounds for r in results),
            "explore.band_sims": sum(
                int(s.args.get("band", 0))
                for s in spans
                if s.name == "explore_round"
            ),
            "explore.predict.s": self.probe.total("predict.s", ("traced",)),
            "explore.model_mean_rel_error": statistics.fmean(
                r.model.mean_rel_error for r in results
            ),
            "explore.frontier_recall": traced_pass.extra["recall"],
        }


BATCH = {cls.name: cls for cls in (Sweep, Explore)}


# ------------------------------------------------------------------ serve


def serve_queries(seed: int, count: int, space_labels: list[str]) -> list:
    """The seeded query stream: ``(trace, label)`` pairs.

    Distinct queries are spread evenly over the traces (configs drawn
    without replacement), then a fixed share of slots repeat a query
    issued at least eight slots (over a second) earlier, so the repeat is
    answered from the memo store rather than coalesced in flight.
    """
    rng = random.Random(seed)
    repeats = round(count * SERVE_REPEAT_SHARE)
    distinct_count = count - repeats
    per_trace = {
        name: distinct_count // len(SERVE_TRACES)
        + (index < distinct_count % len(SERVE_TRACES))
        for index, name in enumerate(SERVE_TRACES)
    }
    distinct = [
        (name, label)
        for name in SERVE_TRACES
        for label in rng.sample(space_labels, per_trace[name])
    ]
    rng.shuffle(distinct)
    gap = 8
    repeat_slots = set(rng.sample(range(2 * gap, count), repeats))
    stream: list = []
    issued = 0
    for slot in range(count):
        if slot in repeat_slots:
            stream.append(stream[rng.randrange(0, slot - gap + 1)])
        else:
            stream.append(distinct[issued])
            issued += 1
    return stream


class Server:
    """One ``aurora-sim serve`` process with private cache and store."""

    def __init__(self, tmp: pathlib.Path, tag: str, traced: bool) -> None:
        self.dir = tmp / f"server-{tag}"
        self.dir.mkdir()
        self.trace_path = self.dir / "spans.json" if traced else None
        env = dict(os.environ, REPRO_TRACE_CACHE_DIR=str(self.dir / "cache"))
        command = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--jobs", "1", "--store", str(self.dir / "memo"),
        ]
        if traced:
            command += ["--trace", str(self.trace_path)]
        self.log = open(self.dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=self.dir, env=env,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.port = self._await_port()
        self._await_ready()

    def _await_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(rb"serving on http://[\d.]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search((self.dir / "server.log").read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start: see {self.dir}")

    def _await_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _ = self.request("GET", "/readyz")
            if status == 200:
                return
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server never became ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def request(self, method: str, path: str, body: dict | None = None):
        connection = self.connect()
        try:
            return exchange(connection, method, path, body)
        finally:
            connection.close()

    def metrics(self) -> dict:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kib / 1024

    def stop(self) -> bool:
        """SIGTERM, then wait; True when it drained and exited with the
        interrupted code, as a signalled server must.  Kills a hung one."""
        from repro.experiments.exit_codes import EXIT_INTERRUPTED

        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode == EXIT_INTERRUPTED

    def spans(self) -> list:
        from repro.telemetry.tracing import load_chrome_trace

        return load_chrome_trace(self.trace_path)


def exchange(connection, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    payload = response.read()
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(payload)
    return response.status, payload.decode(errors="replace")


@dataclass
class Answer:
    trace: str
    label: str
    timing: harness.Timing
    status: int
    payload: dict


class Serve:
    """Open-loop query stream against a live ``aurora-sim serve``."""

    def __init__(self, tmp: pathlib.Path, seed: int) -> None:
        from repro.core.config import SMALL
        from repro.explore.space import fig8_space
        from repro.serve.protocol import config_to_spec

        self.tmp = tmp
        self.seed = seed
        self.space = {c.label: config_to_spec(c.config) for c in fig8_space()}
        # Warm-up config: outside the space, so no stream query is a
        # memo hit on it.
        self.warm_spec = config_to_spec(SMALL.single_issue().with_latency(25))
        if self.warm_spec in self.space.values():
            raise RuntimeError("warm-up config lies inside the query space")
        self.reference = load_reference("stats.json")["digests"]
        self.servers = 0

    def start(self, traced: bool) -> Server:
        """Set-up: server up and ready, each trace built by a warm-up."""
        self.servers += 1
        server = Server(self.tmp, str(self.servers), traced)
        self.warm_instructions = 0
        try:
            for name in SERVE_TRACES:
                status, payload = server.request(
                    "POST", "/query", self.query(name, self.warm_spec)
                )
                if status != 200:
                    raise RuntimeError(f"warm-up {name}: {status} {payload}")
                self.warm_instructions += payload["stats"]["instructions"]
        except BaseException:
            server.stop()
            raise
        return server

    @staticmethod
    def query(trace: str, config: dict) -> dict:
        return {"workload": trace, "factor": FACTOR, "config": config}

    def session(self, server: Server, count: int) -> dict:
        """Send ``count`` queries open loop; returns figures and tally."""
        stream = serve_queries(self.seed, count, sorted(self.space))
        before = server.metrics()
        start = time.perf_counter() + 0.05
        due = harness.due_times(start, SERVE_QPS, count)
        answers: list[Answer | None] = [None] * count
        cursor = iter(range(count))
        lock = threading.Lock()
        errors: list[BaseException] = []
        calibration: list[tuple[float, float]] = []

        def drive() -> None:
            connection = server.connect()
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    trace, label = stream[index]
                    if due[index] - time.perf_counter() > harness.CALIBRATION_SLACK_S:
                        calibration.append(
                            (time.perf_counter(), harness.calibration_loop())
                        )
                    delay = due[index] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    status, payload = exchange(
                        connection, "POST", "/query",
                        self.query(trace, self.space[label]),
                    )
                    answers[index] = Answer(
                        trace, label,
                        harness.Timing(due[index], sent, time.perf_counter()),
                        status, payload,
                    )
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=drive, name=f"generator-{n}")
            for n in range(SERVE_CONNECTIONS)
        ]
        # A calibration loop holds the GIL; a short switch interval lets
        # the other connection take its answer within a millisecond.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(GENERATOR_SWITCH_S)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
        finally:
            sys.setswitchinterval(switch)
        if errors or any(t.is_alive() for t in threads):
            raise RuntimeError(f"generator failed: {errors!r}")
        after = server.metrics()
        return self.summarise(answers, before, after, calibration)

    def summarise(self, answers, before: dict, after: dict, calibration) -> dict:
        tally = harness.Tally()
        instructions = 0
        hits: list[float] = []
        misses: list[float] = []
        for answer in answers:
            ok = (
                answer is not None
                and answer.status == 200
                and stats_digest(answer.payload["stats"])
                == self.reference[answer.trace][answer.label]
            )
            tally.record(ok)
            if not ok:
                continue
            if answer.payload["memo"]:
                hits.append(answer.timing.latency)
            else:
                misses.append(answer.timing.latency)
                if not answer.payload["coalesced"]:
                    instructions += answer.payload["stats"]["instructions"]
        timings = [a.timing for a in answers if a is not None]
        counters = {
            name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
            for name in after["counters"]
        }
        return {
            "tally": tally,
            "latencies": [t.latency for t in timings],
            "normalized": [
                t.latency * harness.local_factor(calibration, t.due)
                for t in timings
            ],
            "calibration_ms": statistics.median(d for _, d in calibration) * 1e3,
            "lateness": [t.lateness for t in timings],
            "hits": hits,
            "misses": misses,
            "wall": max(t.done for t in timings) - min(t.due for t in timings),
            "instructions": instructions,
            "counters": counters,
        }
