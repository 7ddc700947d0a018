#!/usr/bin/env python3
"""End-to-end stitch benchmark.

    python3 perfbench/run.py --workload tiles-512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs the unmodified program from ``src/`` of the checkout it sits in,
on inputs generated from ``--seed``, and checks every output.  With
``--trace 0`` it reports the end-to-end metrics, measured with nothing
wrapped; with ``--trace 1`` a separate traced run reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A human-readable table with sample counts and the host facts comes
before it, and the same facts go to ``.perfbench_work/results/``.  The
exit code is 1 when any output check fails, and 2 (with no JSON line)
when the benchmark cannot run at all, e.g. without the program's source.

This process imports neither numpy nor the program: a spawned child's
peak RSS starts from its parent's high-water mark, so everything heavy
runs in ``tasks.py`` children.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from spans import Span, layer_metrics, self_times
from stats import median, percentile_or
from workloads import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    SERVICE,
    WORK,
    WORKLOADS,
    stitch_argv,
)

PY = sys.executable
TASKS = ROOT / "perfbench" / "tasks.py"
#: Fresh-interpreter imports of ``repro.cli`` timed before each batch
#: stitch; ``setup_s`` is the median of all of them.  Interleaving them
#: with the stitches lets both see the same state of the host.
IMPORTS_PER_STITCH = 4
#: Timed imports per batch run, at the least.
MIN_IMPORTS = 16
#: Timed server start-ups per service run, half of them before the load
#: and half after it (median reported).
SERVER_REPS = 10
#: Any single child that runs longer than this is killed.
CHILD_TIMEOUT = 150.0


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, crashed task)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc``; returns (exit code, its peak RSS in MB).

    The RSS comes from the kernel's accounting of the waited child
    (``wait4``), which covers the child and every descendant it reaped.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def spawn_measured(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run a child to its end; returns (wall s, exit code, peak RSS MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        rc, rss = wait_child(proc, CHILD_TIMEOUT)
        wall = time.perf_counter() - t0
    return wall, rc, rss


def task(log: Path, *args: str) -> None:
    """Run one ``tasks.py`` step; a failure means the benchmark is broken."""
    _, rc, _ = spawn_measured([PY, str(TASKS), *args], log)
    if rc != 0:
        raise BenchError(f"task {args[0]} exited {rc}:\n{tail(log)}")


def time_imports(work: Path, n: int) -> list[float]:
    """Cold-start times of the CLI: ``n`` fresh interpreters importing it."""
    argv = [PY, "-c", "import repro.cli"]
    log = work / "import.log"
    walls = []
    for _ in range(n):
        wall, rc, _ = spawn_measured(argv, log)
        if rc != 0:
            raise BenchError(f"cannot import repro.cli:\n{tail(log)}")
        walls.append(wall)
    return walls


def measure_imports(work: Path) -> list[float]:
    """:func:`time_imports` after one untimed import, so bytecode
    compilation is not counted."""
    time_imports(work, 1)
    return time_imports(work, MIN_IMPORTS)


def host_facts(args) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "service_rate_jobs_s": SERVICE["rate"],
    }


class Report:
    """Metrics, their sample counts, and the outcome of every check."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        #: Raw samples behind a median, kept for the results file.
        self.raw: dict[str, list[float]] = {}
        self.extra: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def set(self, name: str, value: float, n: int = 1,
            raw: list[float] | None = None) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = n
        if raw is not None:
            self.raw[name] = raw

    def note(self, name: str, value: float, unit: str, n: int) -> None:
        """A figure shown in the table but not part of the JSON result."""
        self.extra[name] = (float(value), unit, n)

    def outcome(self, ok: bool, problems) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.extend(problems or ["failed"])


# -- batch workloads ---------------------------------------------------------


def run_batch(args, work: Path, report: Report) -> None:
    dataset = work / "dataset"
    task(work / "gen.log", "gen", args.workload, str(args.seed), str(dataset))
    if args.trace:
        imports = measure_imports(work)
        report.set("cli.import_s", median(imports), len(imports))
        result = work / "trace.json"
        task(work / "trace.log", "trace-batch", args.workload, str(dataset),
             str(work), str(result))
        traced = json.loads(result.read_text())
        for name, value in traced["metrics"].items():
            report.set(name, value, traced["runs"])
        for check in traced["checks"]:
            report.outcome(check["ok"], check["problems"])
        save_spans(args, traced["spans"])
        return

    time_imports(work, 1)  # untimed: bytecode compilation
    imports, walls, rss, outputs = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(walls) < 3
           or len(imports) < MIN_IMPORTS):
        imports += time_imports(work, IMPORTS_PER_STITCH)
        k = len(walls)
        out, pos = work / f"mosaic{k}.tif", work / f"positions{k}.json"
        log = work / f"stitch{k}.log"
        wall, rc, peak = spawn_measured(
            [PY, "-m", "repro", *stitch_argv(args.workload, dataset, out, pos)],
            log)
        if rc != 0:
            report.outcome(False, [f"stitch {k} exited {rc}:\n{tail(log)}"])
        else:
            outputs.append(f"{out}:{pos}")
        walls.append(wall)
        rss.append(peak)
    checks = work / "checks.json"
    if outputs:
        task(work / "check.log", "check", str(checks), str(dataset), *outputs)
        results = json.loads(checks.read_text())
    else:
        results = []
    for check in results:
        report.outcome(check["ok"], check["problems"])
    errs = [c["pos_err_px"] for c in results if c["pos_err_px"] is not None]
    report.set("setup_s", median(imports), len(imports), imports)
    report.set("stitch_s", median(walls), len(walls), walls)
    report.set("capacity_jobs_s", len(walls) / sum(walls), len(walls))
    report.set("peak_rss_mb", median(rss), len(rss), rss)
    if errs:
        report.note("pos_err_px_max", max(errs), "px", len(errs))


# -- service workload --------------------------------------------------------


class Server:
    """One ``repro serve`` child: start-up timing, readiness, shutdown."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.log_path = log
        self._log = open(log, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.host = self.port = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` shows every worker alive."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if self.port is None:
                m = re.search(r"http://([\d.]+):(\d+)",
                              self.log_path.read_text(errors="replace"))
                if m:
                    self.host, self.port = m.group(1), int(m.group(2))
            if self.port is not None and self._healthy():
                return time.perf_counter() - self.t0
            time.sleep(0.002)
        raise BenchError(f"service did not come up:\n{tail(self.log_path)}")

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            body = json.loads(conn.getresponse().read())
        except (OSError, ValueError):
            return False
        finally:
            conn.close()
        workers = body.get("workers", [])
        return (len(workers) == SERVICE["workers"]
                and all(w["alive"] for w in workers))

    def stop(self) -> tuple[int, float]:
        """SIGINT (the CLI's clean shutdown); returns (exit code, RSS MB)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            return wait_child(self.proc, 30.0)
        except ChildProcessError:
            return self.proc.returncode, 0.0
        finally:
            self._log.close()


def serve_argv(spool: Path) -> list[str]:
    return ["--workers", str(SERVICE["workers"]), "--port", "0",
            "--spool", str(spool),
            "--queue-depth", str(SERVICE["queue_depth"]),
            "--per-tenant", str(SERVICE["queue_depth"])]


def start_server(work: Path, name: str, spans_dir: Path | None = None):
    spool = work / f"spool-{name}"
    if spans_dir is None:
        argv = [PY, "-m", "repro", "serve", *serve_argv(spool)]
    else:
        argv = [PY, str(TASKS), "serve-traced", str(spans_dir), "--",
                *serve_argv(spool)]
    server = Server(argv, work / f"serve-{name}.log")
    try:
        return server, server.wait_ready()
    except BaseException:
        server.stop()
        raise


def drive(args, work: Path, server: Server, name: str, burst: bool) -> dict:
    """Run the load generator against ``server``; returns its job table."""
    result = work / f"load-{name}.json"
    outdir = work / f"out-{name}"
    outdir.mkdir()
    argv = ["loadgen", str(result), "--host", server.host,
            "--port", str(server.port), "--dataset", str(work / "dataset"),
            "--outdir", str(outdir), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    task(work / f"load-{name}.log", *argv, *(["--burst"] if burst else []))
    return json.loads(result.read_text())


def service_jobs(load: dict, report: Report) -> None:
    """Count every job's outcome and every refused submission."""
    rows = list(load["warmup"])
    for phase in load["phases"].values():
        rows += phase["jobs"]
        for _ in range(phase["rejected"]):
            report.outcome(False, ["submission rejected (429)"])
        for problem in phase["refused"]:
            report.outcome(False, [problem])
    for row in rows:
        report.outcome(row["ok"], row["problems"])


def latencies(jobs: list[dict], kind: str | None = None) -> list[float]:
    """Scheduled send time to server-side finish, per completed job."""
    return [j["finished_at"] - j["due"] for j in jobs
            if j["state"] == "done" and kind in (None, j["kind"])]


def backlog_max(jobs: list[dict]) -> int:
    """Most jobs queued (submitted, not started) at any one time."""
    events = []
    for j in jobs:
        if j["started_at"] is not None:
            events += [(j["submitted_at"], 1), (j["started_at"], -1)]
    depth = peak = 0
    for _, step in sorted(events, key=lambda e: (e[0], e[1])):
        depth += step
        peak = max(peak, depth)
    return peak


def run_service(args, work: Path, report: Report) -> None:
    task(work / "gen.log", "gen", args.workload, str(args.seed),
         str(work / "dataset"))
    if args.trace:
        run_service_traced(args, work, report, measure_imports(work))
        return

    def start_stop(names) -> list[float]:
        """Start-up times of servers that are stopped again at once."""
        setups = []
        for name in names:
            server, setup = start_server(work, name)
            setups.append(setup)
            server.stop()
        return setups

    half = SERVER_REPS // 2
    setups = start_stop(f"s{i}" for i in range(half - 1))
    server, setup = start_server(work, "timed")
    setups.append(setup)
    try:
        load = drive(args, work, server, "timed", burst=True)
    finally:
        rc, rss = server.stop()
    if rc != 0:
        report.outcome(False, [f"server exited {rc}:\n{tail(server.log_path)}"])
    service_jobs(load, report)
    setups += start_stop(f"s{i}" for i in range(half, SERVER_REPS))

    open_jobs = load["phases"]["open"]["jobs"]
    burst_jobs = load["phases"]["burst"]["jobs"]
    lat = latencies(open_jobs)
    full = latencies(open_jobs, "full")
    done = [j for j in burst_jobs if j["state"] == "done"]
    span = (max(j["finished_at"] for j in done)
            - min(j["submitted_at"] for j in done)) if done else math.inf
    report.set("setup_s", median(setups), len(setups), setups)
    # With no full job done the run has failed already; 0 marks the gap.
    report.set("stitch_s", median(full) if full else 0.0, len(full), full)
    report.set("capacity_jobs_s", len(done) / span, len(done))
    report.set("peak_rss_mb", rss, 1)
    for q in (50, 90):
        # Too few samples for a percentile reads nan, not a number.
        report.note(f"latency_s_p{q}", percentile_or(lat, q, math.nan), "s",
                    len(lat))
    errs = [j["pos_err_px"] for j in load["warmup"] + open_jobs + burst_jobs
            if j["pos_err_px"] is not None]
    if errs:
        report.note("pos_err_px_max", max(errs), "px", len(errs))
    report.note("loadgen.late_ms_max", load["phases"]["open"]["late_ms_max"],
                "ms", len(open_jobs))
    report.note("service.queue.backlog_max", backlog_max(open_jobs), "count",
                len(open_jobs))


def run_service_traced(args, work: Path, report: Report, imports) -> None:
    """An untraced and a traced server, each under the same open loop."""
    report.set("cli.import_s", median(imports), len(imports))
    loads = {}
    spans_dir = work / "spans"
    spans_dir.mkdir()
    for name, spans in (("untraced", None), ("traced", spans_dir)):
        server, _ = start_server(work, name, spans)
        try:
            loads[name] = drive(args, work, server, name, burst=False)
        finally:
            rc, _ = server.stop()
        if rc != 0:
            report.outcome(False, [f"{name} server exited {rc}"])
        service_jobs(loads[name], report)

    # Both servers ran every full job on one dataset: one set of positions.
    digests = {j["positions_sha"] for load in loads.values()
               for j in load["warmup"] + load["phases"]["open"]["jobs"]
               if j["kind"] == "full" and j["positions_sha"]}
    report.outcome(len(digests) == 1, [
        f"full jobs solved {len(digests)} different position sets across "
        "the traced and untraced servers"])

    untraced = loads["untraced"]["phases"]["open"]
    traced = loads["traced"]["phases"]["open"]
    jobs = traced["jobs"]
    lat = latencies(untraced["jobs"])
    report.set("service.latency_s_p50", percentile_or(lat, 50, 0.0), len(lat))
    report.set("service.latency_s_p90", percentile_or(lat, 90, 0.0), len(lat))
    submit_ms = [j["submit_ms"] for j in jobs]
    report.set("service.client.submit_ms_p50", percentile_or(submit_ms, 50, 0.0),
               len(submit_ms))
    report.set("service.client.submit_ms_p90", percentile_or(submit_ms, 90, 0.0),
               len(submit_ms))
    waits = [j["started_at"] - j["submitted_at"] for j in jobs
             if j["started_at"] is not None]
    report.set("service.queue.wait_s_p50", percentile_or(waits, 50, 0.0), len(waits))
    report.set("service.queue.wait_s_p90", percentile_or(waits, 90, 0.0), len(waits))
    report.set("service.queue.backlog_max", backlog_max(jobs), len(jobs))
    done = [j for j in jobs if j["state"] == "done"]
    for kind in ("full", "reuse"):
        secs = [j["job_seconds"] for j in done if j["kind"] == kind]
        report.set(f"service.pool.{kind}_job_s_p50", percentile_or(secs, 50, 0.0),
                   len(secs))
    phase1 = [j["phase1_seconds"] for j in done if j["kind"] == "full"]
    report.set("service.pool.phase1_s_p50", percentile_or(phase1, 50, 0.0),
               len(phase1))
    dispatch = [((j["finished_at"] - j["started_at"]) - j["job_seconds"]) * 1e3
                for j in done]
    report.set("service.pool.dispatch_ms_p50", percentile_or(dispatch, 50, 0.0),
               len(dispatch))
    hits = sum(j["plan_cache"]["hits"] for j in done if j["kind"] == "full")
    lookups = hits + sum(j["plan_cache"]["misses"] for j in done
                         if j["kind"] == "full")
    report.set("service.pool.plan_hit_ratio", hits / lookups if lookups else 0)
    report.set("service.server.rejected", traced["rejected"])
    report.set("loadgen.late_ms_max", traced["late_ms_max"], traced["sent"])

    # Layer figures from the workers' spans, per job served.
    all_jobs = loads["traced"]["warmup"] + jobs
    spans = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        # Parent indices are per worker; shift them into the merged list.
        base = len(spans)
        for d in json.loads(path.read_text()):
            if d["parent"] is not None:
                d["parent"] += base
            spans.append(Span(**d))
    for name, value in layer_metrics(spans, len(all_jobs)).items():
        report.set(name, value, len(all_jobs))
    job_s = sum(j["job_seconds"] or 0.0 for j in all_jobs)
    report.set("bench.coverage_ratio", sum(self_times(spans)) / job_s)
    base = [j["job_seconds"] for j in untraced["jobs"] if j["job_seconds"]]
    report.set("bench.trace_overhead_ratio",
               (sum(j["job_seconds"] for j in done) / len(done))
               / (sum(base) / len(base)))
    save_spans(args, [span.to_dict() for span in spans])


def save_spans(args, spans: list[dict]) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(spans))


# -- reporting ---------------------------------------------------------------


def emit(args, report: Report, host: dict) -> int:
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in report.metrics]
    for name in missing:
        # A layer this workload never enters did no work.
        if args.trace:
            report.set(name, 0.0, 0)
        else:
            raise BenchError(f"metric {name} was not measured")
    print(f"host: {json.dumps(host)}")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'n':>5}")
    for name in wanted:
        print(f"{name:36} {wanted[name]:8} {report.metrics[name]:12.6g} "
              f"{report.samples[name]:5d}")
    for name, (value, unit, n) in report.extra.items():
        print(f"{name:36} {unit:8} {value:12.6g} {n:5d}")
    print(f"{'error_rate':36} {'ratio':8} "
          f"{report.failed / max(report.attempted, 1):12.6g} "
          f"{report.attempted:5d}   ({report.failed} of {report.attempted})")
    for problem in report.failures:
        print(f"FAILED: {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "host": host, "metrics": report.metrics, "samples": report.samples,
         "raw": report.raw, "extra": report.extra, "attempted": report.attempted,
         "failures": report.failures}, indent=1))
    line = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": wanted[name]}
                    for name in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0 if report.failed == 0 else 1


def run_all(args) -> int:
    """Every workload for one seed, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [PY, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(f"== {workload}")
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    host = host_facts(args)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    report = Report()
    try:
        if args.workload == "service-mix":
            run_service(args, work, report)
        else:
            run_batch(args, work, report)
        return emit(args, report, host)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
