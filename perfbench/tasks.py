"""Child-process tasks of the benchmark: everything that imports the program.

``run.py`` stays free of numpy and spawns this script for each task::

    python perfbench/tasks.py gen WORKLOAD SEED DIR
    python perfbench/tasks.py check RESULT.json DATASET OUT.tif:POS.json ...
    python perfbench/tasks.py trace-batch WORKLOAD DATASET WORKDIR RESULT.json
    python perfbench/tasks.py loadgen RESULT.json --host H --port P ...
    python perfbench/tasks.py serve-traced SPANS.json -- SERVE-ARGS...

Each task writes its findings as JSON to the path it is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from pathlib import Path

from spans import Recorder, install, layer_metrics, self_times
from workloads import (
    LAYER_TARGETS,
    MAX_POS_ERR_PX,
    SERVICE,
    dataset_params,
    job_mix,
    job_spec,
    stitch_argv,
)


def _dump(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


# -- inputs ------------------------------------------------------------------


def generate(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's synthetic tile directory for ``seed``."""
    from repro.synth import make_synthetic_dataset

    make_synthetic_dataset(directory, seed=seed, **dataset_params(workload))


# -- output checks -----------------------------------------------------------


def position_error(dataset: Path, positions) -> float:
    """Largest |recovered - true| tile origin, both normalised to (0, 0)."""
    import numpy as np

    meta = json.loads((Path(dataset) / "dataset.json").read_text())
    true = np.asarray(meta["true_positions"], dtype=np.int64)
    true = true - true.reshape(-1, 2).min(axis=0)
    got = np.asarray(positions, dtype=np.int64)
    got = got - got.reshape(-1, 2).min(axis=0)
    return float(np.linalg.norm((got - true).astype(np.float64), axis=-1).max())


def check_mosaic(dataset: Path, output: Path, positions) -> list[str]:
    """Problems with a published mosaic: missing, wrong shape or dtype."""
    import numpy as np

    from repro.io.tiff import TiffReader

    meta = json.loads((Path(dataset) / "dataset.json").read_text())
    pos = np.asarray(positions, dtype=np.int64)
    pos = pos - pos.reshape(-1, 2).min(axis=0)
    want = (int(pos[..., 0].max()) + meta["tile_height"],
            int(pos[..., 1].max()) + meta["tile_width"])
    if not Path(output).is_file():
        return [f"{output}: mosaic not published"]
    problems = []
    with TiffReader(output) as reader:
        if (reader.height, reader.width) != want:
            problems.append(f"{output}: shape {(reader.height, reader.width)}"
                            f", expected {want}")
        if reader.dtype != np.uint16:
            problems.append(f"{output}: dtype {reader.dtype}, expected uint16")
        last = reader.read_rows(reader.height - 1, reader.height)
        if last.shape != (1, reader.width):
            problems.append(f"{output}: last row unreadable")
    return problems


def check_stitch(dataset: Path, output: Path, positions_json: Path) -> dict:
    """Accuracy and mosaic checks of one CLI stitch.

    A check that cannot even run (unreadable positions, a torn mosaic)
    is a failed check, not a crash of the benchmark.
    """
    try:
        positions = json.loads(Path(positions_json).read_text())
        err = position_error(dataset, positions)
        problems = check_mosaic(dataset, output, positions)
    except Exception as exc:
        return {"ok": False, "pos_err_px": None,
                "problems": [f"{output}: check raised {exc!r}"]}
    if err > MAX_POS_ERR_PX:
        problems.append(f"tile off by {err:.1f} px (> {MAX_POS_ERR_PX})")
    return {"ok": not problems, "pos_err_px": err, "problems": problems,
            "positions": positions}


# -- traced batch run --------------------------------------------------------


def _read_info(args, kwargs, result):
    dataset, row, col = args[0], args[1], args[2]
    return {"bytes": dataset.path(row, col).stat().st_size}


def _compose_info(args, kwargs, result):
    canvas = result[0] if isinstance(result, tuple) else result
    return {"pixels": int(canvas.size)}


def _write_info(args, kwargs, result):
    arr = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": int(arr.nbytes)}


def _stream_info(args, kwargs, result):
    cache = result.cache or {}
    return {"stripes": int(result.stripes), "peak_bytes": int(result.peak_bytes),
            "cache_hits": int(cache.get("hits", 0)),
            "cache_misses": int(cache.get("misses", 0))}


_INFO = {
    "io.dataset.read": _read_info,
    "core.compose": _compose_info,
    "io.tiff.write": _write_info,
    "core.streamcompose": _stream_info,
}


def layer_targets():
    return [(path, name, _INFO.get(name)) for path, name in LAYER_TARGETS]


def trace_batch(workload: str, dataset: Path, workdir: Path,
                result_path: Path, reps: int = 2) -> None:
    """Untraced and traced in-process CLI runs, alternating.

    The first untraced run is a warm-up that pays the CLI's lazy imports;
    after it, ``reps`` untraced and ``reps`` traced runs alternate.
    """
    import repro.cli

    recorder = Recorder()
    walls = {"untraced": [], "traced": []}
    checks = []

    def one(label: str, k: int, traced: bool) -> None:
        out = workdir / f"{label}{k}.tif"
        pos = workdir / f"{label}{k}.json"
        argv = stitch_argv(workload, dataset, out, pos)
        if traced:
            recorder.run = k
            undo = install(recorder, layer_targets())
            try:
                main = recorder.wrap("cli.main", repro.cli.main)
                t0 = time.perf_counter()
                rc = main(argv)
                wall = time.perf_counter() - t0
            finally:
                undo()
        else:
            t0 = time.perf_counter()
            rc = repro.cli.main(argv)
            wall = time.perf_counter() - t0
        check = check_stitch(dataset, out, pos) if rc == 0 else {
            "ok": False, "pos_err_px": None, "problems": [f"exit {rc}"]}
        check["label"] = label
        checks.append(check)
        out.unlink(missing_ok=True)
        if k >= 0:
            walls[label].append(wall)

    one("untraced", -1, False)
    for k in range(reps):
        one("untraced", k, False)
        one("traced", k, True)

    spans = recorder.spans
    roots = [s for s in spans if s.parent is None]
    root_wall = sum(s.duration for s in roots)
    covered = sum(own for s, own in zip(spans, self_times(spans))
                  if s.parent is not None)
    metrics = layer_metrics(spans, reps)
    metrics["bench.coverage_ratio"] = covered / root_wall
    metrics["bench.trace_overhead_ratio"] = (
        sum(walls["traced"]) / sum(walls["untraced"]))
    # Traced and untraced runs must solve identical positions.
    reference = checks[0].get("positions")
    for check in checks:
        if check.get("positions") is not None and check["positions"] != reference:
            check["ok"] = False
            check["problems"].append(
                f"{check['label']} positions differ from the first run")
    for check in checks:
        check.pop("positions", None)
    _dump(result_path, {
        "runs": reps,
        "metrics": metrics,
        "checks": checks,
        "walls": walls,
        "spans": [s.to_dict() for s in spans],
    })


# -- service load generator --------------------------------------------------


def loadgen(args) -> None:
    """Warm up, send the mix open loop, then (optionally) as one burst.

    One sender thread keeps the schedule; one checker thread polls the
    oldest unfinished job, checks its output and deletes it.
    """
    from repro.service.client import (
        BackpressureError,
        ServiceClient,
        ServiceError,
    )

    client = ServiceClient(args.host, args.port, timeout=60.0)
    dataset = Path(args.dataset)
    outdir = Path(args.outdir)
    positions_by_job: dict[str, list] = {}

    def check_output(row: dict, result: dict, kind: str,
                     source: str | None) -> list[str]:
        positions = json.loads(
            Path(result["positions_path"]).read_text())["positions"]
        positions_by_job[row["id"]] = positions
        row["positions_sha"] = hashlib.sha256(
            json.dumps(positions).encode()).hexdigest()
        problems = []
        if kind == "full":
            row["pos_err_px"] = position_error(dataset, positions)
            if row["pos_err_px"] > MAX_POS_ERR_PX:
                problems.append(f"job {row['id']}: tile off by "
                                f"{row['pos_err_px']:.1f} px")
        elif positions != positions_by_job.get(source):
            problems.append(f"job {row['id']}: reused positions "
                            "differ from the source job's")
        return problems + check_mosaic(dataset, Path(result["output"]),
                                       positions)

    def check_done(record: dict, kind: str, source: str | None) -> dict:
        row = {"kind": kind, "id": record.get("id"),
               "state": record.get("state"),
               "submitted_at": record.get("submitted_at"),
               "started_at": record.get("started_at"),
               "finished_at": record.get("finished_at"), "ok": False,
               "pos_err_px": None, "positions_sha": None}
        result = record.get("result") or {}
        row["job_seconds"] = result.get("job_seconds")
        row["phase1_seconds"] = result.get("phase1_seconds")
        row["plan_cache"] = {k: (result.get("plan_cache") or {}).get(k, 0)
                             for k in ("hits", "misses")}
        row["compose"] = {k: v for k, v in (result.get("compose") or {}).items()
                          if k in ("stripes", "peak_bytes", "cache")}
        problems = []
        if row["state"] != "done":
            problems.append(f"job {row['id']} {row['state']}: "
                            f"{record.get('error')}")
        else:
            try:
                problems += check_output(row, result, kind, source)
            except Exception as exc:
                problems.append(f"job {row['id']}: check raised {exc!r}")
            finally:
                if result.get("output"):
                    Path(result["output"]).unlink(missing_ok=True)
        row["ok"] = not problems
        row["problems"] = problems
        return row

    def failed_row(kind: str, job_id: str | None, problem: str) -> dict:
        return {"kind": kind, "id": job_id, "state": "unknown", "ok": False,
                "submitted_at": None, "started_at": None, "finished_at": None,
                "job_seconds": None, "phase1_seconds": None,
                "pos_err_px": None, "positions_sha": None,
                "problems": [f"job {job_id}: {problem}"]}

    def wait_all(pending: list) -> list[dict]:
        rows = []
        for job_id, kind, source, extra in pending:
            try:
                record = client.wait(job_id, timeout=120.0, poll=0.05)
            except (ServiceError, OSError) as exc:  # incl. TimeoutError
                rows.append({**failed_row(kind, job_id, repr(exc)), **extra})
                continue
            rows.append({**check_done(record, kind, source), **extra})
        return rows

    def submit(kind: str, name: str, source: str | None) -> dict:
        return client.submit(job_spec(kind, dataset, outdir / f"{name}.tif",
                                      source))

    # Warm-up: one full job per worker, then reuse jobs on the first one.
    warm_rows: list[dict] = []

    def warm_up(kind: str, source: str | None) -> list[str]:
        pending = []
        for i in range(SERVICE["workers"]):
            try:
                job = submit(kind, f"warm-{kind}{i}", source)
            except (ServiceError, OSError) as exc:
                warm_rows.append(failed_row(kind, None, f"refused: {exc!r}"))
            else:
                pending.append((job["id"], kind, source, {}))
        warm_rows.extend(wait_all(pending))
        return [job_id for job_id, *_ in pending]

    source = (warm_up("full", None) or [None])[0]
    warm_up("reuse", source)

    def run_phase(name: str, kinds: list[str], rate: float | None) -> dict:
        pending: list = []
        rows: list = []
        rejected = 0
        #: Submissions answered with another error than 429.
        refused: list[str] = []
        lock = threading.Lock()
        sent_all = threading.Event()
        errors: list[BaseException] = []

        def checker() -> None:
            try:
                while True:
                    with lock:
                        item = pending.pop(0) if pending else None
                        finished = item is None and sent_all.is_set()
                    if finished:
                        return
                    if item is None:
                        time.sleep(0.01)
                    else:
                        rows.extend(wait_all([item]))
            except Exception as exc:  # re-raised by the sender after join
                errors.append(exc)

        thread = threading.Thread(target=checker, name="checker")
        thread.start()
        start = time.monotonic() + 0.05
        late_ms = []
        try:
            for i, kind in enumerate(kinds):
                due = start + i / rate if rate else time.monotonic()
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                late_ms.append((sent - due) * 1e3)
                try:
                    record = submit(kind, f"{name}{i}", source)
                except BackpressureError:
                    rejected += 1
                    continue
                except (ServiceError, OSError) as exc:
                    refused.append(f"submission {name}{i} refused: {exc!r}")
                    continue
                submit_ms = (time.monotonic() - sent) * 1e3
                with lock:
                    pending.append((record["id"], kind, source,
                                    {"due": due, "submit_ms": submit_ms}))
        finally:
            sent_all.set()
            thread.join()
        if errors:
            raise errors[0]
        rows.sort(key=lambda r: r["due"])
        return {"jobs": rows, "rejected": rejected, "refused": refused,
                "late_ms_max": max(late_ms), "sent": len(kinds)}

    n = max(1, round(SERVICE["rate"] * args.seconds))
    phases = {"open": run_phase("open", job_mix(args.seed, n), SERVICE["rate"])}
    if args.burst:
        phases["burst"] = run_phase(
            "burst", job_mix(args.seed + 1, SERVICE["burst"]), None)
    _dump(Path(args.result), {"warmup": warm_rows, "phases": phases})


# -- traced server -----------------------------------------------------------


def serve_traced(spans_dir: Path, serve_args: list[str]) -> int:
    """Run ``repro serve`` with layer wrappers inherited by forked workers.

    Each worker writes its spans to ``spans_dir/spans-<pid>.json`` when it
    exits at server shutdown.
    """
    import multiprocessing.util as mp_util

    import repro.cli

    recorder = Recorder()
    install(recorder, layer_targets())

    def dump(rec: Recorder) -> None:
        _dump(spans_dir / f"spans-{os.getpid()}.json",
              [s.to_dict() for s in rec.spans])

    def arm(rec: Recorder) -> None:
        rec.spans.clear()
        mp_util.Finalize(rec, dump, args=(rec,), exitpriority=0)

    mp_util.register_after_fork(recorder, arm)
    return repro.cli.main(["serve", *serve_args])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/tasks.py")
    sub = p.add_subparsers(dest="task", required=True)
    s = sub.add_parser("gen")
    s.add_argument("workload")
    s.add_argument("seed", type=int)
    s.add_argument("directory", type=Path)
    s = sub.add_parser("check")
    s.add_argument("result", type=Path)
    s.add_argument("dataset", type=Path)
    s.add_argument("outputs", nargs="+", help="OUT.tif:POSITIONS.json")
    s = sub.add_parser("trace-batch")
    s.add_argument("workload")
    s.add_argument("dataset", type=Path)
    s.add_argument("workdir", type=Path)
    s.add_argument("result", type=Path)
    s = sub.add_parser("loadgen")
    s.add_argument("result", type=Path)
    s.add_argument("--host", required=True)
    s.add_argument("--port", type=int, required=True)
    s.add_argument("--dataset", required=True)
    s.add_argument("--outdir", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--burst", action="store_true")
    s = sub.add_parser("serve-traced")
    s.add_argument("spans_dir", type=Path)
    s.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)

    if args.task == "gen":
        generate(args.workload, args.seed, args.directory)
    elif args.task == "check":
        results = []
        for item in args.outputs:
            out, _, pos = item.partition(":")
            check = check_stitch(args.dataset, Path(out), Path(pos))
            check.pop("positions", None)
            results.append(check)
        _dump(args.result, results)
    elif args.task == "trace-batch":
        trace_batch(args.workload, args.dataset, args.workdir, args.result)
    elif args.task == "loadgen":
        loadgen(args)
    elif args.task == "serve-traced":
        rest = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
            else args.serve_args
        return serve_traced(args.spans_dir, rest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
