"""Workload definitions and metric tables shared by the benchmark scripts.

Stdlib only: the orchestrator (``run.py``) imports this and must stay
free of numpy, because a spawned child's peak-RSS accounting starts from
its parent's high-water mark.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
#: Working space inside the checkout (listed in ``.gitignore``).
WORK = ROOT / ".perfbench_work"

#: Batch workloads: one ``python -m repro stitch DS -o OUT.tif`` per sample.
BATCH = {
    "tiles-512": {"rows": 10, "cols": 10, "tile": 512, "overlap": 0.15,
                  "flags": []},
    "paper-grid": {"rows": 42, "cols": 59, "tile": 96, "overlap": 0.15,
                   "flags": ["--quality-gate"]},
}

#: The service workload: ``repro serve`` plus an open-loop job generator.
SERVICE = {
    "rows": 6, "cols": 6, "tile": 384, "overlap": 0.15,
    "workers": 2,
    #: Open-loop arrival rate, jobs/s: near half the slower capacity
    #: measured at the commit that introduced this benchmark (8.6-9.4
    #: jobs/s on a 2-core host in its slow phases, 15.6 when quiet).
    #: At 20 s a run sends 100 jobs, enough for a p90.
    "rate": 5.0,
    #: Jobs sent at once after the open loop, to measure capacity.
    "burst": 120,
    "memory_budget": 8 << 20,
    "blend": "linear",
    #: Admission limits above the burst, so that no job is refused.
    "queue_depth": 256,
}

WORKLOADS = (*BATCH, "service-mix")

#: Tile origins may differ from the synthetic ground truth by at most this.
MAX_POS_ERR_PX = 1.0

#: End-to-end metrics (every workload reports each one) and their units.
END_TO_END = {
    "setup_s": "s",
    "stitch_s": "s",
    "capacity_jobs_s": "jobs/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run; a layer a workload never enters
#: reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.dataset.read_s": "s",
    "io.dataset.reads": "count",
    "io.dataset.read_mb": "MB",
    "core.pciam.forward_fft_s": "s",
    "core.pciam.forward_ffts": "count",
    "core.tilestats.build_s": "s",
    "core.tilestats.builds": "count",
    "core.pciam.pair_s": "s",
    "core.pciam.pairs": "count",
    "core.pciam.pair_ms_p50": "ms",
    "core.pciam.pair_ms_p90": "ms",
    "core.displacement.self_s": "s",
    "core.global_opt.solve_s": "s",
    "core.compose.render_s": "s",
    "core.compose.mpix_s": "Mpx/s",
    "io.tiff.write_s": "s",
    "io.tiff.write_mb": "MB",
    "core.streamcompose.render_s": "s",
    "core.streamcompose.cache_hit_ratio": "ratio",
    "core.streamcompose.peak_mb": "MB",
    "core.streamcompose.stripes": "count",
    "service.latency_s_p50": "s",
    "service.latency_s_p90": "s",
    "service.client.submit_ms_p50": "ms",
    "service.client.submit_ms_p90": "ms",
    "service.queue.wait_s_p50": "s",
    "service.queue.wait_s_p90": "s",
    "service.queue.backlog_max": "count",
    "service.pool.full_job_s_p50": "s",
    "service.pool.reuse_job_s_p50": "s",
    "service.pool.phase1_s_p50": "s",
    "service.pool.dispatch_ms_p50": "ms",
    "service.pool.plan_hit_ratio": "ratio",
    "service.server.rejected": "count",
    "loadgen.late_ms_max": "ms",
    "bench.coverage_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}

#: Layer entry points, at the names their callers look up:
#: ``(module:attribute, span name)``.
LAYER_TARGETS = (
    ("repro.core.stitcher:compute_grid_displacements", "core.displacement"),
    ("repro.core.displacement:forward_fft", "core.pciam.forward_fft"),
    ("repro.core.displacement:TileStats", "core.tilestats"),
    ("repro.core.displacement:pciam", "core.pciam.pair"),
    ("repro.io.dataset:TileDataset.load", "io.dataset.read"),
    ("repro.core.stitcher:resolve_absolute_positions", "core.global_opt"),
    ("repro.core.stitcher:compose", "core.compose"),
    ("repro.io.tiff:write_tiff", "io.tiff.write"),
    ("repro.core.streamcompose:stream_compose_to_tiff", "core.streamcompose"),
)


def dataset_params(workload: str) -> dict:
    """Synthetic-dataset geometry of a workload."""
    spec = BATCH.get(workload, SERVICE if workload == "service-mix" else None)
    if spec is None:
        raise KeyError(f"unknown workload {workload!r}")
    return {"rows": spec["rows"], "cols": spec["cols"],
            "tile_height": spec["tile"], "tile_width": spec["tile"],
            "overlap": spec["overlap"]}


def stitch_argv(workload: str, dataset: Path, output: Path,
                positions: Path) -> list[str]:
    """Arguments after ``repro`` for one batch stitch."""
    return ["stitch", str(dataset), "-o", str(output),
            "--positions-json", str(positions), *BATCH[workload]["flags"]]


def job_mix(seed: int, n: int) -> list[str]:
    """A seeded shuffle of one third ``full`` and two thirds ``reuse``."""
    kinds = ["full"] * (n // 3) + ["reuse"] * (n - n // 3)
    random.Random(seed).shuffle(kinds)
    return kinds


def job_spec(kind: str, dataset: Path, output: Path,
             source_job: str | None) -> dict:
    """The service job for one entry of the mix."""
    spec = {
        "dataset": str(dataset),
        "tenant": "bench",
        "options": {"memory_budget": SERVICE["memory_budget"]},
        "output": str(output),
        "blend": SERVICE["blend"],
    }
    if kind == "full":
        spec["options"]["quality"] = True
    else:
        spec["reuse_positions_from"] = source_job
    return spec
