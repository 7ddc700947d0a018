"""Multi-core phase 1 is a scheduling choice: ``workers=2`` == ``workers=1``.

``Stitcher(workers=N)`` runs phase 1 on the shared-memory row-band
scheduler (:class:`~repro.impls.proc_cpu.ProcCpu`) when the bands save
more work than the fork costs, and on the in-process sequential reference
otherwise.  Every option must mean the same thing on both paths:
positions and mosaic bytes are compared exactly, through the facade and
through the CLI, and every multi-worker run is checked to have actually
forked its band workers.  The small grids here would not pay for a fork,
so in-process runs zero the pool's modelled cost; the subprocess kill
test uses a grid big enough to fork on its own.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.stitcher import Stitcher
from repro.fftlib.plans import PlanningMode
from repro.impls import ProcCpu, SimpleGpu
from repro.impls.mt_cpu import row_bands
from repro.recovery.harness import run_until_killed, stitch_argv, subprocess_env
from repro.recovery.journal import checkpoint_journal_path, load_journal
from repro.synth import make_synthetic_dataset

SRC_DIR = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """5x4 grid: two band workers of 3 and 2 rows.

    61 px tiles are not FFT-smooth, so ``pad`` changes the transforms.
    """
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("grid5x4"), rows=5, cols=4,
        tile_height=61, tile_width=61, overlap=0.25, seed=31,
    )


@pytest.fixture(autouse=True)
def always_fork(monkeypatch):
    monkeypatch.setattr(Stitcher, "POOL_OVERHEAD_PX", 0)


@pytest.fixture(scope="module")
def faulty_grid(tmp_path_factory):
    """The CI fault-injection geometry (6x6, seed 23)."""
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("grid6x6"), rows=6, cols=6,
        tile_height=64, tile_width=64, overlap=0.25, seed=23,
    )


# -- facade -------------------------------------------------------------------


@pytest.mark.parametrize("options", [
    {},
    {"pad_to_smooth": True},
    {"refine": True},
    {"planning": PlanningMode.MEASURE},
    {"subpixel": True},
], ids=["default", "pad", "refine", "planning-measure", "subpixel"])
def test_facade_workers_equivalence(grid, options):
    seq = Stitcher(workers=1, **options).stitch(grid)
    par = Stitcher(workers=2, **options).stitch(grid)
    assert seq.implementation == "simple-cpu"
    assert par.implementation == "proc-cpu"
    assert par.stats["process_workers"] == 2
    assert seq.displacements.west == par.displacements.west
    assert seq.displacements.north == par.displacements.north
    assert seq.positions.positions.dtype == par.positions.positions.dtype
    assert np.array_equal(seq.positions.positions, par.positions.positions)
    assert np.array_equal(seq.compose(), par.compose())


def test_subpixel_survives_the_band_workers(grid):
    """Regression: band workers used to drop the sub-pixel estimates."""
    res = Stitcher(workers=2, subpixel=True).stitch(grid)
    assert res.stats["process_workers"] == 2
    west = res.displacements.west[1][1]
    assert west.tx_f is not None and west.ty_f is not None


@pytest.mark.parametrize("rows, cols, px, workers, bands", [
    (4, 4, 64, 2, 1),     # phase 1 measured 2.7x slower with the pool
    (6, 6, 64, 2, 1),     # 1.2x slower
    (4, 4, 256, 2, 1),    # 1.0x: the boundary row is half a band
    (2, 8, 512, 2, 1),    # one-row bands save no rows at all
    (8, 8, 64, 2, 2),     # 0.84x
    (12, 12, 64, 2, 2),   # 0.78x
    (4, 4, 512, 2, 2),    # 0.78x
    (5, 4, 512, 8, 5),    # never more bands than rows
    (42, 59, 96, 1, 1),   # workers=1 is the reference
], ids=str)
def test_fork_decision_follows_the_cost_model(monkeypatch, rows, cols, px,
                                              workers, bands):
    monkeypatch.undo()  # the real pool cost, not always_fork's zero
    ds = SimpleNamespace(rows=rows, cols=cols, tile_shape=(px, px))
    assert Stitcher(workers=workers)._band_count(ds) == bands


def test_small_grid_stays_in_process(monkeypatch, dataset_3x5):
    monkeypatch.undo()
    small = Stitcher(workers=2).stitch(dataset_3x5)
    assert small.implementation == "simple-cpu"
    assert "process_workers" not in small.stats


def test_rejects_bad_scheduler_options():
    with pytest.raises(ValueError):
        Stitcher(workers=0)
    with pytest.raises(ValueError):
        Stitcher(impl="no-such-impl")
    with pytest.raises(ValueError, match="subpixel"):
        SimpleGpu(subpixel=True)


def test_one_metric_vocabulary_and_band_spans(grid):
    res = Stitcher(workers=2, trace=True).stitch(grid)
    hists = res.metrics["histograms"]
    assert "stitch.phase1_seconds" in hists
    assert "stitch.phase2_seconds" in hists
    band_tracks = {
        t for t in res.tracer.tracks() if t.startswith("proc-cpu/band-")
    }
    assert band_tracks == {"proc-cpu/band-0", "proc-cpu/band-1"}
    assert res.tracer.span_count("pair") == 31  # 2*5*4 - 5 - 4


def test_band_workers_hold_a_column_not_two_rows(tmp_path):
    """Live products per band worker stay <= band height + 2."""
    ds = make_synthetic_dataset(
        tmp_path, rows=6, cols=9, tile_height=32, tile_width=32,
        overlap=0.25, seed=5,
    )
    res = ProcCpu(workers=2).run(ds)
    peaks = res.stats["band_peak_live"]
    heights = [r1 - r0 for r0, r1 in row_bands(6, 2)]
    assert len(peaks) == 2
    for peak, height in zip(peaks, heights):
        assert peak <= height + 2
    # Row by row, a band would hold two full rows (18 tiles).
    assert res.stats["peak_live_transforms"] < 2 * ds.cols


# -- CLI ----------------------------------------------------------------------


def _stitch(ds_dir, out_dir: Path, workers: int, *flags):
    out_dir.mkdir(parents=True, exist_ok=True)
    pos, mosaic = out_dir / "pos.json", out_dir / "mosaic.tif"
    assert main(["stitch", str(ds_dir), "-o", str(mosaic),
                 "--positions-json", str(pos), "--workers", str(workers),
                 *flags]) == 0
    return pos.read_bytes(), mosaic.read_bytes()


@pytest.mark.parametrize("flags", [
    [],
    ["--pad"],
    ["--refine"],
    ["--planning", "measure"],
    ["--quality-gate"],
    ["--coarse-registration"],
    ["--paper-faithful"],
    ["--complex-transforms"],
    ["--no-tile-stats"],
], ids=lambda f: " ".join(f) or "default")
def test_cli_workers_equivalence(grid, tmp_path, flags):
    seq = _stitch(grid.directory, tmp_path / "w1", 1, *flags)
    par = _stitch(grid.directory, tmp_path / "w2", 2, "--metrics", *flags)
    assert seq == par


def test_cli_backend_proc_keeps_pad_refine_planning(grid, tmp_path, capsys):
    """Regression: the old ``--backend`` branch dropped these options."""
    # A shifted tile gives refine pairs to repair, so a dropped --refine
    # moves positions; padded transforms change every pair's peak ratio,
    # which the journals record.
    flags = ["--pad", "--refine", "--planning", "measure",
             "--inject-faults", "5:shift=1"]
    seq = _stitch(grid.directory, tmp_path / "w1", 1, *flags,
                  "--checkpoint", str(tmp_path / "ckpt1"))
    capsys.readouterr()
    par = _stitch(grid.directory, tmp_path / "proc", 2, "--backend", "proc",
                  "--metrics", *flags, "--checkpoint", str(tmp_path / "ckpt2"))
    assert seq == par
    journals = [load_journal(checkpoint_journal_path(tmp_path / d)).pairs
                for d in ("ckpt1", "ckpt2")]
    assert journals[0] == journals[1]
    metrics = capsys.readouterr().out
    assert "stitch.phase1_seconds" in metrics
    assert "stitch.phase2_seconds" in metrics


def test_scheduler_receives_every_phase1_option(grid):
    stitcher = Stitcher(workers=2, pad_to_smooth=True, subpixel=True,
                        planning=PlanningMode.MEASURE)
    impl = stitcher._implementation(grid, None, None, None)
    assert isinstance(impl, ProcCpu)
    assert impl.fft_shape == (63, 63)
    assert impl.subpixel and impl.planning is PlanningMode.MEASURE


def test_cli_default_trace_carries_band_spans(grid, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["stitch", str(grid.directory), "--workers", "2",
                 "--trace", str(trace)]) == 0
    events = json.loads(trace.read_text())
    names = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    busy = {names[e["pid"], e["tid"]] for e in events if e["ph"] == "X"}
    assert {"proc-cpu/band-0", "proc-cpu/band-1"} <= busy


def test_cli_fault_injection_skip_mode(faulty_grid, tmp_path):
    flags = ["--inject-faults", "42", "--max-retries", "2",
             "--on-tile-error", "skip"]
    reports = []
    outputs = []
    for workers in (1, 2):
        report = tmp_path / f"report{workers}.json"
        outputs.append(_stitch(faulty_grid.directory, tmp_path / f"w{workers}",
                               workers, *flags, "--fault-report", str(report)))
        reports.append(json.loads(report.read_text()))
    assert outputs[0] == outputs[1]
    assert reports[1]["implementation"] == "proc-cpu"
    # Workers' fault triggers are folded back into the parent's plan, so
    # compose does not re-trigger transient faults phase 1 consumed.
    assert reports[0]["triggered"] == reports[1]["triggered"]
    assert (reports[0]["fault_report"]["skipped_tiles"]
            == reports[1]["fault_report"]["skipped_tiles"])


def test_cli_kill_then_resume(monkeypatch, tmp_path):
    monkeypatch.undo()
    grid = make_synthetic_dataset(
        tmp_path / "grid", rows=10, cols=8, tile_height=64, tile_width=64,
        overlap=0.25, seed=31,
    )
    # Big enough that the killed child process forks its bands too.
    assert Stitcher(workers=2)._band_count(grid) == 2
    reference = _stitch(grid.directory, tmp_path / "ref", 1)
    ckpt = tmp_path / "ckpt"
    killed = run_until_killed(
        stitch_argv(grid.directory, ckpt, impl="stitcher",
                    extra=["--workers", "2",
                           "--inject-faults", "3:slow=10,latency=0.2"]),
        checkpoint_journal_path(ckpt), kill_after_records=4,
        timeout=120.0, env=subprocess_env(SRC_DIR),
    )
    assert killed.killed
    resumed = _stitch(grid.directory, tmp_path / "resumed", 2,
                      "--checkpoint", str(ckpt), "--resume")
    assert resumed == reference
