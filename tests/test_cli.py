"""CLI: synth / stitch / info / simulate subcommands."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestSynth:
    def test_creates_dataset(self, tmp_path, capsys):
        rc = main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "2",
                   "--tile-size", "48", "--overlap", "0.2", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "ds" / "dataset.json").exists()
        assert "wrote 6 tiles" in capsys.readouterr().out


class TestStitch:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "2"])
        return tmp_path / "ds"

    def test_stitch_to_mosaic(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "mosaic.tif"
        rc = main(["stitch", str(dataset_dir), "-o", str(out)])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "max 0.0 px" in text

    def test_positions_json(self, dataset_dir, tmp_path):
        pj = tmp_path / "pos.json"
        main(["stitch", str(dataset_dir), "--positions-json", str(pj)])
        pos = np.asarray(json.loads(pj.read_text()))
        assert pos.shape == (3, 3, 2)

    def test_flags(self, dataset_dir, tmp_path):
        rc = main(["stitch", str(dataset_dir),
                   "--pad", "--refine",
                   "--positions", "least_squares",
                   "--blend", "linear",
                   "-o", str(tmp_path / "m.tif")])
        assert rc == 0

    def test_paper_faithful_mode(self, dataset_dir):
        assert main(["stitch", str(dataset_dir), "--paper-faithful"]) == 0

    def test_coarse_registration_matches_full(self, dataset_dir, tmp_path,
                                              capsys):
        full = tmp_path / "full.json"
        coarse = tmp_path / "coarse.json"
        assert main(["stitch", str(dataset_dir),
                     "--positions-json", str(full)]) == 0
        capsys.readouterr()
        assert main(["stitch", str(dataset_dir), "--coarse-registration",
                     "--positions-json", str(coarse)]) == 0
        text = capsys.readouterr().out
        # The CI-greppable summary line: hits + fallbacks with the knobs.
        assert "coarse:" in text and "hits" in text and "fallbacks" in text
        assert json.loads(full.read_text()) == json.loads(coarse.read_text())

    def test_coarse_scale_and_thresh_imply_coarse(self, dataset_dir, capsys):
        assert main(["stitch", str(dataset_dir),
                     "--coarse-scale", "0.5",
                     "--coarse-conf-thresh", "0.9"]) == 0
        assert "conf >= 0.9" in capsys.readouterr().out

    def test_coarse_on_impl_path(self, dataset_dir, capsys):
        assert main(["stitch", str(dataset_dir), "--impl", "mt-cpu",
                     "--coarse-registration"]) == 0
        assert "coarse:" in capsys.readouterr().out

    def test_bad_coarse_scale_errors(self, dataset_dir):
        with pytest.raises(ValueError):
            main(["stitch", str(dataset_dir), "--coarse-scale", "0.7"])

    def test_outline(self, dataset_dir, tmp_path):
        out = tmp_path / "o.tif"
        assert main(["stitch", str(dataset_dir), "-o", str(out), "--outline"]) == 0


class TestOneOutputMeaning:
    """Every ``-o`` path writes the same mosaic bytes: one compose engine,
    one quantization (identity, then clip to uint16)."""

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one-output")
        main(["synth", str(root / "ds"), "--rows", "3", "--cols", "4",
              "--tile-size", "48", "--overlap", "0.25", "--seed", "5"])
        return root / "ds"

    @pytest.mark.parametrize("outline", [False, True])
    @pytest.mark.parametrize("blend", ["overlay", "linear"])
    def test_default_budget_and_pyramid_bytes_identical(
        self, dataset_dir, tmp_path, capsys, blend, outline
    ):
        base = ["stitch", str(dataset_dir), "--blend", blend]
        if outline:
            base.append("--outline")
        variants = {
            "default": [],
            "budget-8M": ["--memory-budget", "8M"],
            # Small enough that every tile straddles several stripes.
            "budget-64K": ["--memory-budget", "64K"],
            "pyramid": ["--pyramid", "1"],
        }
        mosaics = {}
        for name, extra in variants.items():
            out = tmp_path / f"{name}.tif"
            assert main([*base, "-o", str(out), *extra]) == 0
            mosaics[name] = out.read_bytes()
        assert "streamed" in capsys.readouterr().out
        for name, data in mosaics.items():
            assert data == mosaics["default"], name
        if outline:
            from repro.io.tiff import read_tiff

            # Every one of the 12 tile borders is drawn at the uint16 max.
            top = read_tiff(tmp_path / "default.tif") == 65535
            assert top.sum() >= 12 * (4 * 48 - 4) // 2

    def test_default_is_clipped_compose(self, dataset_dir, tmp_path):
        """No max-normalization: tile values pass through unchanged."""
        from repro.core.compose import BlendMode
        from repro.core.stitcher import Stitcher
        from repro.io.dataset import TileDataset
        from repro.io.tiff import read_tiff

        out = tmp_path / "m.tif"
        assert main(["stitch", str(dataset_dir), "-o", str(out),
                     "--blend", "linear"]) == 0
        res = Stitcher().stitch(TileDataset(dataset_dir))
        ref = res.compose(BlendMode.LINEAR, dtype=np.float64)
        expected = np.clip(ref, 0, 65535).astype(np.uint16)
        assert np.array_equal(read_tiff(out), expected)

    def test_default_trace_has_compose_stripes(self, dataset_dir, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["stitch", str(dataset_dir), "-o", str(tmp_path / "m.tif"),
                     "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())
        stripes = [e for e in events
                   if e["ph"] == "X" and e["name"] == "compose.stripe"]
        assert stripes


class TestInfo:
    def test_dataset_info(self, tmp_path, capsys):
        main(["synth", str(tmp_path / "ds"), "--rows", "2", "--cols", "2",
              "--tile-size", "32"])
        capsys.readouterr()
        main(["info", str(tmp_path / "ds")])
        out = capsys.readouterr().out
        assert "grid: 2 x 2" in out
        assert "ground truth: yes" in out

    def test_tiff_info(self, tmp_path, capsys):
        from repro.io.tiff import write_tiff

        p = tmp_path / "t.tif"
        write_tiff(p, np.zeros((10, 12), dtype=np.uint16), description="hi")
        main(["info", str(p)])
        out = capsys.readouterr().out
        assert "10 x 12" in out and "hi" in out


class TestSimulate:
    def test_small_projection(self, capsys):
        rc = main(["simulate", "--rows", "6", "--cols", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipelined-gpu" in out and "simple-cpu" in out

    def test_laptop_machine(self, capsys):
        assert main(["simulate", "--machine", "laptop",
                     "--rows", "4", "--cols", "4"]) == 0


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_spelled_out_choices_match_the_code():
    """``--impl``/``--blend`` choices are literals so that building the
    parser imports no numpy; they must name what the code provides."""
    from repro.cli import _BLEND_NAMES, _IMPL_NAMES
    from repro.core.streamcompose import BlendMode
    from repro.impls import ALL_IMPLEMENTATIONS

    assert _IMPL_NAMES == tuple(sorted(ALL_IMPLEMENTATIONS))
    assert _BLEND_NAMES == tuple(m.value for m in BlendMode)


class TestWisdom:
    def test_wisdom_saved_and_reused(self, tmp_path, capsys):
        main(["synth", str(tmp_path / "ds"), "--rows", "2", "--cols", "2",
              "--tile-size", "48"])
        wisdom = tmp_path / "wisdom.json"
        main(["stitch", str(tmp_path / "ds"), "--planning", "measure",
              "--wisdom", str(wisdom)])
        assert wisdom.exists()
        capsys.readouterr()
        main(["stitch", str(tmp_path / "ds"), "--planning", "measure",
              "--wisdom", str(wisdom)])
        out = capsys.readouterr().out
        assert "imported" in out


class TestImplSelection:
    @pytest.fixture
    def ds_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "9"])
        return tmp_path / "ds"

    @pytest.mark.parametrize("impl", ["simple-cpu", "pipelined-cpu", "pipelined-gpu"])
    def test_impl_choices(self, ds_dir, impl, capsys):
        rc = main(["stitch", str(ds_dir), "--impl", impl])
        assert rc == 0
        assert "max 0.0 px" in capsys.readouterr().out

    def test_pattern_discovery(self, ds_dir, capsys):
        (ds_dir / "dataset.json").unlink()
        rc = main(["stitch", str(ds_dir), "--pattern",
                   "img_r{row:03d}_c{col:03d}.tif", "--overlap", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "discovered 3x3 grid" in out


class TestMoreImplFlags:
    def test_numa_and_multi_gpu(self, tmp_path, capsys):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "4",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "3"])
        capsys.readouterr()
        rc = main(["stitch", str(tmp_path / "ds"),
                   "--impl", "pipelined-cpu-numa", "--workers", "2"])
        assert rc == 0
        rc = main(["stitch", str(tmp_path / "ds"),
                   "--impl", "pipelined-gpu", "--gpus", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("max 0.0 px") == 2


class TestRobustnessFlags:
    @pytest.fixture
    def ds_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "5"])
        return tmp_path / "ds"

    def test_real_transforms_flag_removed(self, ds_dir, capsys):
        with pytest.raises(SystemExit):
            main(["stitch", str(ds_dir), "--real-transforms"])
        assert "--real-transforms" in capsys.readouterr().err

    def test_quality_gate_flag(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--quality-gate"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_quality_knobs_imply_gate(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir),
                     "--positions", "least_squares",
                     "--conf-thresh", "0.2",
                     "--residue-mode", "huber",
                     "--min-peak-ratio", "1.0"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_quality_gate_on_impl_path(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--impl", "mt-cpu",
                     "--quality-gate"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, ds_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                     "--positions-json", str(pa)]) == 0
        assert (ckpt / "journal.jsonl").exists()
        capsys.readouterr()
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                     "--resume", "--positions-json", str(pb)]) == 0
        assert "(0 pairs)" in capsys.readouterr().out  # nothing recomputed
        assert json.loads(pa.read_text()) == json.loads(pb.read_text())

    def test_resume_requires_checkpoint(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_without_journal_fails(self, ds_dir, tmp_path):
        from repro.recovery.journal import JournalError

        with pytest.raises(JournalError):
            main(["stitch", str(ds_dir), "--checkpoint",
                  str(tmp_path / "empty"), "--resume"])

    def test_mismatched_options_refuse_resume(self, ds_dir, tmp_path):
        from repro.recovery.journal import JournalMismatch

        ckpt = tmp_path / "ckpt"
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt)]) == 0
        with pytest.raises(JournalMismatch):
            main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                  "--peaks", "5"])

    def test_checkpointed_impl_resume(self, ds_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["stitch", str(ds_dir), "--impl", "mt-cpu",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["stitch", str(ds_dir), "--impl", "pipelined-cpu",
                     "--checkpoint", str(ckpt), "--resume"]) == 0
        assert "(0 pairs)" in capsys.readouterr().out

    def test_fault_report_json(self, ds_dir, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["stitch", str(ds_dir), "--inject-faults", "11:missing=1",
                   "--max-retries", "0", "--on-tile-error", "skip",
                   "--fault-report", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["injected"] == {"missing": 1}
        assert payload["triggered"]["missing"] >= 1
        assert len(payload["fault_report"]["skipped_tiles"]) == 1

    def test_inject_faults_bare_seed_compat(self, ds_dir, capsys):
        rc = main(["stitch", str(ds_dir), "--inject-faults", "42",
                   "--max-retries", "1", "--on-tile-error", "skip"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "injecting faults (seed 42)" in out

    def test_inject_faults_bad_spec_errors(self, ds_dir):
        with pytest.raises(ValueError, match="fault spec"):
            main(["stitch", str(ds_dir), "--inject-faults", "nope"])

    def test_watchdog_cancels_injected_hang(self, ds_dir, tmp_path, capsys):
        rc = main(["stitch", str(ds_dir),
                   "--impl", "pipelined-cpu",
                   "--watchdog", "0.3", "--stall-timeout", "10",
                   "--inject-faults", "7:hang=1,latency=0",
                   "--on-tile-error", "skip",
                   "--fault-report", str(tmp_path / "fr.json")])
        assert rc == 0  # completed (degraded), did not deadlock
        payload = json.loads((tmp_path / "fr.json").read_text())
        errs = payload["fault_report"]["skipped_tile_errors"]
        assert any("watchdog" in v for v in errs.values())
