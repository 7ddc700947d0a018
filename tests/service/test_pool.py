"""Worker pool: execution, warm state, death recovery, supervision.

These tests drive :class:`WorkerPool` directly (no HTTP) against tiny
synthetic datasets; the full service lifecycle lives in
``test_service_e2e.py``.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.observe import MetricsRegistry
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.pool import WorkerPool
from repro.service.queue import JobQueue
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("pool-ds"), rows=3, cols=3,
        tile_height=48, tile_width=48, overlap=0.25, seed=7,
    )


class PoolHarness:
    """A pool + queue + in-memory job table with a settle() helper."""

    def __init__(self, tmp_path, workers=1, **pool_kwargs):
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(metrics=self.metrics, workers=workers)
        self.records: dict[str, JobRecord] = {}
        self.pool = WorkerPool(
            self.queue, tmp_path / "spool", workers=workers,
            metrics=self.metrics,
            resolve_positions=self._resolve,
            **pool_kwargs,
        )

    def _resolve(self, job_id):
        rec = self.records[job_id]
        if rec.state is not JobState.DONE:
            raise ValueError(f"source job {job_id} not done")
        return self.pool.positions_path(job_id), job_id

    def submit(self, **spec_kwargs) -> JobRecord:
        rec = JobRecord(spec=JobSpec(**spec_kwargs))
        self.records[rec.id] = rec
        self.queue.submit(rec)
        return rec

    def settle(self, rec: JobRecord, timeout=60.0) -> JobRecord:
        deadline = time.monotonic() + timeout
        while not rec.state.terminal:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {rec.id} stuck in {rec.state}")
            time.sleep(0.02)
        return rec


@pytest.fixture()
def harness(tmp_path):
    h = PoolHarness(tmp_path)
    h.pool.start()
    yield h
    h.pool.stop()


class TestExecution:
    def test_full_job_produces_positions(self, harness, small_ds):
        rec = harness.submit(dataset=str(small_ds.directory))
        harness.settle(rec)
        assert rec.state is JobState.DONE
        assert rec.result["kind"] == "full"
        assert rec.result["pairs"] == 12  # 3x3 grid: 2*3 + 3*2
        payload = json.loads(harness.pool.positions_path(rec.id).read_text())
        assert np.asarray(payload["positions"]).shape == (3, 3, 2)

    def test_warm_worker_reuses_plans(self, harness, small_ds):
        first = harness.settle(harness.submit(dataset=str(small_ds.directory)))
        second = harness.settle(harness.submit(dataset=str(small_ds.directory)))
        assert first.result["plan_cache"]["misses"] > 0
        # Same worker, same tile geometry: every plan is already there.
        assert second.result["plan_cache"]["misses"] == 0
        assert second.result["plan_cache"]["hits"] > 0
        assert second.result["worker_jobs_served"] == 2
        assert second.result["worker_pid"] == first.result["worker_pid"]

    def test_coarse_job_matches_full_and_reuses_coarse_plans(
        self, harness, small_ds
    ):
        full = harness.settle(harness.submit(dataset=str(small_ds.directory)))
        first = harness.settle(harness.submit(
            dataset=str(small_ds.directory), options={"coarse": True},
        ))
        second = harness.settle(harness.submit(
            dataset=str(small_ds.directory), options={"coarse": True},
        ))
        assert first.state is JobState.DONE
        # Coarse provenance counters surface in the job summary ...
        assert first.result["coarse_hits"] + first.result["full_fallbacks"] == 12
        assert "coarse_hits" not in full.result
        # ... and positions match the single-pass job bit-for-bit.
        pos_full = json.loads(harness.pool.positions_path(full.id).read_text())
        pos_coarse = json.loads(
            harness.pool.positions_path(first.id).read_text()
        )
        assert pos_full["positions"] == pos_coarse["positions"]
        # The warm worker re-serves the coarse-shape plans across jobs:
        # the per-shape delta rows of the second coarse job show zero
        # misses on every shape the first coarse job planned.
        shapes1 = {
            (tuple(r["shape"]), r["kind"])
            for r in first.result["plan_cache"]["per_shape"]
        }
        for row in second.result["plan_cache"]["per_shape"]:
            key = (tuple(row["shape"]), row["kind"])
            if key in shapes1:
                assert row["misses"] == 0, f"{key} re-planned on warm worker"
        # Service-level counters aggregate the per-job numbers.
        snap = harness.metrics.snapshot()["counters"]
        assert snap.get("service.coarse_hits", 0) == (
            first.result["coarse_hits"] + second.result["coarse_hits"]
        )

    def test_coarse_options_validated(self):
        with pytest.raises(ValueError):
            JobSpec(dataset="x", options={"coarse_factor": 2})  # not allowed
        spec = JobSpec(dataset="x", options={
            "coarse": True, "coarse_scale": 0.5, "coarse_conf_thresh": 0.9,
        })
        assert spec.options["coarse_scale"] == 0.5

    def test_reuse_job_applies_source_positions(self, harness, small_ds):
        src = harness.settle(harness.submit(dataset=str(small_ds.directory)))
        reuse = harness.settle(harness.submit(
            dataset=str(small_ds.directory), reuse_positions_from=src.id,
        ))
        assert reuse.state is JobState.DONE
        assert reuse.result["kind"] == "reuse"
        assert reuse.result["pairs"] == 0
        src_pos = json.loads(harness.pool.positions_path(src.id).read_text())
        new_pos = json.loads(harness.pool.positions_path(reuse.id).read_text())
        assert new_pos["positions"] == src_pos["positions"]
        assert new_pos["method"] == "reused"

    def test_reuse_of_unfinished_source_fails_cleanly(self, harness, small_ds):
        ghost = JobRecord(spec=JobSpec(dataset="/nowhere"))
        harness.records[ghost.id] = ghost  # queued, never run
        rec = harness.settle(harness.submit(
            dataset=str(small_ds.directory), reuse_positions_from=ghost.id,
        ))
        assert rec.state is JobState.FAILED
        assert "not done" in rec.error

    def test_bad_dataset_fails_without_killing_worker(self, harness, small_ds):
        bad = harness.settle(harness.submit(dataset="/no/such/dir"))
        assert bad.state is JobState.FAILED
        assert bad.error
        # The worker survived the failure and still serves jobs warm.
        ok = harness.settle(harness.submit(dataset=str(small_ds.directory)))
        assert ok.state is JobState.DONE

    def test_compose_output_written(self, harness, small_ds, tmp_path):
        out = tmp_path / "mosaic.tif"
        rec = harness.settle(harness.submit(
            dataset=str(small_ds.directory), output=str(out), blend="maximum",
        ))
        assert rec.state is JobState.DONE
        assert out.exists()
        from repro.io.tiff import read_tiff

        assert read_tiff(out).max() > 0


class TestDeathRecovery:
    def test_sigkill_requeues_within_budget_and_resumes(
        self, tmp_path, small_ds
    ):
        h = PoolHarness(tmp_path)
        h.pool.start()
        try:
            rec = h.submit(
                dataset=str(small_ds.directory),
                inject_faults="3:slow=8,latency=0.08",
                retry_budget=1,
            )
            journal = h.pool.journal_path(rec.id)
            deadline = time.monotonic() + 30
            from repro.recovery.harness import count_journal_records

            # First journal record is the run fingerprint; wait for the
            # header plus at least two durable pair records.
            while count_journal_records(journal) < 3:
                assert time.monotonic() < deadline, "no journal progress"
                time.sleep(0.02)
            os.kill(h.pool.worker_pids()[0], signal.SIGKILL)
            h.settle(rec, timeout=90)
            assert rec.state is JobState.DONE
            assert rec.attempts == 2
            journal_stats = rec.result["journal"]
            assert journal_stats["resumed_pairs"] >= 2
            assert h.metrics.counter("service.worker_deaths").value == 1
        finally:
            h.pool.stop()

    def test_retry_budget_zero_fails_on_death(self, tmp_path, small_ds):
        h = PoolHarness(tmp_path)
        h.pool.start()
        try:
            rec = h.submit(
                dataset=str(small_ds.directory),
                inject_faults="3:slow=8,latency=0.1",
                retry_budget=0,
            )
            deadline = time.monotonic() + 30
            while rec.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.1)  # let it get into phase 1
            os.kill(h.pool.worker_pids()[0], signal.SIGKILL)
            h.settle(rec, timeout=30)
            assert rec.state is JobState.FAILED
            assert "retry budget" in rec.error
        finally:
            h.pool.stop()

    def test_worker_respawned_after_death(self, tmp_path, small_ds):
        h = PoolHarness(tmp_path)
        h.pool.start()
        try:
            first = h.settle(h.submit(dataset=str(small_ds.directory)))
            pid = h.pool.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            # Next job arrives at a freshly spawned worker (cold cache).
            again = h.settle(h.submit(dataset=str(small_ds.directory)))
            assert again.state is JobState.DONE
            assert again.result["worker_pid"] != first.result["worker_pid"]
            assert again.result["worker_jobs_served"] == 1
        finally:
            h.pool.stop()


class TestDeadline:
    def test_deadline_kill_then_fail_when_budget_spent(
        self, tmp_path, small_ds
    ):
        """A job past its watchdog deadline is killed; with no retry
        budget it fails with the budget message."""
        h = PoolHarness(tmp_path)
        h.pool.start()
        try:
            rec = h.submit(
                dataset=str(small_ds.directory),
                inject_faults="3:slow=8,latency=0.4",
                deadline_seconds=0.5,
                retry_budget=0,
            )
            h.settle(rec, timeout=60)
            assert rec.state is JobState.FAILED
            assert h.metrics.counter("service.jobs_deadline_killed").value >= 1
        finally:
            h.pool.stop()


class TestSingleProcessJobs:
    def test_job_stitcher_never_forks_band_workers(self):
        from repro.service.pool import _build_stitcher

        assert _build_stitcher({}, None, None).workers == 1

    def test_job_reports_no_process_workers(self, harness, tmp_path):
        # Four rows would give two band workers two rows each.
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=4, cols=3, tile_height=48, tile_width=48,
            overlap=0.25, seed=3,
        )
        rec = harness.settle(harness.submit(dataset=str(ds.directory)))
        assert rec.state is JobState.DONE
        assert rec.result["process_workers"] == 0


class TestWarmStart:
    def test_pool_imports_stitch_stack_before_forking(self, tmp_path):
        """``import repro`` is lazy, so the server imports the stitch stack
        itself before the first fork: its workers inherit it and no job
        pays for it."""
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.recovery.harness import subprocess_env

        code = f"""
import json, sys
from repro.service.pool import STITCH_STACK
from repro.service.server import StitchService
service = StitchService(spool_dir={str(tmp_path / "spool")!r}, workers=1)
before = [m for m in STITCH_STACK if m in sys.modules]
service.start()
after = [m for m in STITCH_STACK if m in sys.modules]
method = service.pool._ctx.get_start_method()
alive = [w["alive"] for w in service.pool.worker_stats()]
service.stop()
print(json.dumps([before, after, method, alive]))
"""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=subprocess_env(src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        before, after, method, alive = json.loads(proc.stdout.splitlines()[-1])
        assert before == []
        assert after == [
            "repro.core.stitcher", "repro.core.streamcompose", "repro.io.dataset",
        ]
        assert method == "fork"
        assert alive == [True]
