"""High-level stitching facade tying the three phases together.

``Stitcher`` is the public entry point a downstream user reaches for::

    from repro import Stitcher
    from repro.io import TileDataset

    result = Stitcher().stitch(TileDataset("path/to/acquisition"))
    mosaic = result.compose()

Implementation selection, FFT padding, peak-interpretation mode, traversal
order and the phase-2 solver are all options with paper-faithful defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.coarse import CoarseConfig
from repro.core.compose import BlendMode, compose
from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.core.global_opt import GlobalPositions, resolve_absolute_positions
from repro.core.pciam import CcfMode, smooth_fft_shape
from repro.core.quality_gate import QualityConfig
from repro.core.refine import RefineConfig, refine_displacements
from repro.faults.report import FaultReport
from repro.fftlib.plans import PlanCache, PlanningMode
from repro.grid.traversal import Traversal
from repro.io.dataset import TileDataset
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.pipeline.stage import ErrorPolicy
from repro.recovery.journal import (
    RunJournal,
    checkpoint_journal_path,
    options_fingerprint,
    run_fingerprint,
)


@dataclass
class StitchResult:
    """Everything the three phases produced, plus timing."""

    dataset: TileDataset
    displacements: DisplacementResult
    positions: GlobalPositions
    phase1_seconds: float
    phase2_seconds: float
    implementation: str = "simple-cpu"
    stats: dict = field(default_factory=dict)
    on_tile_error: str = "abort"

    @property
    def fault_report(self) -> FaultReport | None:
        """The run's :class:`FaultReport` when a retry/skip policy was active."""
        return self.stats.get("fault_report")

    @property
    def tracer(self):
        """The run's :class:`~repro.observe.tracer.Tracer` when traced."""
        return self.stats.get("tracer")

    @property
    def metrics(self) -> dict | None:
        """JSON-able metrics snapshot (``stats["metrics"]``) when collected."""
        return self.stats.get("metrics")

    def trace_events(self) -> list[dict]:
        """Merged Chrome trace events for this run (pipeline + any GPUs)."""
        from repro.analysis.tracefmt import merged_trace_events

        tracer = self.stats.get("tracer")
        if tracer is None:
            raise ValueError(
                "run was not traced; pass trace=True to Stitcher (or --trace)"
            )
        return merged_trace_events(
            tracer=tracer, gpu_profilers=self.stats.get("gpu_profilers")
        )

    def write_trace(self, path) -> int:
        """Write the unified Chrome/Perfetto trace; returns the event count."""
        from repro.analysis.tracefmt import write_chrome_trace

        events = self.trace_events()
        write_chrome_trace(path, events)
        return len(events)

    def skipped_tiles(self) -> list[tuple[int, int]]:
        report = self.fault_report
        return report.skipped_tiles if report is not None else []

    def compose(
        self,
        blend: BlendMode = BlendMode.OVERLAY,
        outline: bool = False,
        dtype=np.float32,
        return_mask: bool = False,
    ):
        """Phase 3, on demand (the paper renders rather than always saving).

        Tiles phase 1 dropped are left as holes; with ``return_mask=True``
        the per-tile provenance mask comes back alongside the canvas.
        """
        return compose(
            self._load_native,
            self.positions,
            self.dataset.tile_shape,
            blend=blend,
            outline=outline,
            dtype=dtype,
            skip_tiles=self.skipped_tiles(),
            on_tile_error=self.on_tile_error,
            return_mask=return_mask,
        )

    def _load_native(self, row: int, col: int) -> np.ndarray:
        """Tile pixels in their stored dtype (no float64 promotion).

        Composition blends into float64 canvases/bands either way, and
        numpy's promotion makes uint8/uint16 arithmetic there value-exact
        -- so handing compose the native array is bit-identical while
        skipping a 4x-sized float64 copy per tile.  Registration paths
        keep requesting float64 explicitly.
        """
        return self.dataset.load(row, col, dtype=None)

    def compose_to_tiff(
        self,
        path,
        blend: BlendMode = BlendMode.OVERLAY,
        memory_budget: int | None = None,
        pyramid_levels: int = 0,
        band_rows: int | None = None,
        dtype=np.uint16,
        scale: float | None = None,
        outline: bool = False,
        metrics=None,
        tracer=None,
    ):
        """Phase 3 straight to disk in bounded stripes.

        Streams the mosaic to ``path`` through
        :func:`repro.core.streamcompose.stream_compose_to_tiff` --
        bit-identical to :meth:`compose` + clipping for every blend mode,
        but the canvas never exists.  ``memory_budget`` (bytes) sizes the
        stripes and the LRU tile cache; ``pyramid_levels`` also writes 2x
        block-mean levels next to ``path`` for
        :class:`repro.core.pyramid.DiskPyramid` viewers.  Tiles phase 1
        dropped are left as holes, as in :meth:`compose`.

        Returns the :class:`repro.core.streamcompose.StreamComposeResult`
        (mosaic shape, stripe/cache/peak-memory accounting, pyramid
        paths).
        """
        from repro.core import streamcompose

        return streamcompose.stream_compose_to_tiff(
            path,
            self._load_native,
            self.positions,
            self.dataset.tile_shape,
            blend=blend,
            memory_budget=memory_budget,
            band_rows=band_rows,
            dtype=dtype,
            scale=scale,
            skip_tiles=self.skipped_tiles(),
            on_tile_error=self.on_tile_error,
            pyramid_levels=pyramid_levels,
            outline=outline,
            metrics=metrics,
            tracer=tracer,
        )

    def position_errors(self, exclude_degraded: bool = False) -> np.ndarray | None:
        """Per-tile |recovered - truth| in pixels, when ground truth exists.

        Both recovered and true positions are normalized to a (0, 0) origin
        before comparison (absolute positions are only defined up to a
        global translation).  ``exclude_degraded=True`` sets the error to
        NaN for tiles positioned by nominal fallback (their "error" reflects
        the stage model, not the registration).
        """
        if self.dataset.metadata.true_positions is None:
            return None
        true = np.asarray(self.dataset.metadata.true_positions, dtype=np.int64)
        true = true - true.reshape(-1, 2).min(axis=0)
        diff = self.positions.positions - true
        err = np.linalg.norm(diff.astype(np.float64), axis=-1)
        if exclude_degraded and self.positions.degraded is not None:
            err = err.copy()
            err[self.positions.degraded] = np.nan
        return err


class Stitcher:
    """Configurable three-phase stitcher.

    Phase 1 runs on one scheduler; all yield the same displacements and
    share phases 2 and 3.  ``workers=1`` runs the in-process sequential
    reference (Simple-CPU); ``workers > 1`` runs the row-band processes of
    :class:`~repro.impls.proc_cpu.ProcCpu` when the bands save more work
    than the fork costs (:meth:`_band_count`).  ``impl`` names a
    :mod:`repro.impls` scheduler instead (``fft_batch``, ``gpus`` and
    ``watchdog`` configure it).
    """

    #: Phase-1 cost model behind the fork decision, in tile pixels: a tile
    #: costs its pixel count plus ``TILE_OVERHEAD_PX``, and starting the
    #: band pool costs ``POOL_OVERHEAD_PX``.  Fitted on a 2-core x86 host
    #: (about 82 ns per pixel, 0.9 ms per tile, 35 ms per pool); the runs
    #: are in docs/PERFORMANCE.md.
    TILE_OVERHEAD_PX = 11_000
    POOL_OVERHEAD_PX = 320_000

    def __init__(
        self,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        ccf_mode: CcfMode = CcfMode.EXTENDED,
        n_peaks: int = 2,
        real_transforms: bool = True,
        subpixel: bool = False,
        use_tile_stats: bool = True,
        use_workspace: bool = True,
        pad_to_smooth: bool = False,
        position_method: str = "mst",
        refine: bool | RefineConfig = False,
        quality: QualityConfig | bool | None = None,
        conf_thresh: float | None = None,
        residue_mode: str | None = None,
        min_peak_ratio: float | None = None,
        coarse: CoarseConfig | bool | None = None,
        coarse_scale: float | None = None,
        coarse_conf_thresh: float | None = None,
        planning: PlanningMode = PlanningMode.ESTIMATE,
        cache: PlanCache | None = None,
        max_retries: int = 0,
        retry_backoff: float = 0.05,
        on_tile_error: str = "abort",
        trace: bool | Tracer = False,
        metrics: bool | MetricsRegistry = False,
        checkpoint: str | None = None,
        resume: str = "auto",
        journal_fsync: bool = True,
        workers: int = 1,
        impl: str | None = None,
        fft_batch: int = 4,
        gpus: int = 1,
        watchdog=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if impl is not None:
            from repro.impls import ALL_IMPLEMENTATIONS

            if impl not in ALL_IMPLEMENTATIONS:
                raise ValueError(f"unknown implementation {impl!r}")
        self.workers = workers
        self.impl = impl
        self.fft_batch = fft_batch
        self.gpus = gpus
        self.watchdog = watchdog
        self.traversal = traversal
        self.ccf_mode = ccf_mode
        self.n_peaks = n_peaks
        self.real_transforms = real_transforms
        self.subpixel = subpixel
        # Hot-path knobs (all on by default; see docs/PERFORMANCE.md):
        # half-spectrum transforms, O(1)-statistics CCF, reusable pair
        # workspaces.  Off switches exist for benchmarking each layer.
        self.use_tile_stats = use_tile_stats
        self.use_workspace = use_workspace
        self.pad_to_smooth = pad_to_smooth
        self.position_method = position_method
        # ``refine`` enables the MIST-style stage-model filter/repair pass
        # between phases 1 and 2 (see repro.core.refine).
        if refine is True:
            refine = RefineConfig()
        self.refine: RefineConfig | None = refine or None
        # ``quality`` enables the phase-2 registration quality gate
        # (docs/ROBUSTNESS.md): True for the default gate, a QualityConfig
        # for tuned gating, or None/False to solve exactly as before (the
        # default -- positions stay bit-identical to ungated runs).  The
        # convenience knobs mirror the CLI flags; passing any of them
        # turns the gate on.
        if quality is True:
            quality = QualityConfig()
        elif quality is False:
            quality = None
        overrides = {
            k: v
            for k, v in (
                ("conf_thresh", conf_thresh),
                ("residue_mode", residue_mode),
                ("min_peak_ratio", min_peak_ratio),
            )
            if v is not None
        }
        if overrides:
            quality = replace(quality or QualityConfig(), **overrides)
        self.quality: QualityConfig | None = quality
        # ``coarse`` enables two-pass coarse-to-fine registration
        # (docs/PERFORMANCE.md): True for the defaults, a CoarseConfig for
        # tuned behaviour, None/False for single-pass PCIAM (the default --
        # displacements stay bit-identical to pre-coarse runs).  The
        # convenience knobs mirror the CLI flags; passing either turns the
        # two-pass mode on.
        if coarse is True:
            coarse = CoarseConfig()
        elif coarse is False:
            coarse = None
        if coarse_scale is not None:
            keep = (
                {}
                if coarse is None
                else {
                    k: getattr(coarse, k)
                    for k in ("conf_thresh", "min_peak_ratio",
                              "coarse_peaks", "search_radius",
                              "min_overlap_frac")
                }
            )
            coarse = CoarseConfig.from_scale(coarse_scale, **keep)
        if coarse_conf_thresh is not None:
            coarse = replace(
                coarse or CoarseConfig(), conf_thresh=coarse_conf_thresh
            )
        self.coarse: CoarseConfig | None = coarse
        self.planning = planning
        self.cache = cache
        if on_tile_error not in ("abort", "skip"):
            raise ValueError(
                f"unknown on_tile_error {on_tile_error!r} (use 'abort' or 'skip')"
            )
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.on_tile_error = on_tile_error
        # Observability: ``trace=True`` (or a caller-owned Tracer) records
        # per-phase and per-operation spans; metrics are collected whenever
        # either switch is on, and land in ``StitchResult.stats["metrics"]``.
        if isinstance(trace, Tracer):
            self.tracer: Tracer | None = trace
        else:
            self.tracer = Tracer() if trace else None
        if isinstance(metrics, MetricsRegistry):
            self.metrics: MetricsRegistry | None = metrics
        elif metrics or self.tracer is not None:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        # Durability (docs/ROBUSTNESS.md): ``checkpoint`` names a directory
        # holding the run journal; every completed pair is fsync'd there,
        # and a rerun over the same directory resumes, recomputing only
        # what never landed.  ``resume`` is the journal-open mode
        # (auto/require/never); ``journal_fsync=False`` trades the
        # per-record durability point for speed (tests, benchmarks).
        self.checkpoint = checkpoint
        self.resume = resume
        self.journal_fsync = journal_fsync

    def _error_policy(self) -> ErrorPolicy | None:
        """Retry/skip policy for tile reads; None = strict legacy behaviour."""
        if self.max_retries == 0 and self.on_tile_error == "abort":
            return None
        return ErrorPolicy(
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            on_exhausted=self.on_tile_error,
        )

    @staticmethod
    def _nominal_step(dataset: TileDataset):
        """Nominal grid step from acquisition metadata (overlap fraction)."""
        th, tw = dataset.tile_shape
        ov = dataset.metadata.overlap
        return ((0.0, round(tw * (1.0 - ov))), (round(th * (1.0 - ov)), 0.0))

    def _fft_shape(self, dataset: TileDataset):
        return smooth_fft_shape(dataset.tile_shape) if self.pad_to_smooth else None

    def run_fingerprint(self, dataset: TileDataset) -> dict:
        """The identity a journal of this run is bound to.

        Dataset geometry plus the result-affecting options; performance
        knobs and implementation choice are excluded (all produce
        identical displacements, so cross-implementation resume is legal).
        """
        return run_fingerprint(
            dataset,
            ccf_mode=self.ccf_mode,
            n_peaks=self.n_peaks,
            subpixel=self.subpixel,
            fft_shape=self._fft_shape(dataset),
            position_method=self.position_method,
            refine=self.refine is not None,
            coarse=self.coarse,
        )

    def open_journal(self, dataset: TileDataset) -> RunJournal | None:
        """Open/create the checkpoint journal, or ``None`` (no checkpoint).

        Raises :class:`~repro.recovery.journal.JournalMismatch` when the
        directory holds a different run's journal, and
        :class:`~repro.recovery.journal.JournalError` when ``resume=
        "require"`` finds nothing to resume.
        """
        if self.checkpoint is None:
            return None
        return RunJournal.open(
            checkpoint_journal_path(self.checkpoint),
            self.run_fingerprint(dataset),
            fsync=self.journal_fsync,
            metrics=self.metrics,
            resume=self.resume,
        )

    def _band_count(self, dataset: TileDataset) -> int:
        """Band workers for the default scheduler; 1 = stay in-process.

        The band pool's critical path is one boundary row (Phase A) plus
        its tallest band; the reference walks every row.  Fork only when
        the rows saved cost more than starting the pool.
        """
        bands = min(self.workers, dataset.rows)
        tallest = -(-dataset.rows // bands)
        h, w = dataset.tile_shape
        saved = ((dataset.rows - tallest - 1) * dataset.cols
                 * (h * w + self.TILE_OVERHEAD_PX))
        return bands if saved > self.POOL_OVERHEAD_PX else 1

    def _implementation(self, dataset: TileDataset, error_policy,
                        fault_report, journal):
        """The phase-1 scheduler for ``dataset``; ``None`` = in-process
        sequential reference."""
        name, workers = self.impl, self.workers
        if name is None:
            workers = self._band_count(dataset)
            if workers < 2:
                return None
            name = "proc-cpu"
        # Imported here: the impls (multiprocessing included) stay out of
        # ``import repro``.
        from repro.impls import ALL_IMPLEMENTATIONS

        kwargs = {
            "simple-cpu": {"traversal": self.traversal},
            "mt-cpu": {"workers": workers},
            "proc-cpu": {"workers": workers},
            "pipelined-cpu": {"workers": workers, "fft_batch": self.fft_batch},
            "pipelined-cpu-numa": {"workers_per_socket": workers},
            "pipelined-gpu": {"devices": self.gpus},
        }.get(name, {})
        return ALL_IMPLEMENTATIONS[name](
            ccf_mode=self.ccf_mode, n_peaks=self.n_peaks,
            fft_shape=self._fft_shape(dataset), cache=self.cache,
            real_transforms=self.real_transforms,
            use_tile_stats=self.use_tile_stats,
            use_workspace=self.use_workspace,
            error_policy=error_policy, fault_report=fault_report,
            tracer=self.tracer, metrics=self.metrics, journal=journal,
            watchdog=self.watchdog, coarse=self.coarse,
            subpixel=self.subpixel, planning=self.planning, **kwargs,
        )

    def compute_displacements(
        self,
        dataset: TileDataset,
        error_policy: ErrorPolicy | None = None,
        fault_report: FaultReport | None = None,
        journal: RunJournal | None = None,
    ) -> DisplacementResult:
        """Phase 1 on the configured scheduler.

        ``result.stats["implementation"]`` names the scheduler that ran.
        """
        impl = self._implementation(dataset, error_policy, fault_report,
                                    journal)
        if impl is not None:
            run = impl.run(dataset)
            disp = run.displacements
            disp.stats = {**run.stats, "implementation": impl.name}
            if self.tracer is not None:
                # Virtual-GPU engine rows for the merged timeline (Fig. 7/9).
                devices = [getattr(impl, "last_device", None),
                           *(getattr(impl, "devices", None) or [])]
                profilers = [d.profiler for d in devices if d is not None]
                if profilers:
                    disp.stats["gpu_profilers"] = profilers
            return disp
        fft_shape = self._fft_shape(dataset)
        disp = compute_grid_displacements(
            dataset.load,
            dataset.rows,
            dataset.cols,
            traversal=self.traversal,
            fft_shape=fft_shape,
            ccf_mode=self.ccf_mode,
            n_peaks=self.n_peaks,
            real_transforms=self.real_transforms,
            subpixel=self.subpixel,
            cache=self.cache,
            planning=self.planning,
            error_policy=error_policy,
            fault_report=fault_report,
            tracer=self.tracer,
            metrics=self.metrics,
            use_tile_stats=self.use_tile_stats,
            use_workspace=self.use_workspace,
            journal=journal,
            coarse=self.coarse,
        )
        disp.stats["implementation"] = "simple-cpu"
        return disp

    def stitch(self, dataset: TileDataset) -> StitchResult:
        """Run phases 1 and 2; phase 3 is on the result object.

        With ``max_retries``/``on_tile_error="skip"`` the run survives
        unreadable tiles: failing reads are retried, exhausted tiles are
        dropped from phase 1, phase 2 falls back to nominal stage
        coordinates for any stranded grid component, and the resulting
        :class:`FaultReport` lands in ``result.stats["fault_report"]``.
        """
        policy = self._error_policy()
        report = FaultReport() if policy is not None else None
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        journal = self.open_journal(dataset)
        t0 = time.perf_counter()
        try:
            with tracer.span("phase1:displacements", "stitcher"):
                disp = self.compute_displacements(
                    dataset, error_policy=policy, fault_report=report,
                    journal=journal,
                )
            if journal is not None:
                journal.record_milestone(
                    "phase1_complete", pairs=disp.pair_count()
                )
        except BaseException:
            # Keep everything journaled so far durable for the next resume.
            if journal is not None:
                journal.close()
            raise
        stats = dict(disp.stats)
        implementation = stats.pop("implementation")
        if self.refine is not None:
            with tracer.span("refine", "stitcher"):
                disp, rep = refine_displacements(disp, dataset.load, self.refine)
            stats["refined_pairs"] = rep.repaired
            stats["unrepairable_pairs"] = rep.unrepairable
        t1 = time.perf_counter()
        degraded = {}
        if policy is not None and self.on_tile_error == "skip":
            degraded = {"on_disconnected": "nominal",
                        "nominal_step": self._nominal_step(dataset)}
        with tracer.span("phase2:global-opt", "stitcher"):
            pos = resolve_absolute_positions(
                disp, method=self.position_method, subpixel=self.subpixel,
                quality=self.quality, **degraded,
            )
        t2 = time.perf_counter()
        if journal is not None:
            # Phase 2 is deterministic and cheap relative to phase 1, so a
            # resumed run always re-solves it from the journaled pairs; the
            # milestone records that (and when) the run got this far.
            journal.record_milestone(
                "phase2_complete",
                method=self.position_method,
                degraded=len(pos.degraded_tiles()),
            )
            stats["journal"] = journal.summary()
            journal.close()
        if pos.quality_report is not None:
            stats["quality_report"] = pos.quality_report
            if self.metrics is not None:
                self.metrics.counter("quality.pairs_gated").inc(
                    pos.quality_report.get("gated_pairs", 0)
                )
                self.metrics.counter("quality.irls_iterations").inc(
                    pos.quality_report.get("irls_iterations", 0)
                )
                self.metrics.counter("quality.residue_damped_edges").inc(
                    pos.quality_report.get("residue_damped_edges", 0)
                )
        if report is not None:
            for rc in pos.degraded_tiles():
                report.record_degraded_tile(rc)
            plan = getattr(dataset, "fault_plan", None)
            if plan is not None:
                report.injected = plan.summary()
            stats["fault_report"] = report
        if self.metrics is not None:
            if self.coarse is not None:
                self.metrics.counter("coarse.hits").inc(
                    stats.get("coarse_hits", 0)
                )
                self.metrics.counter("coarse.fallbacks").inc(
                    stats.get("full_fallbacks", 0)
                )
            self.metrics.histogram("stitch.phase1_seconds").observe(t1 - t0)
            self.metrics.histogram("stitch.phase2_seconds").observe(t2 - t1)
            stats["metrics"] = self.metrics.snapshot()
        if self.tracer is not None:
            stats["tracer"] = self.tracer
        return StitchResult(
            dataset=dataset,
            displacements=disp,
            positions=pos,
            phase1_seconds=t1 - t0,
            phase2_seconds=t2 - t1,
            implementation=implementation,
            stats=stats,
            on_tile_error=self.on_tile_error,
        )

    def stitch_channels(
        self, datasets: list[TileDataset], reference: int = 0
    ) -> list[StitchResult]:
        """Multi-channel stitching: register once, compose per channel.

        The paper's experiments acquire "two tile grids, one per color
        channel" of the *same* plate scan; the stage moved once, so one
        channel's displacements apply to all.  The reference channel (pick
        the one with the most texture) is stitched normally; the others
        reuse its positions, costing only phase 3 each.

        Provenance follows the positions: when the reference run carried
        a fault policy (retries/skips) or a quality gate, the dependent
        channels share its ``fault_report``/``quality_report`` and its
        ``on_tile_error`` policy, so a tile dropped from the reference
        registration is also left out of every dependent channel's
        mosaic -- the channels stay aligned *and* identically masked.
        """
        if not datasets:
            raise ValueError("need at least one channel")
        if not 0 <= reference < len(datasets):
            raise IndexError(f"reference channel {reference} of {len(datasets)}")
        ref_ds = datasets[reference]
        for i, ds in enumerate(datasets):
            if (ds.rows, ds.cols) != (ref_ds.rows, ref_ds.cols) or (
                ds.tile_shape != ref_ds.tile_shape
            ):
                raise ValueError(
                    f"channel {i} geometry {ds.rows}x{ds.cols}/{ds.tile_shape} "
                    f"differs from reference "
                    f"{ref_ds.rows}x{ref_ds.cols}/{ref_ds.tile_shape}"
                )
        ref_result = self.stitch(ref_ds)
        # Shared provenance: only keys the reference run actually produced
        # (a clean default run keeps the minimal one-key stats dict).
        shared = {
            key: ref_result.stats[key]
            for key in ("fault_report", "quality_report")
            if key in ref_result.stats
        }
        out: list[StitchResult] = []
        for i, ds in enumerate(datasets):
            if i == reference:
                out.append(ref_result)
            else:
                out.append(
                    StitchResult(
                        dataset=ds,
                        displacements=ref_result.displacements,
                        positions=ref_result.positions,
                        phase1_seconds=0.0,
                        phase2_seconds=0.0,
                        stats={"positions_from_channel": reference, **shared},
                        on_tile_error=ref_result.on_tile_error,
                    )
                )
        return out
