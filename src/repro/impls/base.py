"""Common interface and result type for the Table II implementations."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.coarse import (
    CoarseConfig,
    coarse_forward_fft,
    coarse_pciam,
    coarse_transform_shape,
)
from repro.core.displacement import DisplacementResult, Translation
from repro.core.pciam import CcfMode, forward_fft, pciam
from repro.fftlib.plans import PlanCache, PlanningMode
from repro.io.dataset import TileDataset
from repro.memmodel.workspace import WorkspaceArena
from repro.observe.tracer import NULL_TRACER
from repro.pipeline.stage import ErrorPolicy, run_with_retries


@dataclass
class RunResult:
    """Phase-1 output plus instrumentation from one implementation run."""

    implementation: str
    displacements: DisplacementResult
    wall_seconds: float
    stats: dict = field(default_factory=dict)


class Implementation(abc.ABC):
    """A phase-1 (relative displacement) implementation.

    Subclasses implement :meth:`_run`; the public :meth:`run` adds timing
    and completeness checking.  Configuration shared by all
    implementations: the peak-interpretation mode, the multi-peak count,
    and the optional padded FFT shape (``None`` = native tile size).

    Fault tolerance: with an ``error_policy`` (plus, usually, a
    :class:`~repro.faults.report.FaultReport`), tile reads go through
    :meth:`_load_tile`, which retries per the policy and -- under a skip
    disposition -- returns ``None`` for a tile whose retries are
    exhausted.  Subclasses that support degradation treat a ``None`` tile
    as failed and skip its pairs; :meth:`run` then accepts the resulting
    incomplete grid.  Without a policy every implementation keeps the
    strict legacy contract: first error propagates raw.
    """

    name: str = "base"
    #: Whether pairs can carry sub-pixel estimates; the virtual-GPU
    #: implementations resolve peaks on their own path and cannot.
    supports_subpixel: bool = True

    def __init__(
        self,
        ccf_mode: CcfMode = CcfMode.EXTENDED,
        n_peaks: int = 2,
        fft_shape: tuple[int, int] | None = None,
        cache: PlanCache | None = None,
        real_transforms: bool = True,
        use_tile_stats: bool = True,
        use_workspace: bool = True,
        error_policy: ErrorPolicy | None = None,
        fault_report=None,
        tracer=None,
        metrics=None,
        journal=None,
        watchdog=None,
        coarse: CoarseConfig | None = None,
        subpixel: bool = False,
        planning: PlanningMode = PlanningMode.ESTIMATE,
    ) -> None:
        if subpixel and not self.supports_subpixel:
            raise ValueError(f"{self.name} does not support subpixel=True")
        self.ccf_mode = ccf_mode
        self.n_peaks = n_peaks
        self.fft_shape = fft_shape
        self.cache = cache if cache is not None else PlanCache()
        #: Hot-path knobs shared by every implementation (docs/PERFORMANCE.md):
        #: half-spectrum (R2C) transforms, O(1)-statistics CCF via per-tile
        #: summed-area tables, and reusable per-worker pair workspaces.  All
        #: default on; each has an off switch so the benchmark can isolate it.
        self.real_transforms = real_transforms
        self.use_tile_stats = use_tile_stats
        self.use_workspace = use_workspace
        self.error_policy = error_policy
        self.fault_report = fault_report
        #: Observability hooks shared by every implementation: a
        #: :class:`~repro.observe.tracer.Tracer` records per-stage spans
        #: (the pipelined implementations pass it straight into their
        #: :class:`~repro.pipeline.graph.Pipeline`), a
        #: :class:`~repro.observe.metrics.MetricsRegistry` aggregates
        #: counters/latency histograms.  Both default to disabled no-ops.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: Durability hooks (docs/ROBUSTNESS.md): ``journal`` is a
        #: :class:`~repro.recovery.journal.RunJournal` -- journaled pairs
        #: are served from it (counted separately from computed pairs) and
        #: fresh pairs are made durable as they complete; ``watchdog`` is
        #: a :class:`~repro.recovery.watchdog.WatchdogConfig` the
        #: pipelined implementations hand to their
        #: :class:`~repro.pipeline.graph.Pipeline` for stall supervision
        #: (the sequential implementations ignore it -- a single thread
        #: cannot be supervised cooperatively by itself).
        self.journal = journal
        self.watchdog = watchdog
        #: Coarse-to-fine registration (docs/PERFORMANCE.md): when set, the
        #: per-tile product becomes the downsampled coarse spectrum, pairs
        #: go through :func:`~repro.core.coarse.coarse_pciam`, and the pair
        #: workspaces shrink to the coarse transform shape.  ``None`` (the
        #: default) keeps every implementation byte-identical to the
        #: single-pass full-resolution path.
        self.coarse = coarse
        self.subpixel = subpixel
        self.planning = planning

    @abc.abstractmethod
    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        """Compute all pairwise displacements; return (result, stats)."""

    def _transform_shape(self, dataset: TileDataset) -> tuple[int, int]:
        """The spatial transform shape this run uses (padded or native)."""
        if self.fft_shape is not None:
            return tuple(self.fft_shape)
        return tuple(dataset.tile_shape)

    def _pair_transform_shape(self, dataset: TileDataset) -> tuple[int, int]:
        """The shape pair NCC/inverse scratch is sized for.

        Coarse mode shrinks the per-pair transforms to the downsampled
        shape (the full-resolution refinement probes need no FFT scratch).
        """
        shape = self._transform_shape(dataset)
        if self.coarse is not None:
            return coarse_transform_shape(shape, self.coarse.factor)
        return shape

    def _make_arena(self, dataset: TileDataset, count: int):
        """Per-worker pair-workspace arena, or ``None`` when disabled."""
        if not self.use_workspace:
            return None
        return WorkspaceArena(
            self._pair_transform_shape(dataset),
            real=self.real_transforms,
            count=count,
        )

    def _forward_spectrum(self, tile, stats: dict | None = None,
                          cache: PlanCache | None = None):
        """Per-tile forward spectrum in the current mode.

        Full-resolution R2C/C2C in single-pass mode; block-mean
        downsample + coarse-shape transform in coarse mode.  Either way
        this is the product computed once per tile and shared across the
        tile's incident pairs.
        """
        cache = self.cache if cache is None else cache
        if self.coarse is not None:
            return coarse_forward_fft(
                tile, self.coarse.factor, self.fft_shape, cache,
                self.planning, real=self.real_transforms, stats=stats,
            )
        return forward_fft(
            tile, self.fft_shape, cache, self.planning,
            real=self.real_transforms, stats=stats,
        )

    def _register_pair(self, img_i, img_j, fft_i=None, fft_j=None,
                       stats_i=None, stats_j=None, workspace=None,
                       stats: dict | None = None,
                       cache: PlanCache | None = None):
        """One pairwise registration in the current mode.

        Single-pass mode delegates to :func:`~repro.core.pciam.pciam`
        with the precomputed full-resolution spectra; coarse mode to
        :func:`~repro.core.coarse.coarse_pciam` with the precomputed
        *coarse* spectra (``stats`` then receives the ``coarse_hits`` /
        ``full_fallbacks`` counters, and the result carries provenance).
        """
        cache = self.cache if cache is None else cache
        if self.coarse is not None:
            return coarse_pciam(
                img_i, img_j, self.coarse,
                cfft_i=fft_i, cfft_j=fft_j,
                fft_shape=self.fft_shape,
                ccf_mode=self.ccf_mode,
                n_peaks=self.n_peaks,
                real_transforms=self.real_transforms,
                subpixel=self.subpixel,
                cache=cache,
                planning=self.planning,
                stats_i=stats_i, stats_j=stats_j,
                workspace=workspace,
                use_tile_stats=self.use_tile_stats,
                stats=stats,
            )
        return pciam(
            img_i, img_j,
            fft_i=fft_i, fft_j=fft_j,
            fft_shape=self.fft_shape,
            ccf_mode=self.ccf_mode,
            n_peaks=self.n_peaks,
            real_transforms=self.real_transforms,
            subpixel=self.subpixel,
            cache=cache,
            planning=self.planning,
            stats_i=stats_i, stats_j=stats_j,
            workspace=workspace,
            use_tile_stats=self.use_tile_stats,
        )

    def _translation(self, res) -> Translation:
        """The stored translation for one registration result."""
        return Translation.from_pciam(res, subpixel=self.subpixel)

    @property
    def _skip_on_error(self) -> bool:
        return (
            self.error_policy is not None
            and self.error_policy.on_exhausted in ("skip", "degrade")
        )

    def _load_tile(self, dataset: TileDataset, row: int, col: int,
                   dtype=np.float64):
        """Read one tile under the error policy.

        No policy: raw ``dataset.load`` (legacy contract -- the original
        exception propagates).  With a policy: retries are applied and
        recorded; exhaustion either re-raises the last error (abort) or
        records a skipped tile and returns ``None`` (skip/degrade).
        """
        if self.error_policy is None:
            return dataset.load(row, col, dtype=dtype)

        def on_retry(attempt: int, exc: BaseException) -> None:
            if self.fault_report is not None:
                self.fault_report.record_retry(
                    "read", (row, col), attempt, exc
                )
            if self.metrics is not None:
                self.metrics.counter("read.retries").inc()

        try:
            value, _ = run_with_retries(
                lambda: dataset.load(row, col, dtype=dtype),
                self.error_policy,
                key=(row, col),
                on_retry=on_retry,
            )
            return value
        except Exception as exc:
            if not self._skip_on_error:
                raise
            if self.fault_report is not None:
                self.fault_report.record_skipped_tile((row, col), exc)
            if self.metrics is not None:
                self.metrics.counter("read.skipped_tiles").inc()
            return None

    def _journal_lookup(self, direction, row: int, col: int):
        """Journaled translation for a pair, or ``None`` (no journal/miss).

        ``direction`` is a :class:`~repro.grid.neighbors.Direction` (or
        its string value); ``(row, col)`` is the pair's *second* (owning)
        tile, matching ``DisplacementResult.set``.
        """
        if self.journal is None:
            return None
        return self.journal.lookup(
            getattr(direction, "value", direction), row, col
        )

    def _journal_record(self, direction, row: int, col: int,
                        translation) -> None:
        """Make a freshly computed pair durable (no-op without a journal).

        Called by the owning worker right after ``disp.set``; the journal
        handle is thread-safe, so concurrent workers may record freely.
        """
        if self.journal is not None:
            self.journal.record_pair(
                getattr(direction, "value", direction), row, col, translation
            )

    def _record_skipped_pair(self, direction: str, row: int, col: int,
                             reason: str = "") -> None:
        if self.fault_report is not None:
            self.fault_report.record_skipped_pair(direction, row, col, reason)
        if self.metrics is not None:
            self.metrics.counter("pairs.skipped").inc()

    def run(self, dataset: TileDataset) -> RunResult:
        t0 = time.perf_counter()
        with self.tracer.span(f"phase1:{self.name}", "phase1"):
            disp, stats = self._run(dataset)
        wall = time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.histogram(f"impl.{self.name}.wall_seconds").observe(wall)
        if not disp.is_complete():
            if not self._skip_on_error:
                raise RuntimeError(
                    f"{self.name}: incomplete phase 1 "
                    f"({disp.pair_count()} of {2*disp.rows*disp.cols - disp.rows - disp.cols} pairs)"
                )
            stats = dict(stats)
            stats["skipped_pairs"] = len(disp.missing_pairs())
            if self.fault_report is not None:
                stats["fault_report"] = self.fault_report
        if self.journal is not None:
            stats = dict(stats)
            stats["journal"] = self.journal.summary()
        return RunResult(
            implementation=self.name,
            displacements=disp,
            wall_seconds=wall,
            stats=stats,
        )
