"""Phase 1: relative displacements for the whole grid (Fig. 4).

This is the sequential *reference* formulation -- the ground truth against
which every parallel implementation in :mod:`repro.impls` is checked.  It
computes each tile's forward transform once, reuses it across the tile's
incident pairs, and frees it under the paper's early-release policy driven
by the traversal order (Section IV.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coarse import (
    CoarseConfig,
    coarse_pciam,
    coarse_transform_shape,
)
from repro.core.downsample import downsample
from repro.core.pciam import CcfMode, PciamResult, forward_fft, pciam
from repro.core.tilestats import TileStats
from repro.fftlib.plans import PlanCache, PlanningMode
from repro.memmodel.workspace import WorkspaceArena
from repro.grid.neighbors import Direction, grid_pairs, pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.pipeline.graph import aggregate_failures
from repro.pipeline.stage import ErrorPolicy, run_with_retries


@dataclass(frozen=True)
class Translation:
    """One pairwise translation: ``second`` relative to its west/north neighbour.

    ``tx``/``ty`` are the paper's integer output; ``tx_f``/``ty_f`` carry
    the optional sub-pixel estimate (``None`` = integer only).
    """

    correlation: float
    tx: int
    ty: int
    tx_f: float | None = None
    ty_f: float | None = None
    #: First-to-second phase-correlation peak-magnitude ratio (peak
    #: sharpness), a quality signal for the phase-2 confidence gate.
    #: ``None`` when unavailable (``n_peaks == 1`` runs, older journals,
    #: repaired translations).
    peak_ratio: float | None = None
    #: ``"coarse"``/``"fallback"`` when the coarse-to-fine path produced
    #: the pair (:mod:`repro.core.coarse`); ``None`` for the single-pass
    #: full-resolution path.  Journaled, so a resumed run can prove which
    #: path produced every translation.
    provenance: str | None = None

    @property
    def fx(self) -> float:
        """Best available x translation as a float."""
        return self.tx_f if self.tx_f is not None else float(self.tx)

    @property
    def fy(self) -> float:
        """Best available y translation as a float."""
        return self.ty_f if self.ty_f is not None else float(self.ty)

    @staticmethod
    def from_pciam(r: PciamResult, subpixel: bool = False) -> "Translation":
        if subpixel:
            return Translation(r.correlation, r.tx, r.ty, r.tx_f, r.ty_f,
                               peak_ratio=r.peak_ratio,
                               provenance=r.provenance)
        return Translation(r.correlation, r.tx, r.ty,
                           peak_ratio=r.peak_ratio,
                           provenance=r.provenance)


@dataclass
class DisplacementResult:
    """Phase-1 output: the two translation arrays of Fig. 4.

    ``west[r][c]`` positions tile ``(r, c)`` relative to ``(r, c-1)`` and is
    ``None`` for ``c == 0``; ``north[r][c]`` positions ``(r, c)`` relative
    to ``(r-1, c)`` and is ``None`` for ``r == 0``.
    """

    rows: int
    cols: int
    west: list[list[Translation | None]]
    north: list[list[Translation | None]]
    stats: dict = field(default_factory=dict)

    @staticmethod
    def empty(rows: int, cols: int) -> "DisplacementResult":
        return DisplacementResult(
            rows=rows,
            cols=cols,
            west=[[None] * cols for _ in range(rows)],
            north=[[None] * cols for _ in range(rows)],
        )

    def set(self, direction: Direction, row: int, col: int, t: Translation) -> None:
        arr = self.west if direction is Direction.WEST else self.north
        arr[row][col] = t

    def get(self, direction: Direction, row: int, col: int) -> Translation | None:
        arr = self.west if direction is Direction.WEST else self.north
        return arr[row][col]

    def pair_count(self) -> int:
        n = sum(1 for row in self.west for t in row if t is not None)
        n += sum(1 for row in self.north for t in row if t is not None)
        return n

    def is_complete(self) -> bool:
        """All ``2nm - n - m`` pairs computed."""
        return self.pair_count() == 2 * self.rows * self.cols - self.rows - self.cols

    def missing_pairs(self) -> list[tuple[str, int, int]]:
        """Absent interior pairs as ``(direction, row, col)`` of the second tile."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                if c > 0 and self.west[r][c] is None:
                    out.append(("west", r, c))
                if r > 0 and self.north[r][c] is None:
                    out.append(("north", r, c))
        return out


def compute_grid_displacements(
    load_tile,
    rows: int,
    cols: int,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    fft_shape: tuple[int, int] | None = None,
    ccf_mode: CcfMode = CcfMode.PAPER4,
    n_peaks: int = 1,
    real_transforms: bool = True,
    subpixel: bool = False,
    cache: PlanCache | None = None,
    planning: PlanningMode = PlanningMode.ESTIMATE,
    error_policy: ErrorPolicy | None = None,
    fault_report=None,
    tracer=None,
    metrics=None,
    use_tile_stats: bool = True,
    use_workspace: bool = True,
    journal=None,
    coarse: CoarseConfig | None = None,
) -> DisplacementResult:
    """Compute west/north translations for the whole grid sequentially.

    ``load_tile(row, col) -> ndarray`` supplies pixels (e.g.
    ``TileDataset.load``); tiles and transforms are released as soon as the
    early-free policy allows, so peak memory follows the traversal order,
    not the grid size.

    Half-spectrum (R2C) transforms are the default; ``real_transforms=
    False`` restores the full complex path (results are identical either
    way).  ``use_tile_stats``/``use_workspace`` gate the O(1)-statistics
    CCF and the reusable pair scratch -- on by default, exposed so the
    benchmark can measure each layer against its baseline.

    Instrumented: ``result.stats`` records FFT/pair/read counts and the peak
    number of live transforms (these feed the Table I verification bench).

    With an ``error_policy``, failing tile reads are retried per the
    policy; when retries are exhausted the run either aborts with a
    :class:`~repro.pipeline.graph.PipelineError` naming the logical stage
    (``on_exhausted="abort"``) or drops the tile -- skipping every pair it
    participates in -- and records the damage in ``fault_report`` (a
    :class:`~repro.faults.report.FaultReport`) and ``result.stats``.
    Without a policy, exceptions propagate raw (the legacy contract the
    reference implementations rely on).

    With a ``tracer`` (:class:`~repro.observe.tracer.Tracer`), every read,
    forward FFT and pair registration becomes a span on the
    ``"sequential"`` timeline track -- the single-row analogue of the
    pipelined implementations' per-stage timelines.

    With a ``journal`` (:class:`~repro.recovery.journal.RunJournal`),
    every journaled pair is served from the journal (its tiles are not
    even read when all their incident pairs are journaled) and every
    freshly computed pair is made durable before the run advances --
    ``stats["pairs"]`` counts only *computed* pairs, so a resumed run can
    prove it recomputed nothing that was already on disk
    (``stats["resumed_pairs"]`` carries the journal hits).

    With ``coarse`` (a :class:`~repro.core.coarse.CoarseConfig`), the
    per-tile product becomes the block-mean-downsampled *coarse*
    spectrum (a ``"downsample"`` span precedes each ``"fft"`` span, and
    the workspace arena is sized for the coarse transform shape), pairs
    go through :func:`~repro.core.coarse.coarse_pciam`, and
    ``stats["coarse_hits"]`` / ``stats["full_fallbacks"]`` count the
    gate's decisions.  Full-resolution tile statistics are still built
    (the refinement probes and the fallback need them); results carry
    their provenance into the journal.  ``coarse=None`` leaves the
    single-pass path byte-identical to previous releases.
    """
    from repro.observe.tracer import NULL_TRACER

    if tracer is None:
        tracer = NULL_TRACER
    grid = TileGrid(rows, cols)
    result = DisplacementResult.empty(rows, cols)

    tiles: dict[GridPosition, np.ndarray] = {}
    ffts: dict[GridPosition, np.ndarray] = {}
    tstats: dict[GridPosition, TileStats] = {}
    pairs_done: set = set()
    failed_tiles: set[GridPosition] = set()
    skipped_pairs: set = set()
    stats = {
        "reads": 0,
        "ffts": 0,
        "pairs": 0,
        "peak_live_transforms": 0,
        "fft_copies_saved": 0,
    }
    if coarse is not None:
        stats["coarse_hits"] = 0
        stats["full_fallbacks"] = 0
    # Resume: serve journaled pairs up front so the traversal below skips
    # their computation (and the loads of tiles with nothing left to do).
    if journal is not None:
        for pair in grid_pairs(grid):
            t = journal.lookup(
                pair.direction.value, pair.second.row, pair.second.col
            )
            if t is not None:
                result.set(pair.direction, pair.second.row, pair.second.col, t)
                pairs_done.add(pair)
        if pairs_done:
            stats["resumed_pairs"] = len(pairs_done)

    # One workspace for the whole sequential run: pairs are processed one
    # at a time, so a single scratch set serves every pair (lazily built
    # once the first tile reveals the native shape when fft_shape is None).
    arena: WorkspaceArena | None = None
    workspace = None

    def ensure_workspace(shape: tuple[int, int]):
        nonlocal arena, workspace
        if not use_workspace:
            return None
        if arena is None:
            arena = WorkspaceArena(shape, real=real_transforms, count=1)
            workspace = arena.acquire()
            stats["workspace_bytes"] = arena.bytes_per_workspace
        return workspace

    def load_with_policy(pos: GridPosition) -> np.ndarray | None:
        """Read one tile under the policy; None = tile dropped (skip mode)."""
        if error_policy is None:
            return load_tile(pos.row, pos.col)

        def on_retry(attempt: int, exc: BaseException) -> None:
            if fault_report is not None:
                fault_report.record_retry("read", (pos.row, pos.col), attempt, exc)
            if metrics is not None:
                metrics.counter("read.retries").inc()

        try:
            value, _ = run_with_retries(
                lambda: load_tile(pos.row, pos.col),
                error_policy,
                key=(pos.row, pos.col),
                on_retry=on_retry,
            )
            return value
        except Exception as exc:
            if error_policy.on_exhausted == "abort":
                raise aggregate_failures(
                    "displacement", [("read", exc)]
                ) from exc
            if fault_report is not None:
                fault_report.record_skipped_tile((pos.row, pos.col), exc)
            if metrics is not None:
                metrics.counter("read.skipped_tiles").inc()
            if journal is not None:
                # Forensic record only: skips are retried on resume (the
                # fault may have been transient), so replay ignores these.
                journal.record_skipped_tile(pos.row, pos.col, str(exc))
            return None

    def mark_failed(pos: GridPosition) -> None:
        failed_tiles.add(pos)
        # Its pairs can never be computed: mark them done so the early-free
        # policy still releases the surviving neighbours' transforms.
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            if pair not in pairs_done:
                pairs_done.add(pair)
                skipped_pairs.add(pair)
                if metrics is not None:
                    metrics.counter("pairs.skipped").inc()
                if fault_report is not None:
                    fault_report.record_skipped_pair(
                        pair.direction.name.lower(),
                        pair.second.row,
                        pair.second.col,
                        reason=f"tile ({pos.row},{pos.col}) unreadable",
                    )

    def ensure_loaded(pos: GridPosition) -> None:
        if pos in tiles or pos in failed_tiles:
            return
        # A resumed tile with every incident pair already journaled
        # contributes nothing: don't even read it.
        if all(p in pairs_done for p in pairs_for_tile(grid, pos.row, pos.col)):
            return
        with tracer.span("read", "sequential", key=str(pos)):
            pixels = load_with_policy(pos)
        if pixels is None:
            mark_failed(pos)
            return
        tiles[pos] = np.asarray(pixels, dtype=np.float64)
        stats["reads"] += 1
        if coarse is not None:
            # Coarse mode's per-tile product is the downsampled spectrum:
            # the full-resolution transform is never computed up front
            # (the occasional gate-rejected pair recomputes it inside the
            # fallback instead of every pair paying for it always).
            with tracer.span("downsample", "sequential", key=str(pos)):
                small = downsample(tiles[pos], coarse.factor)
            with tracer.span("fft", "sequential", key=str(pos)):
                ffts[pos] = forward_fft(
                    small,
                    coarse_transform_shape(tuple(fft_shape), coarse.factor)
                    if fft_shape is not None else None,
                    cache, planning, real=real_transforms, stats=stats,
                )
        else:
            with tracer.span("fft", "sequential", key=str(pos)):
                ffts[pos] = forward_fft(
                    tiles[pos], fft_shape, cache, planning,
                    real=real_transforms, stats=stats,
                )
        if use_tile_stats:
            # Per-tile summed-area tables: computed once, shared by the
            # tile's up-to-four incident pairs, released with the FFT.
            with tracer.span("tilestats", "sequential", key=str(pos)):
                tstats[pos] = TileStats(tiles[pos])
        stats["ffts"] += 1
        stats["peak_live_transforms"] = max(
            stats["peak_live_transforms"], len(ffts)
        )

    def maybe_release(pos: GridPosition) -> None:
        if pos not in ffts:
            return
        if all(p in pairs_done for p in pairs_for_tile(grid, pos.row, pos.col)):
            del ffts[pos]
            del tiles[pos]
            tstats.pop(pos, None)

    for pos in traverse(grid, traversal):
        ensure_loaded(pos)
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            if pair in pairs_done:
                continue
            if pair.first in ffts and pair.second in ffts:
                with tracer.span("pair", "sequential", key=str(pair)):
                    if coarse is not None:
                        r = coarse_pciam(
                            tiles[pair.first],
                            tiles[pair.second],
                            coarse,
                            cfft_i=ffts[pair.first],
                            cfft_j=ffts[pair.second],
                            fft_shape=fft_shape,
                            ccf_mode=ccf_mode,
                            n_peaks=n_peaks,
                            real_transforms=real_transforms,
                            subpixel=subpixel,
                            cache=cache,
                            planning=planning,
                            stats_i=tstats.get(pair.first),
                            stats_j=tstats.get(pair.second),
                            workspace=ensure_workspace(
                                coarse_transform_shape(
                                    tuple(fft_shape or tiles[pair.first].shape),
                                    coarse.factor,
                                )
                            ),
                            use_tile_stats=use_tile_stats,
                            stats=stats,
                        )
                    else:
                        r = pciam(
                            tiles[pair.first],
                            tiles[pair.second],
                            fft_i=ffts[pair.first],
                            fft_j=ffts[pair.second],
                            fft_shape=fft_shape,
                            ccf_mode=ccf_mode,
                            n_peaks=n_peaks,
                            real_transforms=real_transforms,
                            subpixel=subpixel,
                            cache=cache,
                            planning=planning,
                            stats_i=tstats.get(pair.first),
                            stats_j=tstats.get(pair.second),
                            workspace=ensure_workspace(
                                fft_shape or tiles[pair.first].shape
                            ),
                            use_tile_stats=use_tile_stats,
                        )
                t = Translation.from_pciam(r, subpixel=subpixel)
                result.set(pair.direction, pair.second.row, pair.second.col, t)
                if journal is not None:
                    journal.record_pair(
                        pair.direction.value, pair.second.row,
                        pair.second.col, t,
                    )
                pairs_done.add(pair)
                stats["pairs"] += 1
        # Release this tile and any neighbour that just completed.
        maybe_release(pos)
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            maybe_release(pair.first if pair.second == pos else pair.second)

    if arena is not None and workspace is not None:
        arena.release(workspace)
    if failed_tiles or skipped_pairs:
        stats["skipped_tiles"] = sorted((p.row, p.col) for p in failed_tiles)
        stats["skipped_pairs"] = len(skipped_pairs)
    result.stats = stats
    if not result.is_complete() and not failed_tiles:  # pragma: no cover
        raise RuntimeError(
            f"displacement phase incomplete: {result.pair_count()} pairs of "
            f"{2 * rows * cols - rows - cols}"
        )
    return result
