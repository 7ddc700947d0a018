"""Proc-CPU: SPMD row bands over processes (GIL-free phase 1).

Same spatial decomposition as :class:`~repro.impls.mt_cpu.MtCpu`, but the
band workers are OS *processes*, so the non-numpy half of the phase-1
loop (peak contests, CCF dispatch, bookkeeping) runs truly concurrently
instead of serializing on the GIL.  The pieces that make that practical:

- **fork + shared memory, zero pickling of pixels.**  Workers are forked
  from the parent after the run context (dataset handle, configuration,
  shared slabs) is staged in a module global, so they inherit everything
  by address; only the small per-band result records travel back through
  the executor.  Cross-band products live in anonymous ``MAP_SHARED``
  mappings made before the fork: visible to every process, with no name
  to leak and no ``/dev/shm`` size cap (a tmpfs segment past that cap
  would SIGBUS the worker that writes it).

- **two-phase boundary exchange.**  The north pairs joining band ``k`` to
  band ``k-1`` need the boundary row's tiles and spectra in *both* bands.
  Phase A loads each interior boundary row exactly once and publishes
  tile + forward spectrum into the shared slabs; Phase B band workers
  consume the slab views from both sides.  Every tile in the grid is
  therefore read and transformed exactly once --
  ``duplicated_boundary_reads`` is 0 by construction (MT-CPU's
  ``boundary_refts`` waste is the thing this removes).

- **column-major band walk.**  Inside a band, tiles are visited column
  by column, top to bottom, and a tile's products are freed as soon as
  its east neighbour's pair is done -- the paper's Section IV.A
  early-release argument applied per band.  A worker holds about band
  height + 1 tiles' products (``stats["band_peak_live"]``), however wide
  the grid is.

- **deterministic merge.**  Each pair is owned by exactly one band;
  workers return their displacement records and the parent folds them in
  band order, so positions are bit-identical to ``simple-cpu``.

- **durability from inside workers.**  Each worker appends completed
  pairs to the run journal through its own
  :class:`~repro.recovery.journal.JournalAppender` (``O_APPEND`` writes
  interleave atomically), so a SIGKILL of the whole process tree loses at
  most in-flight pairs, exactly like the threaded backends.  Resume reads
  come from the fork-inherited journal state; their hit counts are folded
  into the parent's journal at merge time.

Workers watch their parent's pid and ``os._exit`` when it changes, so a
SIGKILL of the parent leaves no orphans holding slab mappings.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.core.tilestats import TileStats
from repro.fftlib.plans import spectrum_shape
from repro.grid.neighbors import Direction
from repro.impls.base import Implementation
from repro.impls.mt_cpu import row_bands
from repro.io.dataset import TileDataset
from repro.observe.tracer import Tracer
from repro.pipeline.graph import aggregate_failures
from repro.pipeline.stage import run_with_retries
from repro.recovery.journal import JournalAppender


#: Run context staged by the parent immediately before the executor's
#: workers fork, and inherited by them by address.  Exactly one proc-cpu
#: run may be live per process at a time (runs are sequential in every
#: caller; a second concurrent run would need a keyed registry here).
_CTX: "_RunCtx | None" = None

#: Worker-process journal appender, opened lazily on first record.
_APPENDER: JournalAppender | None = None


@dataclass
class _RunCtx:
    """Everything a forked band worker needs, reachable by inheritance."""

    impl: "ProcCpu"
    dataset: TileDataset
    bands: list[tuple[int, int]]
    #: Slab views indexed ``b * cols + c`` for interior boundary ``b``
    #: (the last row of band ``b``); ``None`` when the grid has one band.
    tiles: np.ndarray | None
    spectra: np.ndarray | None
    #: ``(n_boundaries, cols)`` int8: 1 = products published, 0 = tile
    #: skipped (or Phase A not run -- never observed by Phase B).
    mask: np.ndarray | None
    journal_spec: tuple[str, bool] | None
    trace_enabled: bool
    #: Tasks run in forked workers (not inline in the parent), so their
    #: fault-plan triggers must travel back with the outcome.
    pooled: bool


@dataclass
class _TaskOutcome:
    """What one worker task ships back to the parent for merging."""

    #: ``(direction_value, row, col, Translation)`` in traversal order.
    pairs: list = field(default_factory=list)
    resumed: int = 0
    skipped_tiles: list = field(default_factory=list)   # (r, c, errmsg)
    skipped_pairs: list = field(default_factory=list)   # (direction, r, c, reason)
    retries: list = field(default_factory=list)         # (r, c, attempt, errmsg)
    stats: dict = field(default_factory=dict)
    #: Band tasks: most tiles' products held at once.
    peak_live: int | None = None
    spans: list = field(default_factory=list)
    tracer_t0: float = 0.0
    #: ``FaultPlan.changes_since`` of the worker's copy of the plan.
    fault_changes: tuple | None = None


def _shared(slots: int, item_shape: tuple, dtype) -> np.ndarray:
    """Zero-filled ``(slots, *item_shape)`` array in an anonymous
    ``MAP_SHARED`` mapping, unmapped when the last view is dropped."""
    dtype = np.dtype(dtype)
    nbytes = slots * int(np.prod(item_shape)) * dtype.itemsize
    return np.ndarray((slots, *item_shape), dtype=dtype,
                      buffer=mmap.mmap(-1, max(1, nbytes)))


def _watch_parent(ppid: int) -> None:  # pragma: no cover - daemon loop
    """Exit hard if the parent dies: orphaned band workers must not keep
    slab mappings (or executor queues) alive after a SIGKILL."""
    while True:
        if os.getppid() != ppid:
            os._exit(1)
        time.sleep(0.5)


def _worker_init(ppid: int) -> None:
    """Per-process setup: a fresh journal appender and the orphan watch."""
    global _APPENDER
    _APPENDER = None
    threading.Thread(target=_watch_parent, args=(ppid,), daemon=True).start()


def _journal_appender() -> JournalAppender | None:
    global _APPENDER
    ctx = _CTX
    if ctx is None or ctx.journal_spec is None:
        return None
    if _APPENDER is None:
        path, fsync = ctx.journal_spec
        _APPENDER = JournalAppender(path, fsync=fsync)
    return _APPENDER


def _load_tile(impl, dataset, r: int, c: int, out: _TaskOutcome):
    """Tile read under the error policy, with worker-local accounting.

    Mirrors :meth:`Implementation._load_tile` but collects retry/skip
    records in the outcome (the forked ``fault_report``/``metrics``
    copies would swallow them) and journals skips through the worker's
    appender so they are durable without the parent.
    """
    if impl.error_policy is None:
        return dataset.load(r, c)

    def on_retry(attempt: int, exc: BaseException) -> None:
        out.retries.append((r, c, attempt, f"{type(exc).__name__}: {exc}"))

    try:
        value, _ = run_with_retries(
            lambda: dataset.load(r, c),
            impl.error_policy,
            key=(r, c),
            on_retry=on_retry,
        )
        return value
    except Exception as exc:
        if not impl._skip_on_error:
            # Same failure the sequential reference raises under a policy.
            raise aggregate_failures("displacement", [("read", exc)]) from exc
        out.skipped_tiles.append((r, c, f"{type(exc).__name__}: {exc}"))
        ap = _journal_appender()
        if ap is not None:
            ap.record_skipped_tile(r, c, str(exc))
        return None


def _new_outcome(ctx: _RunCtx) -> tuple[_TaskOutcome, Tracer, tuple | None]:
    """A task's outcome, tracer and fault-plan mark (pooled runs only)."""
    out = _TaskOutcome()
    tracer = Tracer(enabled=ctx.trace_enabled)
    out.tracer_t0 = tracer._t0
    plan = getattr(ctx.dataset, "fault_plan", None)
    mark = plan.mark() if ctx.pooled and plan is not None else None
    return out, tracer, mark


def _finish(ctx: _RunCtx, out: _TaskOutcome, tracer: Tracer, local: dict,
            mark) -> _TaskOutcome:
    out.stats = local
    out.spans = tracer.spans
    if mark is not None:
        out.fault_changes = ctx.dataset.fault_plan.changes_since(mark)
    return out


def _tile_products(impl, dataset, r: int, c: int, out: _TaskOutcome,
                   local: dict, tracer, track: str):
    """Read + transform one tile: ``(tile, fft)``, or ``None``."""
    key = f"({r},{c})"
    with tracer.span("read", track, key=key):
        tile = _load_tile(impl, dataset, r, c, out)
    if tile is None:
        return None
    local["reads"] += 1
    with tracer.span("fft", track, key=key):
        fft = impl._forward_spectrum(tile, stats=local)
    local["ffts"] += 1
    return (tile, fft)


def _slab_products(ctx: _RunCtx, b: int, c: int):
    """Zero-copy ``(tile, fft)`` for boundary ``b``, column ``c``."""
    if not ctx.mask[b, c]:
        return None
    slot = b * ctx.dataset.cols + c
    return (ctx.tiles[slot], ctx.spectra[slot])


def _with_stats(impl, products, tracer, track: str, key: str):
    """The pair-ready ``(tile, fft, stats)`` entry, or ``None``.

    Boundary tiles get their ``TileStats`` built in both bands that use
    them: the summed-area table is twice the tile's size, so sharing it
    would double the slabs to save a cumsum.
    """
    if products is None:
        return None
    ts = None
    if impl.use_tile_stats:
        with tracer.span("tilestats", track, key=key):
            ts = TileStats(products[0])
    return (*products, ts)


def _boundary_task(b: int) -> _TaskOutcome:
    """Phase A: publish boundary row ``b`` (last row of band ``b``).

    Each tile's products are copied into the slabs as soon as they are
    made, so the worker holds one tile's products at a time.
    """
    ctx = _CTX
    impl, dataset = ctx.impl, ctx.dataset
    out, tracer, mark = _new_outcome(ctx)
    track = f"proc-cpu/boundary-{b}"
    local = {"reads": 0, "ffts": 0}
    r = ctx.bands[b][1] - 1
    for c in range(dataset.cols):
        products = _tile_products(
            impl, dataset, r, c, out, local, tracer, track
        )
        if products is None:
            continue
        tile, fft = products
        slot = b * dataset.cols + c
        ctx.tiles[slot][: tile.shape[0], : tile.shape[1]] = tile
        ctx.spectra[slot] = fft
        ctx.mask[b, c] = 1
    return _finish(ctx, out, tracer, local, mark)


def _band_task(k: int) -> _TaskOutcome:
    """Phase B: all pairs owned by band ``k`` (rows ``[r0, r1)``).

    Pair ownership matches :class:`MtCpu` -- west pairs within rows
    ``>= r0``, north pairs down into the band -- and boundary rows (the
    row above, and this band's own last row when it is interior) come
    from the Phase A slabs instead of fresh reads.  The walk is column
    by column, top to bottom: tile ``(r, c)`` pairs with its west and
    north neighbours as soon as it is loaded, and ``(r, c - 1)`` is
    dropped right after, because its last pair (the east one) is done.
    """
    ctx = _CTX
    impl, dataset = ctx.impl, ctx.dataset
    r0, r1 = ctx.bands[k]
    cols = dataset.cols
    out, tracer, mark = _new_outcome(ctx)
    track = f"proc-cpu/band-{k}"
    local = {"reads": 0, "ffts": 0, "pairs": 0}
    shared_last = k < len(ctx.bands) - 1
    workspace = None
    if impl.use_workspace:
        workspace = impl._make_arena(dataset, count=1).acquire()

    top = r0 - 1 if r0 > 0 else r0
    live: dict[tuple[int, int], tuple | None] = {}
    peak = 0
    for c in range(cols):
        for r in range(top, r1):
            if r == r0 - 1:
                # Boundary row from the band above: published by Phase A.
                products = _slab_products(ctx, k - 1, c)
            elif r == r1 - 1 and shared_last:
                # This band's own last row is the next band's boundary
                # row; Phase A already read + transformed it.
                products = _slab_products(ctx, k, c)
            else:
                products = _tile_products(
                    impl, dataset, r, c, out, local, tracer, track
                )
            entry = _with_stats(impl, products, tracer, track, f"({r},{c})")
            live[(r, c)] = entry
            peak = max(peak, len(live))
            if r >= r0:
                if c > 0:
                    _pair(impl, out, Direction.WEST, r, c,
                          live[(r, c - 1)], entry, local, workspace,
                          tracer, track)
                if r > top:
                    _pair(impl, out, Direction.NORTH, r, c,
                          live[(r - 1, c)], entry, local, workspace,
                          tracer, track)
            live.pop((r, c - 1), None)
    out.peak_live = peak
    return _finish(ctx, out, tracer, local, mark)


def _pair(impl, out: _TaskOutcome, direction: Direction, r: int, c: int,
          first, second, local: dict, workspace, tracer, track: str) -> None:
    journaled = impl._journal_lookup(direction, r, c)
    if journaled is not None:
        out.pairs.append((direction.value, r, c, journaled))
        out.resumed += 1
        return
    if first is None or second is None:
        out.skipped_pairs.append(
            (direction.name.lower(), r, c, "member tile unreadable")
        )
        return
    img_i, fft_i, stats_i = first
    img_j, fft_j, stats_j = second
    with tracer.span("pair", track, key=f"{direction.name.lower()}({r},{c})"):
        res = impl._register_pair(
            img_i, img_j, fft_i=fft_i, fft_j=fft_j,
            stats_i=stats_i, stats_j=stats_j,
            workspace=workspace, stats=local,
        )
    t = impl._translation(res)
    ap = _journal_appender()
    if ap is not None:
        ap.record_pair(direction.value, r, c, t)
    out.pairs.append((direction.value, r, c, t))
    local["pairs"] += 1


class ProcCpu(Implementation):
    """SPMD row bands over a fork-based process pool.

    ``workers`` caps the band count (like MT-CPU).  Positions are
    bit-identical to ``simple-cpu`` in every configuration.
    ``fft_batch`` is validated for signature compatibility with
    :class:`~repro.impls.pipelined_cpu.PipelinedCpu` but has no effect:
    every tile is transformed on its own, right before its first pair.
    """

    name = "proc-cpu"

    def __init__(self, workers: int = 4, fft_batch: int = 1, **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if fft_batch < 1:
            raise ValueError(f"fft_batch must be >= 1, got {fft_batch}")
        super().__init__(**kw)
        self.workers = workers

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        global _CTX, _APPENDER
        bands = row_bands(dataset.rows, self.workers)
        n_boundaries = len(bands) - 1
        use_pool = n_boundaries > 0 and "fork" in mp.get_all_start_methods()

        tile_shape = tuple(dataset.tile_shape)
        # In coarse mode the published per-tile spectrum is coarse-shaped
        # (the full-resolution spectrum is never computed up front).
        fshape = self._pair_transform_shape(dataset)
        sshape = spectrum_shape(fshape) if self.real_transforms else fshape
        slots = n_boundaries * dataset.cols

        tiles = spectra = mask = None
        if n_boundaries:
            # Made before the fork, so Phase A writes in one worker are
            # visible to every Phase B worker.
            tiles = _shared(slots, tile_shape, np.float64)
            spectra = _shared(slots, sshape, np.complex128)
            mask = _shared(n_boundaries, (dataset.cols,), np.int8)

        _CTX = _RunCtx(
            impl=self, dataset=dataset, bands=bands,
            tiles=tiles, spectra=spectra, mask=mask,
            journal_spec=(
                self.journal.appender_spec() if self.journal is not None
                else None
            ),
            trace_enabled=self.tracer.enabled,
            pooled=use_pool,
        )
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats = {
            "reads": 0, "ffts": 0, "pairs": 0,
            "boundary_refts": 0, "duplicated_boundary_reads": 0,
            "bands": len(bands), "process_workers": len(bands) if use_pool else 0,
        }
        try:
            if use_pool:
                outcomes = self._run_pool(bands, n_boundaries)
            else:
                outcomes = [
                    _boundary_task(b) for b in range(n_boundaries)
                ] + [_band_task(k) for k in range(len(bands))]
            self._merge(dataset, disp, stats, outcomes)
        finally:
            _CTX = None
            if _APPENDER is not None:
                # Inline (poolless) tasks run in this process and may have
                # opened a worker-style appender; close it per run.
                _APPENDER.close()
                _APPENDER = None
        disp.stats = stats
        return disp, stats

    def _run_pool(self, bands, n_boundaries) -> list[_TaskOutcome]:
        """Fork the pool (after ``_CTX`` is staged) and run both phases."""
        ctx = mp.get_context("fork")
        outcomes: list[_TaskOutcome] = []
        with ProcessPoolExecutor(
            max_workers=len(bands), mp_context=ctx,
            initializer=_worker_init, initargs=(os.getpid(),),
        ) as pool:
            # Phase A must complete before any band consumes a slab; the
            # barrier is cheap (boundary rows are a 1/band_height slice
            # of the grid) and keeps Phase B entirely synchronization-free.
            for fut in [pool.submit(_boundary_task, b)
                        for b in range(n_boundaries)]:
                outcomes.append(fut.result())
            for fut in [pool.submit(_band_task, k)
                        for k in range(len(bands))]:
                outcomes.append(fut.result())
        return outcomes

    def _merge(self, dataset, disp: DisplacementResult, stats: dict,
               outcomes: list[_TaskOutcome]) -> None:
        """Fold worker outcomes into the parent-side result, in task order.

        Pair ownership is disjoint across bands, so the fold order cannot
        change any value -- but fixing it keeps every parent-side artifact
        (trace, fault report, journal accounting) deterministic too.
        """
        resumed = 0
        plan = getattr(dataset, "fault_plan", None)
        peaks = []
        for out in outcomes:
            if out.fault_changes is not None:
                plan.absorb(out.fault_changes)
            if out.peak_live is not None:
                peaks.append(out.peak_live)
            for d, r, c, t in out.pairs:
                disp.set(Direction(d), r, c, t)
            resumed += out.resumed
            for r, c, attempt, err in out.retries:
                if self.fault_report is not None:
                    self.fault_report.record_retry(
                        "read", (r, c), attempt, RuntimeError(err)
                    )
                if self.metrics is not None:
                    self.metrics.counter("read.retries").inc()
            for r, c, err in out.skipped_tiles:
                if self.fault_report is not None:
                    self.fault_report.record_skipped_tile(
                        (r, c), RuntimeError(err)
                    )
                if self.metrics is not None:
                    self.metrics.counter("read.skipped_tiles").inc()
            for d, r, c, reason in out.skipped_pairs:
                self._record_skipped_pair(d, r, c, reason=reason)
            for key, v in out.stats.items():
                stats[key] = stats.get(key, 0) + v
            self.tracer.absorb(out.spans, out.tracer_t0)
        stats["band_peak_live"] = peaks
        stats["peak_live_transforms"] = max(peaks, default=0)
        if resumed:
            stats["resumed_pairs"] = resumed
        if self.journal is not None:
            self.journal.note_worker_pairs(stats.get("pairs", 0))
            if stats["process_workers"]:
                # Forked lookups counted their hits in the workers' copies.
                self.journal.resumed_pairs += resumed
                if self.metrics is not None and resumed:
                    self.metrics.counter("journal.pairs_resumed").inc(resumed)
