"""Pipelined-CPU: the 3-stage CPU pipeline (Section IV.B, last paragraph).

"the CPU pipeline consists of three stages: reader, displacement/fft, and
bookkeeping" and "includes all the memory mechanisms in its GPU
counterpart" -- i.e. the fixed transform pool and reference-counted early
release.

Topology (queues are bounded monitor queues)::

    reader --Q1--> compute (N workers) --Q2--> bookkeeper --(ready pairs)--+
                      ^                                                    |
                      +--------------------- Q1 <--------------------------+

The compute stage handles two item kinds: a *tile* item is FFT'd into a
pool slot; a *pair* item runs the displacement computation (NCC, inverse
FFT, reduction, CCFs).  The bookkeeper is the single-threaded state
machine (:class:`repro.pipeline.PairBookkeeper`): it turns FFT-ready
events into pair work and pair completions into pool releases, and closes
the queues when the last pair completes.

The transform pool bounds memory exactly as on the GPU: if it is sized
below the traversal wavefront the reader stalls; the default
(2 x min(rows, cols) + 4) is safe for the chained-diagonal order (tests
probe the boundary).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.core.downsample import downsample
from repro.core.pciam import forward_fft, forward_fft_batch
from repro.core.tilestats import TileStats
from repro.fftlib.plans import spectrum_shape
from repro.grid.neighbors import Pair
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset
from repro.memmodel.pool import BufferPool, PoolExhausted
from repro.memmodel.workspace import ThreadLocalWorkspaces
from repro.pipeline.bookkeeper import PairBookkeeper
from repro.pipeline.graph import Pipeline
from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.pipeline.stage import END_OF_STREAM
from repro.recovery.cancel import ItemCancelled


@dataclass
class _TileItem:
    pos: GridPosition
    pixels: np.ndarray
    #: Accumulated time this tile spent waiting for a pool slot (see the
    #: requeue logic in the compute stage).
    blocked_seconds: float = 0.0


@dataclass
class _TileBatch:
    """``fft_batch`` tiles transformed through one batched forward FFT.

    Carries the same pool-starvation accounting as a single tile; when
    only some of the batch gets slots, the remainder is requeued as a
    smaller batch (keeping its accumulated blocked time).
    """

    items: list
    blocked_seconds: float = 0.0


@dataclass
class _FftDone:
    pos: GridPosition
    slot: int


@dataclass
class _PairItem:
    pair: Pair


@dataclass
class _PairDone:
    pair: Pair


@dataclass
class _PairFailed:
    """An emitted pair's computation was abandoned (e.g. watchdog cancel)."""

    pair: Pair


@dataclass
class _TileFailed:
    """Reader could not deliver a tile (retries exhausted, skip policy)."""

    pos: GridPosition


def default_pool_size(rows: int, cols: int) -> int:
    """Safe transform-pool size for the chained-diagonal wavefront."""
    return 2 * min(rows, cols) + 4


class PipelinedCpu(Implementation):
    """3-stage CPU pipeline (1.4 min at 16 threads on the paper's machine)."""

    name = "pipelined-cpu"

    def __init__(
        self,
        workers: int = 4,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        queue_size: int = 8,
        pool_timeout: float = 60.0,
        fft_batch: int = 1,
        **kw,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one compute worker, got {workers}")
        if fft_batch < 1:
            raise ValueError(f"fft_batch must be >= 1, got {fft_batch}")
        super().__init__(**kw)
        self.workers = workers
        self.pool_size = pool_size
        self.traversal = traversal
        self.queue_size = queue_size
        self.pool_timeout = pool_timeout
        #: Tiles per batched forward transform in the FFT stage; 1 keeps
        #: the classic one-FFT-per-item flow.  Batch slices are
        #: bit-identical to single transforms, so this is throughput-only.
        self.fft_batch = fft_batch

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        rows, cols = dataset.rows, dataset.cols
        grid = TileGrid(rows, cols)
        pool_size = self.pool_size or default_pool_size(rows, cols)
        # The pool holds per-tile spectra: coarse mode shrinks every
        # buffer to the coarse transform shape (factor^2 less memory).
        pair_shape = self._pair_transform_shape(dataset)
        # Half-spectrum transforms shrink every pool buffer to
        # (h, w//2 + 1) -- the paper's "roughly half the memory".
        buf_shape = (
            spectrum_shape(pair_shape) if self.real_transforms else pair_shape
        )
        pool = BufferPool(pool_size, buf_shape, dtype=np.complex128)
        arena = self._make_arena(dataset, count=self.workers)
        workspaces = ThreadLocalWorkspaces(arena) if arena is not None else None
        bk = PairBookkeeper(grid, metrics=self.metrics)
        disp = DisplacementResult.empty(rows, cols)

        pipe = Pipeline(
            "pipelined-cpu", tracer=self.tracer, metrics=self.metrics,
            watchdog=self.watchdog,
        )
        # Q1 carries tile and pair work into the compute stage; it has two
        # producers (reader + bookkeeper), so stages put into it manually and
        # only the bookkeeper closes it (at end of computation).
        q_work = pipe.queue(maxsize=0, name="work")
        q_events = pipe.queue(maxsize=0, name="events")

        # Reader memory bound: tile pixels in flight are limited by a
        # semaphore released when the tile's FFT lands in a pool slot.
        tiles_in_flight = threading.Semaphore(self.queue_size)

        # Host-side state shared between stages, owned logically by the
        # bookkeeper (single thread) except the read-only pixel/slot maps.
        state_lock = threading.Lock()
        pixels: dict[GridPosition, np.ndarray] = {}
        slots: dict[GridPosition, int] = {}
        tstats: dict[GridPosition, TileStats] = {}
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "fft_copies_saved": 0}

        order = iter(list(traverse(grid, self.traversal)))

        #: Tiles awaiting a full batch (reader is single-threaded).
        pending_batch: list[_TileItem] = []

        def flush_batch() -> None:
            if pending_batch:
                q_work.put(_TileBatch(list(pending_batch)))
                pending_batch.clear()

        def reader(_item, _ctx):
            try:
                pos = next(order)
            except StopIteration:
                flush_batch()
                return END_OF_STREAM
            # Bounded wait so a pipeline abort cannot strand the reader on
            # the semaphore.
            while not tiles_in_flight.acquire(timeout=0.1):
                if q_work.closed:
                    return END_OF_STREAM
            if self.error_policy is None:
                tile = dataset.load(pos.row, pos.col)
            else:
                tile = self._load_tile(dataset, pos.row, pos.col)
                if tile is None:
                    tiles_in_flight.release()
                    q_events.put(_TileFailed(pos))
                    return None
            with stats_lock:
                stats["reads"] += 1
            if self.fft_batch > 1:
                pending_batch.append(_TileItem(pos, tile))
                if len(pending_batch) >= self.fft_batch:
                    flush_batch()
            else:
                q_work.put(_TileItem(pos, tile))
            return None

        def compute(item, ctx):
            # Cooperative-cancellation wrapper (watchdog supervision): a
            # cancelled item must still notify the bookkeeper, otherwise
            # its refcounts never drain and the pipeline waits forever on
            # a pair/tile that will never complete.  The exception is
            # re-raised so stage-level accounting (drop records, abort
            # dispositions) still applies.
            try:
                return _compute(item, ctx)
            except ItemCancelled:
                if self._skip_on_error:
                    if isinstance(item, _TileItem):
                        tiles_in_flight.release()
                        q_events.put(_TileFailed(item.pos))
                    elif isinstance(item, _TileBatch):
                        for t in item.items:
                            tiles_in_flight.release()
                            q_events.put(_TileFailed(t.pos))
                    elif isinstance(item, _PairItem):
                        q_events.put(_PairFailed(item.pair))
                raise

        def _compute(item, _ctx):
            if isinstance(item, _TileBatch):
                # Grab as many pool slots as are free right now; transform
                # that sub-batch in one backend call and requeue the rest.
                # Blocking for the full batch would recreate the deadlock
                # the single-tile path avoids (pairs behind us in the FIFO
                # are what release slots).
                acquired: list[int] = []
                try:
                    acquired.append(pool.acquire(timeout=0.05))
                    while len(acquired) < len(item.items):
                        acquired.append(pool.acquire(blocking=False))
                except (TimeoutError, PoolExhausted):
                    pass
                if not acquired:
                    item.blocked_seconds += 0.05
                    if item.blocked_seconds > self.pool_timeout:
                        raise TimeoutError(
                            f"transform pool ({pool.count} buffers) starved "
                            f"for {self.pool_timeout}s; pool too small for "
                            f"the traversal wavefront"
                        )
                    q_work.put(item)
                    return None
                take = item.items[: len(acquired)]
                rest = item.items[len(acquired):]
                if rest:
                    q_work.put(_TileBatch(rest, item.blocked_seconds))
                local: dict = {}
                # Coarse mode: downsample each tile, batch-transform the
                # stack at the coarse shape (the pool buffers' shape).
                batch_inputs = (
                    [downsample(t.pixels, self.coarse.factor) for t in take]
                    if self.coarse is not None
                    else [t.pixels for t in take]
                )
                ffts = forward_fft_batch(
                    batch_inputs, pair_shape, self.cache, self.planning,
                    real=self.real_transforms, stats=local,
                )
                for t_item, slot, fft in zip(take, acquired, ffts):
                    pool.array(slot)[...] = fft
                    ts = (
                        TileStats(t_item.pixels) if self.use_tile_stats
                        else None
                    )
                    with state_lock:
                        pixels[t_item.pos] = t_item.pixels
                        slots[t_item.pos] = slot
                        if ts is not None:
                            tstats[t_item.pos] = ts
                    tiles_in_flight.release()
                    q_events.put(_FftDone(t_item.pos, slot))
                with stats_lock:
                    stats["ffts"] += len(take)
                    for key in ("fft_copies_saved", "fft_batches",
                                "fft_batched_tiles"):
                        if key in local:
                            stats[key] = stats.get(key, 0) + local[key]
                return None
            if isinstance(item, _TileItem):
                # Never block the whole worker pool on slot starvation: if
                # no slot frees up quickly, requeue the tile behind any
                # pending pair work (whose completion is what releases
                # slots).  Blocking here with every worker would deadlock:
                # tiles ahead of pairs in the FIFO would pin all workers.
                try:
                    slot = pool.acquire(timeout=0.05)
                except TimeoutError:
                    item.blocked_seconds += 0.05
                    if item.blocked_seconds > self.pool_timeout:
                        raise TimeoutError(
                            f"transform pool ({pool.count} buffers) starved "
                            f"for {self.pool_timeout}s; pool too small for "
                            f"the traversal wavefront"
                        )
                    q_work.put(item)
                    return None
                buf = pool.array(slot)
                local: dict = {}
                buf[...] = forward_fft(
                    downsample(item.pixels, self.coarse.factor)
                    if self.coarse is not None else item.pixels,
                    pair_shape, self.cache, self.planning,
                    real=self.real_transforms, stats=local,
                )
                ts = TileStats(item.pixels) if self.use_tile_stats else None
                with state_lock:
                    pixels[item.pos] = item.pixels
                    slots[item.pos] = slot
                    if ts is not None:
                        tstats[item.pos] = ts
                with stats_lock:
                    stats["ffts"] += 1
                    stats["fft_copies_saved"] += local.get("fft_copies_saved", 0)
                tiles_in_flight.release()
                q_events.put(_FftDone(item.pos, slot))
            elif isinstance(item, _PairItem):
                pair = item.pair
                # Resume: a journaled pair still flows through the
                # bookkeeper (its _PairDone drives refcounts and slot
                # release) but skips the pciam computation entirely.
                journaled = self._journal_lookup(
                    pair.direction, pair.second.row, pair.second.col
                )
                if journaled is not None:
                    disp.set(
                        pair.direction, pair.second.row, pair.second.col,
                        journaled,
                    )
                    with stats_lock:
                        stats["resumed_pairs"] = stats.get("resumed_pairs", 0) + 1
                    q_events.put(_PairDone(pair))
                    return None
                with state_lock:
                    img_i = pixels[pair.first]
                    img_j = pixels[pair.second]
                    fft_i = pool.array(slots[pair.first])
                    fft_j = pool.array(slots[pair.second])
                    stats_i = tstats.get(pair.first)
                    stats_j = tstats.get(pair.second)
                local_pair: dict = {}
                res = self._register_pair(
                    img_i, img_j, fft_i=fft_i, fft_j=fft_j,
                    stats_i=stats_i, stats_j=stats_j,
                    workspace=workspaces.get() if workspaces is not None else None,
                    stats=local_pair,
                )
                t = self._translation(res)
                disp.set(pair.direction, pair.second.row, pair.second.col, t)
                self._journal_record(
                    pair.direction, pair.second.row, pair.second.col, t
                )
                with stats_lock:
                    stats["pairs"] += 1
                    for key, v in local_pair.items():
                        stats[key] = stats.get(key, 0) + v
                q_events.put(_PairDone(pair))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected work item {item!r}")
            return None

        def release_tile(pos: GridPosition) -> None:
            with state_lock:
                slot = slots.pop(pos)
                pixels.pop(pos)
                tstats.pop(pos, None)
            pool.release(slot)

        def maybe_finish() -> None:
            if bk.all_pairs_completed():
                q_work.close()
                q_events.close()

        def bookkeeper(event, _ctx):
            if isinstance(event, _FftDone):
                for pair in bk.transform_ready(event.pos):
                    q_work.put(_PairItem(pair))
                # All of this tile's pairs were cancelled by failed
                # neighbours: its slot will never be consumed by pair work.
                if bk.releasable(event.pos):
                    release_tile(event.pos)
                maybe_finish()
            elif isinstance(event, _PairDone):
                for pos in bk.pair_completed(event.pair):
                    release_tile(pos)
                maybe_finish()
            elif isinstance(event, _PairFailed):
                self._record_skipped_pair(
                    event.pair.direction.name.lower(),
                    event.pair.second.row,
                    event.pair.second.col,
                    reason="pair computation cancelled",
                )
                for pos in bk.pair_failed(event.pair):
                    release_tile(pos)
                maybe_finish()
            elif isinstance(event, _TileFailed):
                for pair in bk._incident(event.pos):
                    self._record_skipped_pair(
                        pair.direction.name.lower(),
                        pair.second.row,
                        pair.second.col,
                        reason=f"tile ({event.pos.row},{event.pos.col}) unreadable",
                    )
                for pos in bk.tile_failed(event.pos):
                    release_tile(pos)
                maybe_finish()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected event {event!r}")
            return None

        pipe.stage("reader", reader, workers=1, input=None, output=None)
        pipe.stage("compute", compute, workers=self.workers, input=q_work, output=None)
        pipe.stage("bookkeeping", bookkeeper, workers=1, input=q_events, output=None)

        # Degenerate 1x1 grid: no pairs, no events; close queues up front.
        if bk.total_pairs == 0:
            q_work.close()
            q_events.close()
            disp.stats = stats
            return disp, stats

        pipe.run()
        if workspaces is not None:
            workspaces.release_all()
            stats["workspace_bytes"] = arena.bytes_per_workspace * max(
                1, arena.stats()["peak_in_use"]
            )
        stats["pool_peak_in_use"] = pool.peak_in_use
        stats["pool_size"] = pool_size
        stats.update({f"queue_{k}": v for k, v in pipe.stats()["queues"].items()})
        disp.stats = stats
        return disp, stats
