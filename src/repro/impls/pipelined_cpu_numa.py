"""Per-socket Pipelined-CPU (the paper's §IV.B future-work variant).

"In the future, we will modify this implementation to create one execution
pipeline per CPU socket."  The evaluation machine is a dual-socket Xeon;
one pipeline per socket keeps each pipeline's working set on its socket's
memory controller and halves contention on the shared queues.

Structure: the grid is decomposed into contiguous column partitions (one
per socket), exactly like the multi-GPU decomposition; each partition runs
its own 3-stage pipeline (reader / compute / bookkeeping) with a private
transform pool, and boundary ("ghost") columns are read and transformed by
both adjacent partitions.  Outputs land in disjoint cells of the shared
result.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.core.tilestats import TileStats
from repro.fftlib.plans import spectrum_shape
from repro.grid.neighbors import Pair, grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.impls.base import Implementation
from repro.impls.pipelined_gpu import column_partitions
from repro.io.dataset import TileDataset
from repro.memmodel.pool import BufferPool
from repro.memmodel.workspace import ThreadLocalWorkspaces
from repro.pipeline.bookkeeper import PairBookkeeper
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM
from repro.recovery.cancel import ItemCancelled


@dataclass
class _TileItem:
    pos: GridPosition
    pixels: np.ndarray
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
    pair: Pair


@dataclass
class _TileFailed:
    pos: GridPosition


class PipelinedCpuNuma(Implementation):
    """One 3-stage CPU pipeline per socket over a column partition."""

    name = "pipelined-cpu-numa"

    def __init__(
        self,
        sockets: int = 2,
        workers_per_socket: int = 2,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        queue_size: int = 8,
        pool_timeout: float = 60.0,
        **kw,
    ) -> None:
        if sockets < 1:
            raise ValueError("need at least one socket")
        if workers_per_socket < 1:
            raise ValueError("need at least one worker per socket")
        super().__init__(**kw)
        self.sockets = sockets
        self.workers_per_socket = workers_per_socket
        self.pool_size = pool_size
        self.traversal = traversal
        self.queue_size = queue_size
        self.pool_timeout = pool_timeout

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        rows, cols = dataset.rows, dataset.cols
        grid = TileGrid(rows, cols)
        disp = DisplacementResult.empty(rows, cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "sockets": 0}

        all_pairs = list(grid_pairs(grid))
        pipelines = []
        for k, (c0, c1) in enumerate(column_partitions(cols, self.sockets)):
            pairs = frozenset(
                p for p in all_pairs if c0 <= p.second.col < c1
            )
            if not pairs:
                continue
            stats["sockets"] += 1
            pipelines.append(
                self._build_pipeline(dataset, grid, disp, pairs, stats, stats_lock)
            )

        if not pipelines:  # 1x1 grid
            disp.stats = stats
            return disp, stats
        for p in pipelines:
            p.start()
        for p in pipelines:
            p.join()
        for p in pipelines:
            ws = getattr(p, "_workspaces", None)
            if ws is not None:
                ws.release_all()
        disp.stats = stats
        return disp, stats

    def _build_pipeline(
        self, dataset, grid, disp, pairs, stats, stats_lock
    ) -> Pipeline:
        bk = PairBookkeeper(grid, pairs=pairs, metrics=self.metrics)
        my_tiles = bk.tiles
        tile_cols = sorted({p.col for p in my_tiles})
        c_lo, c_hi = tile_cols[0], tile_cols[-1]
        pool_size = self.pool_size or (2 * min(grid.rows, c_hi - c_lo + 1) + 4)
        # Per-socket pools hold per-tile spectra; coarse mode shrinks
        # them to the coarse transform shape.
        pair_shape = self._pair_transform_shape(dataset)
        buf_shape = (
            spectrum_shape(pair_shape) if self.real_transforms else pair_shape
        )
        pool = BufferPool(pool_size, buf_shape, dtype=np.complex128)
        arena = self._make_arena(dataset, count=self.workers_per_socket)
        workspaces = ThreadLocalWorkspaces(arena) if arena is not None else None

        pipe = Pipeline(f"pipelined-cpu-numa-{c_lo}",
                        tracer=self.tracer, metrics=self.metrics,
                        watchdog=self.watchdog)
        pipe._workspaces = workspaces
        q_work = pipe.queue(maxsize=0, name="work")
        q_events = pipe.queue(maxsize=0, name="events")
        tiles_in_flight = threading.Semaphore(self.queue_size)

        state_lock = threading.Lock()
        pixels: dict[GridPosition, np.ndarray] = {}
        slots: dict[GridPosition, int] = {}
        tstats: dict[GridPosition, TileStats] = {}

        sub = TileGrid(grid.rows, c_hi - c_lo + 1)
        order = iter(
            [GridPosition(p.row, p.col + c_lo) for p in traverse(sub, self.traversal)
             if GridPosition(p.row, p.col + c_lo) in my_tiles]
        )

        def reader(_item, _ctx):
            try:
                pos = next(order)
            except StopIteration:
                return END_OF_STREAM
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
            q_work.put(_TileItem(pos, tile))
            return None

        def compute(item, ctx):
            # Same cancellation contract as pipelined-cpu: a cancelled
            # item notifies the bookkeeper before the drop propagates.
            try:
                return _compute(item, ctx)
            except ItemCancelled:
                if self._skip_on_error:
                    if isinstance(item, _TileItem):
                        tiles_in_flight.release()
                        q_events.put(_TileFailed(item.pos))
                    elif isinstance(item, _PairItem):
                        q_events.put(_PairFailed(item.pair))
                raise

        def _compute(item, _ctx):
            if isinstance(item, _TileItem):
                try:
                    slot = pool.acquire(timeout=0.05)
                except TimeoutError:
                    item.blocked_seconds += 0.05
                    if item.blocked_seconds > self.pool_timeout:
                        raise TimeoutError(
                            f"transform pool ({pool.count}) starved for "
                            f"{self.pool_timeout}s"
                        )
                    q_work.put(item)
                    return None
                buf = pool.array(slot)
                local: dict = {}
                buf[...] = self._forward_spectrum(item.pixels, stats=local)
                ts = TileStats(item.pixels) if self.use_tile_stats else None
                with state_lock:
                    pixels[item.pos] = item.pixels
                    slots[item.pos] = slot
                    if ts is not None:
                        tstats[item.pos] = ts
                with stats_lock:
                    stats["ffts"] += 1
                    stats["fft_copies_saved"] = (
                        stats.get("fft_copies_saved", 0)
                        + local.get("fft_copies_saved", 0)
                    )
                tiles_in_flight.release()
                q_events.put(_FftDone(item.pos, slot))
            elif isinstance(item, _PairItem):
                pair = item.pair
                journaled = self._journal_lookup(
                    pair.direction, pair.second.row, pair.second.col
                )
                if journaled is not None:
                    disp.set(pair.direction, pair.second.row, pair.second.col,
                             journaled)
                    with stats_lock:
                        stats["resumed_pairs"] = stats.get("resumed_pairs", 0) + 1
                    q_events.put(_PairDone(pair))
                    return None
                with state_lock:
                    img_i, img_j = pixels[pair.first], pixels[pair.second]
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
            else:  # pragma: no cover
                raise TypeError(f"unexpected work item {item!r}")
            return None

        def release_tile(pos: GridPosition) -> None:
            with state_lock:
                pool.release(slots.pop(pos))
                pixels.pop(pos)
                tstats.pop(pos, None)

        def maybe_finish() -> None:
            if bk.all_pairs_completed():
                q_work.close()
                q_events.close()

        def bookkeeper(event, _ctx):
            if isinstance(event, _FftDone):
                for pair in bk.transform_ready(event.pos):
                    q_work.put(_PairItem(pair))
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
            else:  # pragma: no cover
                raise TypeError(f"unexpected event {event!r}")
            return None

        pipe.stage("reader", reader, workers=1, input=None, output=None)
        pipe.stage("compute", compute, workers=self.workers_per_socket,
                   input=q_work, output=None)
        pipe.stage("bookkeeping", bookkeeper, workers=1, input=q_events, output=None)
        return pipe
