"""Simple-GPU: synchronous single-stream port of Simple-CPU (Fig. 6).

"The reference GPU implementation is single threaded on the CPU, executes
CUDA memory copies synchronously, and invokes all kernels on the default
stream."  It keeps forward transforms on-device in a tracked pool, frees
them by the early-release policy, copies only the reduction result back,
and runs the CCFs on the host -- all the paper's Simple-GPU optimizations,
with the paper's Simple-GPU architectural flaw: every device operation
round-trips through host synchronization, so the GPU idles during reads
and CCFs (the gaps of Fig. 7).

The host/device interleaving is modeled on the device's virtual clock: each
synchronous submission carries ``not_before = host_clock`` and advances the
host clock to the operation's end; host-only work (reads, CCFs) advances
the host clock by its modeled duration.  The trace's compute-engine density
is the quantity Fig. 7 visualizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.ccf import ccf_at
from repro.core.coarse import resolve_coarse_peaks
from repro.core.displacement import DisplacementResult, Translation
from repro.core.downsample import downsample
from repro.core.peak import peak_candidates, peak_magnitude_ratio
from repro.core.pciam import CcfMode, pciam
from repro.core.tilestats import TileStats, ccf_at_stats
from repro.fftlib.plans import spectrum_shape
from repro.fftlib.smooth import pad_to_shape
from repro.gpu.costs import XEON_E5620, CpuCostModel
from repro.gpu.device import VirtualGpu
from repro.gpu.kernels import (
    fft2_kernel,
    ifft2_kernel,
    irfft2_kernel,
    ncc_kernel,
    reduce_max_kernel,
    rfft2_kernel,
)
from repro.gpu.profiler import TraceEvent
from repro.grid.neighbors import grid_pairs, pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class SimpleGpu(Implementation):
    """Synchronous single-stream GPU port (9.3 min on the paper's machine)."""

    name = "simple-gpu"
    supports_subpixel = False

    def __init__(
        self,
        device: VirtualGpu | None = None,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        host_costs: CpuCostModel = XEON_E5620,
        **kw,
    ) -> None:
        super().__init__(**kw)
        self.device = device
        self.pool_size = pool_size
        self.traversal = traversal
        self.host_costs = host_costs
        self.last_device: VirtualGpu | None = None

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        device = self.device or VirtualGpu()
        self.last_device = device
        rows, cols = dataset.rows, dataset.cols
        grid = TileGrid(rows, cols)
        full_shape = tuple(self.fft_shape) if self.fft_shape else dataset.tile_shape
        # Coarse mode moves every device-side surface (staging, pool
        # buffers, NCC scratch, inverse) to the coarse transform shape --
        # factor^2 less device memory and H2D traffic.  The host keeps
        # full-resolution tiles + statistics for refinement and fallback.
        fft_shape = (
            self._pair_transform_shape(dataset)
            if self.coarse is not None else full_shape
        )
        hw = full_shape[0] * full_shape[1]
        real = self.real_transforms
        # Half-spectrum transforms shrink every device pool buffer to
        # (h, w//2+1) -- cuFFT R2C halves both work and footprint.
        buf_shape = spectrum_shape(fft_shape) if real else fft_shape
        # Pool: live transforms of the traversal wavefront plus one scratch
        # slot for the NCC / inverse-FFT surface.
        pool_size = self.pool_size or (2 * min(rows, cols) + 5)
        pool = device.create_pool(pool_size, buf_shape)
        stream = device.default_stream

        disp = DisplacementResult.empty(rows, cols)
        stats = {"reads": 0, "ffts": 0, "pairs": 0}
        tiles: dict[GridPosition, np.ndarray] = {}
        tstats: dict[GridPosition, TileStats] = {}
        slots: dict[GridPosition, int] = {}
        pairs_done: set = set()
        host_clock = 0.0

        # Resume: journaled pairs never touch the device; tiles whose
        # incident pairs are all journaled are not even read or copied.
        if self.journal is not None:
            resumed = 0
            for pair in grid_pairs(grid):
                t = self._journal_lookup(
                    pair.direction, pair.second.row, pair.second.col
                )
                if t is not None:
                    disp.set(pair.direction, pair.second.row, pair.second.col, t)
                    pairs_done.add(pair)
                    resumed += 1
            if resumed:
                stats["resumed_pairs"] = resumed

        def host_op(name: str, seconds: float) -> None:
            nonlocal host_clock
            device.profiler.record(
                TraceEvent(name=name, engine="host", stream=-1,
                           start=host_clock, end=host_clock + seconds)
            )
            host_clock += seconds

        # One persistent staging buffer for H2D copies (device-side, real
        # CUDA code would use pinned host + a device staging area).  With
        # real transforms the staged tile is float64, halving H2D traffic.
        staging = device.alloc(
            fft_shape, dtype=np.float64 if real else np.complex128
        )
        # The c2r inverse lands on a real spatial surface, which cannot
        # alias the half-spectrum scratch slot; one dedicated buffer.
        inv_buf = device.alloc(fft_shape, dtype=np.float64) if real else None

        failed: set[GridPosition] = set()

        def mark_failed(pos: GridPosition) -> None:
            failed.add(pos)
            # Mark the failed tile's pairs done so surviving neighbours'
            # transform slots are still recycled by release_if_done.
            for pair in pairs_for_tile(grid, pos.row, pos.col):
                if pair not in pairs_done:
                    pairs_done.add(pair)
                    self._record_skipped_pair(
                        pair.direction.name.lower(),
                        pair.second.row,
                        pair.second.col,
                        reason=f"tile ({pos.row},{pos.col}) unreadable",
                    )

        def load_and_transform(pos: GridPosition) -> None:
            nonlocal host_clock
            if all(p in pairs_done for p in pairs_for_tile(grid, pos.row, pos.col)):
                return
            if self.error_policy is None:
                tile = dataset.load(pos.row, pos.col)
            else:
                tile = self._load_tile(dataset, pos.row, pos.col)
                if tile is None:
                    mark_failed(pos)
                    return
            host_op("read-tile", self.host_costs.read(hw) + self.host_costs.decode(hw))
            stats["reads"] += 1
            src = (
                downsample(tile, self.coarse.factor)
                if self.coarse is not None else tile
            )
            src = src if src.shape == fft_shape else pad_to_shape(src, fft_shape)
            slot = pool.acquire(blocking=False)
            host_src = src if real else src.astype(np.complex128)
            ev = device.h2d(host_src, staging, stream, not_before=host_clock)
            host_clock = ev.end  # synchronous copy: host blocks
            fwd = rfft2_kernel if real else fft2_kernel
            ev = fwd(device, staging.data, pool.array(slot), stream, not_before=host_clock)
            host_clock = ev.end  # default stream, synchronous: host waits
            stats["ffts"] += 1
            tiles[pos] = tile
            if self.use_tile_stats:
                tstats[pos] = TileStats(tile)
            slots[pos] = slot

        def release_if_done(pos: GridPosition) -> None:
            if pos not in slots:
                return
            if all(p in pairs_done for p in pairs_for_tile(grid, pos.row, pos.col)):
                pool.release(slots.pop(pos))
                tiles.pop(pos)
                tstats.pop(pos, None)

        extended = self.ccf_mode is CcfMode.EXTENDED

        tracer = self.tracer
        for pos in traverse(grid, self.traversal):
            with tracer.span("read+fft", "simple-gpu", key=str(pos)):
                load_and_transform(pos)
            for pair in pairs_for_tile(grid, pos.row, pos.col):
                if pair in pairs_done or pair.first not in slots or pair.second not in slots:
                    continue
                pair_t0 = tracer.now() if tracer.enabled else 0.0
                scratch = pool.acquire(blocking=False)
                buf = pool.array(scratch)
                ev = ncc_kernel(
                    device, pool.array(slots[pair.first]), pool.array(slots[pair.second]),
                    buf, stream, not_before=host_clock,
                )
                host_clock = ev.end
                if real:
                    ev = irfft2_kernel(device, buf, inv_buf.data, stream,
                                       not_before=host_clock)
                    surface = inv_buf.data
                else:
                    ev = ifft2_kernel(device, buf, buf, stream, not_before=host_clock)
                    surface = buf
                host_clock = ev.end
                k = (
                    max(self.n_peaks, self.coarse.coarse_peaks)
                    if self.coarse is not None else self.n_peaks
                )
                peaks, ev = reduce_max_kernel(device, surface, stream,
                                              not_before=host_clock, k=k)
                host_clock = ev.end
                # D2H of the reduction result only (O(k) scalars).
                flat = np.array([v for p in peaks for v in p], dtype=np.float64)
                _, ev = device.d2h(flat, stream, not_before=host_clock)
                host_clock = ev.end
                pool.release(scratch)

                img_i, img_j = tiles[pair.first], tiles[pair.second]
                stats_i, stats_j = tstats.get(pair.first), tstats.get(pair.second)
                if self.coarse is not None:
                    # Host-side coarse-to-fine resolution: contest +
                    # hill-climb over the upscaled device peaks, full
                    # PCIAM (host FFTs from the retained pixels) when the
                    # confidence gate rejects.
                    cpeaks = [
                        (float(mag),
                         *map(int, np.unravel_index(int(flat_idx), fft_shape)))
                        for mag, flat_idx in peaks
                    ]
                    res = resolve_coarse_peaks(
                        cpeaks, fft_shape, config=self.coarse,
                        ccf_mode=self.ccf_mode,
                        img_i=img_i, img_j=img_j,
                        stats_i=stats_i, stats_j=stats_j,
                        use_tile_stats=self.use_tile_stats,
                        fallback=lambda: pciam(
                            img_i, img_j,
                            fft_shape=self.fft_shape,
                            ccf_mode=self.ccf_mode,
                            n_peaks=self.n_peaks,
                            real_transforms=real,
                            cache=self.cache,
                            stats_i=stats_i, stats_j=stats_j,
                            use_tile_stats=self.use_tile_stats,
                        ),
                        stats=stats,
                    )
                    host_op("ccf", self.host_costs.ccf(hw))
                    t = Translation.from_pciam(res)
                else:
                    best = (-np.inf, 0, 0)
                    seen: set[tuple[int, int]] = set()
                    for _mag, flat_idx in peaks:
                        py, px = np.unravel_index(int(flat_idx), fft_shape)
                        for tx, ty in peak_candidates(int(py), int(px), fft_shape, extended=extended):
                            if (tx, ty) in seen:
                                continue
                            seen.add((tx, ty))
                            if stats_i is not None and stats_j is not None:
                                c = ccf_at_stats(stats_i, stats_j, tx, ty)
                            else:
                                c = ccf_at(img_i, img_j, tx, ty)
                            if c > best[0]:
                                best = (c, tx, ty)
                    host_op("ccf", self.host_costs.ccf(hw))
                    corr, tx, ty = best
                    ratio = peak_magnitude_ratio([m for m, _ in peaks])
                    t = Translation(float(corr), int(tx), int(ty), peak_ratio=ratio)
                disp.set(pair.direction, pair.second.row, pair.second.col, t)
                self._journal_record(
                    pair.direction, pair.second.row, pair.second.col, t
                )
                pairs_done.add(pair)
                stats["pairs"] += 1
                if tracer.enabled:
                    tracer.record_span("pair", "simple-gpu", pair_t0,
                                       tracer.now(), key=str(pair))
            release_if_done(pos)
            for pair in pairs_for_tile(grid, pos.row, pos.col):
                release_if_done(pair.first if pair.second == pos else pair.second)

        if inv_buf is not None:
            device.free(inv_buf)
        device.free(staging)
        pool.destroy()
        stats["device_peak_bytes"] = device.allocator.peak_bytes
        stats["gpu_compute_density"] = device.profiler.density("compute")
        stats["d2h_bytes"] = device.profiler.bytes_copied("d2h")
        stats["streams_used"] = len(device.profiler.streams_used() - {-1})
        stats["virtual_makespan"] = max(device.synchronize(), host_clock)
        disp.stats = stats
        return disp, stats
