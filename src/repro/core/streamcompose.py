"""Phase 3: the one mosaic renderer (Figs. 13-14), streamed in stripes.

Every rendering path -- :func:`stream_compose_to_tiff` (the CLI's ``-o``
and the service), the in-memory :func:`repro.core.compose.compose` and
the viewport renderer :meth:`repro.core.pyramid.MosaicPyramid.render_region`
-- blends through one kernel, :func:`blend_kernel`.  It renders any
window of the mosaic into a float64 band, visiting tiles in row-major
painter's order; every per-pixel operation is elementwise, so a window
is bit-identical to the same crop of the full canvas for every
:class:`BlendMode` (LINEAR included: slicing an elementwise product
commutes with computing it, and the per-pixel normalization only sees
that pixel's contributors).

:func:`stream_compose_to_tiff` calls the kernel once per full-width
stripe and appends each quantized stripe to an incremental striped
TIFF/BigTIFF writer (:class:`repro.io.tiff.TiffStripWriter`); the
canvas never exists.  Peak resident bytes are

    stripe band (float64) + weight band (AVERAGE/LINEAR) +
    quantized output band + resident tiles

Without a memory budget each tile is decoded once and held until the
last stripe that contains it.  A ``memory_budget`` derives the stripe
height so that sum stays under it and funds an LRU tile cache
(:class:`repro.io.dataset.TileCache`, modeled on feabas's
``loader_config.cache_size``) that absorbs the re-decodes of tiles
straddling stripe boundaries.

Quantization is the same on every path: optional ``scale``, then clip to
the integer output range and a truncating ``astype`` -- identity for
in-range pixels, so uint8 and uint16 tiles keep their values.

After the full-resolution pass, multi-resolution pyramid levels are
emitted by streaming each level from the level above (block-mean 2x
:func:`repro.core.downsample.downsample`, windowed reads through
:class:`repro.io.tiff.TiffReader`) -- the full canvas is never
materialized at any level.  All output files stream into same-directory
``<name>.part`` files and are published together with ``os.replace``
only after the last byte: a failure at any point leaves nothing behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from repro.core.downsample import downsample, downsampled_shape
from repro.core.global_opt import GlobalPositions
from repro.io.dataset import TileCache
from repro.io.tiff import TiffReader, TiffStripWriter
from repro.observe.tracer import NULL_TRACER

#: Default split of the memory budget between the tile cache and the
#: stripe buffers.  Half-and-half keeps roughly one tile row resident
#: (the set that straddles stripe boundaries) while leaving stripes tall
#: enough that most tiles are visited once.
CACHE_FRACTION = 0.5


class BlendMode(Enum):
    """How overlapping tiles combine.

    ``OVERLAY``
        Last write wins -- the mode used for the paper's Fig. 13
        ("composed using an overlay blend").
    ``AVERAGE``
        Mean of all tiles covering a pixel.
    ``MAXIMUM``
        Per-pixel max; useful for fluorescence channels.
    ``LINEAR``
        Feathered blend: each tile contributes with a weight that ramps
        from its borders toward its centre, hiding seams from residual
        registration or illumination error.
    """

    OVERLAY = "overlay"
    AVERAGE = "average"
    MAXIMUM = "maximum"
    LINEAR = "linear"

    @property
    def weighted(self) -> bool:
        """Whether the blend needs a per-pixel weight band."""
        return self in (BlendMode.AVERAGE, BlendMode.LINEAR)


def _linear_weight(shape: tuple[int, int]) -> np.ndarray:
    """Separable ramp weight, 1 at the tile centre, ~0 at the borders."""
    h, w = shape
    wy = 1.0 - np.abs(np.linspace(-1.0, 1.0, h))
    wx = 1.0 - np.abs(np.linspace(-1.0, 1.0, w))
    out = np.outer(wy, wx)
    # Strictly positive so fully-covered pixels never divide by zero.
    return np.maximum(out, 1e-6)


def painter_order(
    positions: GlobalPositions, skip_tiles=None, factor: int = 1
) -> list[tuple[int, int, int, int]]:
    """``(row, col, y, x)`` of every tile not in ``skip_tiles``, row-major.

    Row-major is the painter's order every renderer preserves (for
    OVERLAY, later rows/columns land over earlier ones).  ``factor``
    divides the origins, for the tiles of a downsampled pyramid level.
    """
    skip = {(int(r), int(c)) for r, c in (skip_tiles or ())}
    return [
        (r, c, int(positions.positions[r, c][0]) // factor,
         int(positions.positions[r, c][1]) // factor)
        for r in range(positions.rows)
        for c in range(positions.cols)
        if (r, c) not in skip
    ]


def blend_kernel(
    load_tile,
    tile_shape: tuple[int, int],
    blend: BlendMode,
    on_tile_error: str = "abort",
):
    """The one blend kernel, bound to a tile source; returns ``render_window``.

    ``render_window(band, weight, y0, x0, tiles)`` blends the mosaic
    window ``[y0, y0+h) x [x0, x0+w)`` into ``band``, a float64 ``(h, w)``
    array; ``weight`` is a same-shape float64 scratch band, needed only
    when ``blend.weighted``.  Both are overwritten.  ``tiles`` are
    ``(row, col, y, x)`` in painter's order (:func:`painter_order`);
    ``load_tile(row, col)`` supplies pixels of ``tile_shape`` and is only
    called for tiles intersecting the window.  It returns the tiles
    blended into the window.  ``on_tile_error="skip"`` leaves a hole
    where a load fails.

    Binding happens once per render so the LINEAR weight is built once,
    however many windows (stripes) follow.  Tiles are blended in their
    native dtype: numpy's promotion makes uint8/uint16 arithmetic in the
    float64 band value-exact, so no float64 copy of a tile is ever made.
    """
    th, tw = tile_shape
    lin_w = _linear_weight((th, tw)) if blend is BlendMode.LINEAR else None

    def render_window(
        band: np.ndarray,
        weight: np.ndarray | None,
        y0: int,
        x0: int,
        tiles: list[tuple[int, int, int, int]],
    ) -> list[tuple[int, int, int, int]]:
        h, w = band.shape
        band[:] = 0.0
        if weight is not None:
            weight[:] = 0.0
        rendered = []
        for t in tiles:
            r, c, ty, tx = t
            ya, yb = max(ty, y0), min(ty + th, y0 + h)
            xa, xb = max(tx, x0), min(tx + tw, x0 + w)
            if yb <= ya or xb <= xa:
                continue
            try:
                tile = np.asarray(load_tile(r, c))
            except Exception:
                if on_tile_error == "skip":
                    continue
                raise
            if tile.shape != (th, tw):
                raise ValueError(
                    f"tile ({r},{c}) has shape {tile.shape}, expected {(th, tw)}"
                )
            sy, sx = slice(ya - ty, yb - ty), slice(xa - tx, xb - tx)
            src = tile[sy, sx]
            dst = (slice(ya - y0, yb - y0), slice(xa - x0, xb - x0))
            if blend is BlendMode.OVERLAY:
                band[dst] = src
            elif blend is BlendMode.MAXIMUM:
                np.maximum(band[dst], src, out=band[dst])
            elif blend is BlendMode.AVERAGE:
                band[dst] += src
                weight[dst] += 1.0
            elif blend is BlendMode.LINEAR:
                w_src = lin_w[sy, sx]
                band[dst] += src * w_src
                weight[dst] += w_src
            else:  # pragma: no cover - exhaustive enum
                raise AssertionError(blend)
            rendered.append(t)
        if weight is not None:
            covered = weight > 0
            band[covered] /= weight[covered]
        return rendered

    return render_window


def draw_outlines(
    band: np.ndarray,
    y0: int,
    x0: int,
    tiles: list[tuple[int, int, int, int]],
    tile_shape: tuple[int, int],
    value: float,
) -> None:
    """Paint the borders of ``tiles`` into the window at ``(y0, x0)`` (Fig. 14)."""
    th, tw = tile_shape
    h, w = band.shape
    for _, _, ty, tx in tiles:
        ya, yb = max(ty, y0), min(ty + th, y0 + h)
        xa, xb = max(tx, x0), min(tx + tw, x0 + w)
        if yb <= ya or xb <= xa:
            continue
        for y in (ty, ty + th - 1):
            if ya <= y < yb:
                band[y - y0, xa - x0 : xb - x0] = value
        for x in (tx, tx + tw - 1):
            if xa <= x < xb:
                band[ya - y0 : yb - y0, x - x0] = value


def pyramid_level_path(path: str | Path, level: int) -> Path:
    """On-disk name of pyramid level ``level`` for mosaic ``path``.

    Level 0 is ``path`` itself; level k >= 1 is ``<stem>.L<k><suffix>``
    next to it (e.g. ``mosaic.tif`` -> ``mosaic.L2.tif``).
    """
    path = Path(path)
    if level < 0:
        raise ValueError(f"bad pyramid level {level}")
    if level == 0:
        return path
    return path.with_name(f"{path.stem}.L{level}{path.suffix}")


def plan_stripe_rows(
    memory_budget: int,
    width: int,
    height: int,
    blend: BlendMode,
    out_dtype: np.dtype,
    cache_fraction: float = CACHE_FRACTION,
) -> tuple[int, int]:
    """Split ``memory_budget`` bytes into stripe height + tile-cache bytes.

    Returns ``(band_rows, cache_bytes)``.  A canvas row costs
    ``width * (8 [band f64] + 8 [weight, AVERAGE/LINEAR only] +
    out_itemsize [quantized band])`` bytes; the budget must fit at least
    one row or the mosaic is simply not composable at this width
    (:class:`ValueError`).  The cache gets ``cache_fraction`` of the
    budget, shrinking to whatever remains when even one stripe row is
    tight.
    """
    if memory_budget < 1:
        raise ValueError(f"memory budget must be positive, got {memory_budget}")
    if not 0.0 <= cache_fraction < 1.0:
        raise ValueError(f"cache_fraction must be in [0, 1), got {cache_fraction}")
    per_row = width * (8 + (8 if blend.weighted else 0) + out_dtype.itemsize)
    if memory_budget < per_row:
        raise ValueError(
            f"memory budget {memory_budget} B cannot fit one canvas row "
            f"({per_row} B at width {width}); raise the budget or "
            f"compose a smaller mosaic"
        )
    cache_bytes = int(memory_budget * cache_fraction)
    band_rows = (memory_budget - cache_bytes) // per_row
    if band_rows < 1:
        # Budget is row-tight: give the stripe its one row, cache the rest.
        band_rows = 1
        cache_bytes = memory_budget - per_row
    return int(min(band_rows, height)), int(cache_bytes)


@dataclass
class StreamComposeResult:
    """What one streaming composition did (shape, memory, cache, pyramid)."""

    height: int
    width: int
    band_rows: int
    stripes: int
    tiles_rendered: int
    #: Peak tracked resident bytes (stripe buffers + resident tiles),
    #: the number the memory budget bounds.
    peak_bytes: int
    memory_budget: int | None
    cache: dict | None
    #: Published pyramid files, ``[level 1 path, level 2 path, ...]``.
    pyramid_paths: list[Path] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.width


def _stripe_tiles(
    tiles: list[tuple[int, int, int, int]],
    n_stripes: int,
    band_rows: int,
    tile_h: int,
) -> list[list[tuple[int, int, int, int]]]:
    """Bucket row-major tiles by the stripes they intersect (O(tiles)).

    Appending in row-major order preserves painter's order inside every
    bucket, which is what makes OVERLAY bit-identical to the sequential
    render.
    """
    buckets: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n_stripes)]
    for t in tiles:
        ty = t[2]
        s0 = max(0, ty // band_rows)
        s1 = min(n_stripes - 1, (ty + tile_h - 1) // band_rows)
        for s in range(s0, s1 + 1):
            buckets[s].append(t)
    return buckets


def stream_compose_to_tiff(
    path,
    load_tile,
    positions: GlobalPositions,
    tile_shape: tuple[int, int],
    blend: BlendMode = BlendMode.OVERLAY,
    memory_budget: int | None = None,
    band_rows: int | None = None,
    dtype=np.uint16,
    scale: float | None = None,
    skip_tiles=None,
    on_tile_error: str = "abort",
    pyramid_levels: int = 0,
    cache_fraction: float = CACHE_FRACTION,
    bigtiff: bool | str = "auto",
    outline: bool = False,
    metrics=None,
    tracer=None,
) -> StreamComposeResult:
    """Compose a mosaic to a TIFF/BigTIFF in bounded stripes.

    The mosaic is rendered top-to-bottom in stripes of ``band_rows`` canvas
    rows, one :func:`blend_kernel` window each; ``memory_budget`` (bytes)
    derives ``band_rows`` via :func:`plan_stripe_rows` and funds an LRU
    tile cache with the remainder.  Passing ``band_rows`` explicitly
    overrides the derived stripe height (the cache still gets its budget
    share).  With neither, stripes default to twice the tile height.
    Without a budget every tile is decoded exactly once and dropped after
    the last stripe that contains it.

    Every blend mode is bit-identical to clipping
    :func:`repro.core.compose.compose` (at ``dtype=np.float64``) to the
    output range.  ``scale`` multiplies pixel values before the clip and
    truncating ``astype`` (``None`` = identity).  ``outline`` draws each
    rendered tile's border at the output dtype's maximum (Fig. 14).

    ``skip_tiles`` leaves holes where phase 1 dropped tiles;
    ``on_tile_error="skip"`` also turns load failures into holes.

    ``pyramid_levels`` > 0 additionally writes that many 2x block-mean
    levels next to ``path`` (see :func:`pyramid_level_path`), each
    streamed from the level above through windowed reads.  Every argument
    is validated before any output I/O, and all files (mosaic + levels)
    are published atomically together; any failure unlinks every
    ``.part``.

    ``metrics`` (a :class:`repro.observe.MetricsRegistry`) gains a
    ``compose_peak_canvas_bytes`` gauge, tile-cache hit/miss/eviction
    counters and a ``compose_stripes`` counter; ``tracer`` records one
    span per stripe and per pyramid level.

    Returns a :class:`StreamComposeResult`; ``result.peak_bytes`` is the
    tracked peak of stripe buffers + resident tiles, which tests assert
    stays within ``memory_budget``.
    """
    # -- validate everything before any output I/O (atomicity contract).
    blend = BlendMode(blend)
    if on_tile_error not in ("abort", "skip"):
        raise ValueError(
            f"unknown on_tile_error {on_tile_error!r} (use 'abort' or 'skip')"
        )
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu":
        raise ValueError(f"streaming compose needs an integer dtype, got {dtype}")
    th, tw = (int(v) for v in tile_shape)
    if th < 1 or tw < 1:
        raise ValueError(f"bad tile shape {tile_shape}")
    if pyramid_levels < 0:
        raise ValueError(f"pyramid_levels must be >= 0, got {pyramid_levels}")
    if tracer is None:
        tracer = NULL_TRACER
    height, width = positions.mosaic_shape(tile_shape)

    cache_bytes = 0
    if memory_budget is not None:
        planned_rows, cache_bytes = plan_stripe_rows(
            int(memory_budget), width, height, blend, dtype, cache_fraction
        )
        if band_rows is None:
            band_rows = planned_rows
    elif band_rows is None:
        band_rows = 2 * th
    band_rows = max(1, min(int(band_rows), height))
    limit = float(np.iinfo(dtype).max)

    n_stripes = (height + band_rows - 1) // band_rows
    buckets = _stripe_tiles(painter_order(positions, skip_tiles), n_stripes,
                            band_rows, th)

    cache = TileCache(load_tile, cache_bytes) if cache_bytes > 0 else None
    # Without a budget, each decoded tile is held until its last stripe.
    held: dict[tuple[int, int], np.ndarray] = {}
    last_stripe = {(t[0], t[1]): s for s, bucket in enumerate(buckets)
                   for t in bucket}

    def hold(r: int, c: int) -> np.ndarray:
        tile = held.get((r, c))
        if tile is None:
            tile = held[r, c] = np.asarray(load_tile(r, c))
        return tile

    if cache is not None:
        fetch = cache.load
    elif memory_budget is None:
        fetch = hold
    else:
        fetch = load_tile

    render = blend_kernel(fetch, (th, tw), blend, on_tile_error)

    gauge = metrics.gauge("compose_peak_canvas_bytes") if metrics is not None else None
    peak_bytes = 0

    def track(resident: int) -> None:
        nonlocal peak_bytes
        peak_bytes = max(peak_bytes, resident)
        if gauge is not None:
            gauge.set(resident)

    path = Path(path)
    level_paths = [pyramid_level_path(path, k) for k in range(pyramid_levels + 1)]
    parts = [p.with_name(p.name + ".part") for p in level_paths]
    rendered: set[tuple[int, int]] = set()

    try:
        # -- full-resolution pass -------------------------------------------
        # One strip descriptor whatever the stripe height, so a memory
        # budget never changes a byte of the file.
        with TiffStripWriter(
            parts[0], height, width, dtype, bigtiff=bigtiff
        ) as writer:
            band = np.empty((band_rows, width), dtype=np.float64)
            weight = np.empty_like(band) if blend.weighted else None
            for s in range(n_stripes):
                y0 = s * band_rows
                rows = min(height, y0 + band_rows) - y0
                b = band[:rows]
                with tracer.span("compose.stripe", "compose", key=f"s{s}"):
                    done = render(
                        b, None if weight is None else weight[:rows], y0, 0,
                        buckets[s],
                    )
                    if scale is not None:
                        b *= scale
                    if outline:
                        draw_outlines(b, y0, 0, done, (th, tw), limit)
                    np.clip(b, 0, limit, out=b)
                    out = b.astype(dtype)
                    writer.write_rows(out)
                rendered.update((r, c) for r, c, _, _ in done)
                tiles_bytes = (cache.current_bytes if cache is not None
                               else sum(t.nbytes for t in held.values()))
                track(band.nbytes + (weight.nbytes if weight is not None else 0)
                      + out.nbytes + tiles_bytes)
                for r, c, _, _ in buckets[s]:
                    if last_stripe[r, c] == s:
                        held.pop((r, c), None)
                if metrics is not None:
                    metrics.counter("compose_stripes").inc()
            del band, weight, out

        if cache is not None:
            if metrics is not None:
                metrics.counter("compose_tile_cache_hits").inc(cache.hits)
                metrics.counter("compose_tile_cache_misses").inc(cache.misses)
                metrics.counter("compose_tile_cache_evictions").inc(cache.evictions)
            cache.clear()  # pyramid pass reads the mosaic file, not tiles

        # -- pyramid pass: level k streamed from level k-1 ------------------
        _stream_pyramid_levels(parts, height, width, dtype, band_rows,
                               pyramid_levels, tracer, track)

        # -- atomic publish: levels first, mosaic last, so a reader that
        # sees the mosaic also sees its pyramid.
        for part, final in zip(parts[1:], level_paths[1:]):
            os.replace(part, final)
        os.replace(parts[0], path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise

    if gauge is not None:
        gauge.set(0)
    return StreamComposeResult(
        height=height,
        width=width,
        band_rows=band_rows,
        stripes=n_stripes,
        tiles_rendered=len(rendered),
        peak_bytes=peak_bytes,
        memory_budget=memory_budget,
        cache=cache.stats() if cache is not None else None,
        pyramid_paths=level_paths[1:],
    )


def _stream_pyramid_levels(
    parts: list[Path],
    height: int,
    width: int,
    dtype: np.dtype,
    band_rows: int,
    pyramid_levels: int,
    tracer,
    track,
) -> None:
    """Write 2x block-mean levels, each windowed from the one above.

    Output bands are a quarter of the full-res stripe height so the input
    window (2x rows at the parent level, plus the float64 working copy
    inside :func:`downsample`) stays within the memory envelope the
    full-resolution stripe buffers already claimed.
    """
    limit = float(np.iinfo(dtype).max)
    in_h, in_w = height, width
    for k in range(1, pyramid_levels + 1):
        out_h, out_w = downsampled_shape((in_h, in_w), 2)
        out_band = max(1, band_rows // 4)
        with tracer.span("compose.pyramid_level", "compose", key=f"L{k}"), \
                TiffReader(parts[k - 1]) as reader, \
                TiffStripWriter(parts[k], out_h, out_w, dtype) as writer:
            for oy0 in range(0, out_h, out_band):
                oy1 = min(out_h, oy0 + out_band)
                src = reader.read_rows(2 * oy0, min(in_h, 2 * oy1))
                ds = downsample(src, 2)
                out = np.clip(np.rint(ds), 0, limit).astype(dtype)
                if out.shape != (oy1 - oy0, out_w):  # pragma: no cover
                    raise AssertionError(
                        f"pyramid window bug: {out.shape} != "
                        f"{(oy1 - oy0, out_w)} at level {k}"
                    )
                writer.write_rows(out)
                # downsample's float64 conversion of src dominates its
                # transient footprint; account it honestly.
                track(src.nbytes + src.size * 8 + ds.nbytes + out.nbytes)
        in_h, in_w = out_h, out_w
