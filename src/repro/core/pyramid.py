"""Multi-resolution, on-demand mosaic rendering (the paper's viewer).

Section III: "the third phase can be carried out on demand as part of
visualizing the stitched image"; Section VI describes a prototype that
generates "image pyramids for all the tiles in a grid and render[s] a
stitched image at varying resolutions" (Figs. 13-14 come from it).

:class:`MosaicPyramid` implements that viewer back-end:

- tiles are downsampled per level by block averaging (factor ``2**level``),
  lazily and with a small LRU cache, so zoomed-out views never touch
  full-resolution pixels more than once;
- :meth:`render_region` composes only the tiles intersecting a viewport,
  so panning a 17k x 22k mosaic never materializes the whole canvas --
  the paper "composes and renders the composite image without saving it".
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.downsample import downsample
from repro.core.global_opt import GlobalPositions
from repro.core.streamcompose import BlendMode, blend_kernel, painter_order

__all__ = ["DiskPyramid", "MosaicPyramid", "downsample"]


class MosaicPyramid:
    """Viewport renderer over stitched tile positions.

    ``levels`` counts pyramid levels (level 0 = native resolution, level
    ``k`` downsampled by ``2**k``).  ``cache_tiles`` bounds the per-level
    LRU of downsampled tiles by entry count; ``cache_bytes`` additionally
    bounds it by the sum of cached ``nbytes`` (the tighter bound wins),
    so a viewer session has a hard memory ceiling regardless of tile
    size.  Eviction is least-recently-used under either bound.
    """

    def __init__(
        self,
        load_tile,
        positions: GlobalPositions,
        tile_shape: tuple[int, int],
        levels: int = 4,
        cache_tiles: int = 64,
        cache_bytes: int | None = None,
    ) -> None:
        if levels < 1:
            raise ValueError("need at least one level")
        max_factor = 2 ** (levels - 1)
        if min(tile_shape) // max_factor < 1:
            raise ValueError(
                f"{levels} levels would shrink {tile_shape} tiles below 1 px"
            )
        if cache_bytes is not None and cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self._load = load_tile
        self.positions = positions
        self.tile_shape = tuple(tile_shape)
        self.levels = levels
        self._cache: OrderedDict = OrderedDict()
        self._cache_limit = cache_tiles
        self._cache_byte_limit = cache_bytes
        self.cache_current_bytes = 0
        self.cache_peak_bytes = 0
        self.cache_evictions = 0
        self.tile_fetches = 0  # instrumentation for laziness tests

    # -- geometry --------------------------------------------------------

    def level_factor(self, level: int) -> int:
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} outside [0, {self.levels})")
        return 2**level

    def level_shape(self, level: int) -> tuple[int, int]:
        """Full-mosaic shape at a pyramid level."""
        f = self.level_factor(level)
        h, w = self.positions.mosaic_shape(self.tile_shape)
        return (h + f - 1) // f, (w + f - 1) // f

    def _tile_at(self, row: int, col: int, level: int) -> np.ndarray:
        key = (row, col, level)
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        self.tile_fetches += 1
        tile = downsample(self._load(row, col), self.level_factor(level))
        if self._cache_byte_limit is not None and tile.nbytes > self._cache_byte_limit:
            return tile  # larger than the whole budget: serve uncached
        self._cache[key] = tile
        self.cache_current_bytes += tile.nbytes
        while self._cache and (
            len(self._cache) > self._cache_limit
            or (
                self._cache_byte_limit is not None
                and self.cache_current_bytes > self._cache_byte_limit
            )
        ):
            _, old = self._cache.popitem(last=False)
            self.cache_current_bytes -= old.nbytes
            self.cache_evictions += 1
        self.cache_peak_bytes = max(self.cache_peak_bytes, self.cache_current_bytes)
        return tile

    # -- rendering ----------------------------------------------------------

    def render(self, level: int = 0, blend: BlendMode = BlendMode.OVERLAY) -> np.ndarray:
        """Full mosaic at a level (convenience over :meth:`render_region`)."""
        h, w = self.level_shape(level)
        return self.render_region(0, 0, h, w, level=level, blend=blend)

    def render_region(
        self,
        y: int,
        x: int,
        height: int,
        width: int,
        level: int = 0,
        blend: BlendMode = BlendMode.OVERLAY,
    ) -> np.ndarray:
        """Compose the viewport ``[y, y+height) x [x, x+width)`` at a level.

        Coordinates are in *level* pixels.  Only tiles intersecting the
        viewport are loaded.  Every blend runs through the shared kernel
        :func:`repro.core.streamcompose.blend_kernel`, so a level-0
        viewport equals the same crop of :func:`repro.core.compose.compose`
        bit for bit.
        """
        if height < 1 or width < 1:
            raise ValueError("viewport must be at least 1x1")
        blend = BlendMode(blend)
        f = self.level_factor(level)
        tile_shape = tuple((n + f - 1) // f for n in self.tile_shape)
        render = blend_kernel(
            lambda r, c: self._tile_at(r, c, level), tile_shape, blend
        )
        band = np.empty((height, width), dtype=np.float64)
        render(band, np.empty_like(band) if blend.weighted else None, y, x,
               painter_order(self.positions, factor=f))
        return band


class DiskPyramid:
    """Viewport access to an on-disk mosaic pyramid, nothing resident.

    The files are the ones
    :func:`repro.core.streamcompose.stream_compose_to_tiff` publishes
    (``mosaic.tif`` plus ``mosaic.L1.tif`` ... -- see
    :func:`repro.core.streamcompose.pyramid_level_path`): level 0 at
    native resolution, level k block-mean downsampled by ``2**k``.  Where
    :class:`MosaicPyramid` recomposes viewports from source tiles,
    this serves them straight from the composed mosaic through windowed
    :class:`repro.io.tiff.TiffReader` reads -- any viewport of a grid
    orders of magnitude beyond RAM costs only the viewport itself.

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: str | Path) -> None:
        from repro.core.streamcompose import pyramid_level_path
        from repro.io.tiff import TiffReader

        self.path = Path(path)
        self._readers = []
        try:
            level = 0
            while True:
                p = pyramid_level_path(self.path, level)
                if level > 0 and not p.exists():
                    break
                self._readers.append(TiffReader(p))
                level += 1
        except BaseException:
            self.close()
            raise

    @property
    def levels(self) -> int:
        return len(self._readers)

    def level_shape(self, level: int) -> tuple[int, int]:
        r = self._reader(level)
        return r.height, r.width

    @property
    def dtype(self) -> np.dtype:
        return self._readers[0].dtype

    def _reader(self, level: int):
        if not 0 <= level < len(self._readers):
            raise ValueError(
                f"level {level} outside [0, {len(self._readers)})"
            )
        return self._readers[level]

    def render_region(
        self, y: int, x: int, height: int, width: int, level: int = 0
    ) -> np.ndarray:
        """Read the viewport ``[y, y+height) x [x, x+width)`` at a level.

        Coordinates are in *level* pixels; the result keeps the mosaic's
        stored dtype.  Only the window's bytes are read from disk.
        """
        return self._reader(level).read_region(y, x, height, width)

    def level_for_scale(self, scale: float) -> int:
        """Coarsest stored level still at least ``scale`` of native size.

        ``scale=1.0`` is level 0; ``scale=0.25`` picks level 2 (or the
        coarsest available).  The viewer contract: pick the level whose
        factor does not undershoot the requested zoom.
        """
        if not 0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        level = 0
        while level + 1 < len(self._readers) and 2 ** (level + 1) <= 1.0 / scale:
            level += 1
        return level

    def close(self) -> None:
        for r in self._readers:
            r.close()
        self._readers = []

    def __enter__(self) -> "DiskPyramid":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
