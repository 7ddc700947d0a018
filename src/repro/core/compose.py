"""Phase 3, in memory: the whole mosaic as one array (Figs. 13-14).

:func:`compose` is a single full-canvas call of the blend kernel
:func:`repro.core.streamcompose.blend_kernel` -- the same arithmetic the
streamed writer runs per stripe -- so every :class:`BlendMode` is
bit-identical between the two.  It materializes the canvas (float64
while blending, then ``dtype``), which at the paper's 17k x 22k mosaic is
~3 GB; :func:`repro.core.streamcompose.stream_compose_to_tiff` renders
the same pixels to disk in bounded stripes instead.

``outline`` reproduces Fig. 14's highlighted-tile rendering by
brightening each rendered tile's border pixels.
"""

from __future__ import annotations

import numpy as np

from repro.core.global_opt import GlobalPositions
from repro.core.streamcompose import (
    BlendMode,
    blend_kernel,
    draw_outlines,
    painter_order,
)

__all__ = ["BlendMode", "compose"]


def compose(
    load_tile,
    positions: GlobalPositions,
    tile_shape: tuple[int, int],
    blend: BlendMode = BlendMode.OVERLAY,
    outline: bool = False,
    outline_value: float | None = None,
    dtype=np.float32,
    skip_tiles=None,
    on_tile_error: str = "abort",
    return_mask: bool = False,
):
    """Render the mosaic; returns a 2-D array of ``dtype``.

    ``load_tile(row, col) -> ndarray`` supplies pixels on demand.  Tiles are
    visited row-major, which for OVERLAY reproduces the usual microscopy
    convention (later rows/columns over earlier ones).  ``outline`` draws
    tile borders at ``outline_value`` (default: the canvas maximum).

    Degraded rendering: ``skip_tiles`` (iterable of ``(row, col)``) leaves
    holes where phase 1 dropped tiles; ``on_tile_error="skip"`` also turns
    load failures *during composition* into holes instead of aborting.
    With ``return_mask=True`` the return value is ``(canvas, mask)`` where
    ``mask[r, c]`` is True for every tile actually rendered -- the
    per-tile provenance record of the partial mosaic.
    """
    if on_tile_error not in ("abort", "skip"):
        raise ValueError(
            f"unknown on_tile_error {on_tile_error!r} (use 'abort' or 'skip')"
        )
    blend = BlendMode(blend)
    canvas = np.empty(positions.mosaic_shape(tile_shape), dtype=np.float64)
    weight = np.empty_like(canvas) if blend.weighted else None
    render = blend_kernel(load_tile, tile_shape, blend, on_tile_error)
    rendered = render(canvas, weight, 0, 0, painter_order(positions, skip_tiles))
    del weight  # a second canvas; free it before the dtype copy
    if outline:
        if outline_value is None:
            outline_value = float(canvas.max())
        draw_outlines(canvas, 0, 0, rendered, tile_shape, outline_value)
    canvas = canvas.astype(dtype)
    if return_mask:
        mask = np.zeros((positions.rows, positions.cols), dtype=bool)
        for r, c, _, _ in rendered:
            mask[r, c] = True
        return canvas, mask
    return canvas
