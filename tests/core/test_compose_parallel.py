"""Striped rendering is bit-identical to the whole-canvas pass.

The streamed writer renders the mosaic as disjoint horizontal stripes,
each one call of the shared blend kernel with the tiles in painter's
order, so the stripe height is purely a memory knob.  These tests pin
that contract for every blend mode -- including tiles straddling stripe
boundaries, jittered (non-grid) positions, skipped tiles and load
failures -- by comparing the streamed TIFF with ``compose()`` clipped to
the output range, with exact ``array_equal`` comparisons, never
tolerances.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compose import BlendMode, compose
from repro.core.global_opt import GlobalPositions
from repro.core.streamcompose import stream_compose_to_tiff
from repro.io.tiff import read_tiff

BLENDS = list(BlendMode)
#: Tiles hold values in [0, 100); scaling spreads them over most of the
#: uint16 range so quantization keeps three decimal digits of the blend.
SCALE = 600.0


def jittered_positions(rows, cols, step_y, step_x, seed=0):
    """Grid positions with deterministic per-tile jitter, clipped >= 0."""
    rng = np.random.default_rng(seed)
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            jy, jx = rng.integers(-2, 3, size=2)
            pos[r, c] = (max(0, r * step_y + jy), max(0, c * step_x + jx))
    return GlobalPositions(positions=pos, method="test")


def textured_loader(rows, cols, th, tw, seed=1):
    rng = np.random.default_rng(seed)
    tiles = {
        (r, c): rng.random((th, tw)) * 100.0
        for r in range(rows)
        for c in range(cols)
    }
    return lambda r, c: tiles[(r, c)]


def streamed(load, gp, tile_shape, blend, band_rows, dtype=np.uint16, **kw):
    """The streamed mosaic as an array, plus the writer's result."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tif"
        res = stream_compose_to_tiff(
            path, load, gp, tile_shape, blend=blend, band_rows=band_rows,
            dtype=dtype, scale=SCALE, **kw,
        )
        return read_tiff(path), res


def clipped(canvas, dtype=np.uint16):
    """The streaming quantization applied to a ``compose()`` canvas."""
    return np.clip(canvas * SCALE, 0, np.iinfo(dtype).max).astype(dtype)


class TestBitIdentical:
    @pytest.mark.parametrize("blend", BLENDS)
    @pytest.mark.parametrize("band_rows", [2, 3, 7])
    def test_all_blends_all_stripe_heights(self, blend, band_rows):
        load = textured_loader(3, 4, 16, 12)
        gp = jittered_positions(3, 4, 12, 9)
        ref, mref = compose(load, gp, (16, 12), blend, dtype=np.float64,
                            return_mask=True)
        got, res = streamed(load, gp, (16, 12), blend, band_rows)
        assert np.array_equal(clipped(ref), got)
        assert res.tiles_rendered == int(mref.sum())

    @pytest.mark.parametrize("blend", BLENDS)
    def test_tiles_straddling_every_stripe_boundary(self, blend):
        """More stripes than tile rows: every tile crosses a boundary."""
        load = textured_loader(2, 2, 32, 8)
        gp = jittered_positions(2, 2, 24, 6, seed=3)
        ref = compose(load, gp, (32, 8), blend, dtype=np.float64)
        # Canvas is ~56 rows; 4-row stripes slice every 32-row tile into
        # many stripe-local pieces.
        got, res = streamed(load, gp, (32, 8), blend, band_rows=4)
        assert res.stripes > 8
        assert np.array_equal(clipped(ref), got)

    def test_one_row_stripes(self):
        load = textured_loader(1, 3, 4, 8)
        gp = jittered_positions(1, 3, 0, 6, seed=4)
        ref = compose(load, gp, (4, 8), BlendMode.LINEAR, dtype=np.float64)
        got, res = streamed(load, gp, (4, 8), BlendMode.LINEAR, band_rows=1)
        assert res.stripes == ref.shape[0]
        assert np.array_equal(clipped(ref), got)

    @pytest.mark.parametrize("blend", [BlendMode.OVERLAY, BlendMode.AVERAGE])
    def test_skip_tiles_and_mask(self, blend):
        load = textured_loader(3, 3, 10, 10)
        gp = jittered_positions(3, 3, 8, 8, seed=5)
        skips = [(0, 1), (2, 2)]
        ref, mref = compose(
            load, gp, (10, 10), blend, dtype=np.float64, skip_tiles=skips,
            return_mask=True,
        )
        got, res = streamed(load, gp, (10, 10), blend, band_rows=4,
                            skip_tiles=skips)
        assert np.array_equal(clipped(ref), got)
        assert res.tiles_rendered == int(mref.sum()) == 7
        assert not mref[0, 1] and not mref[2, 2]

    def test_load_failures_skipped_identically(self):
        base = textured_loader(3, 3, 10, 10)

        def load(r, c):
            if (r, c) == (1, 1):
                raise OSError("bad sector")
            return base(r, c)

        gp = jittered_positions(3, 3, 8, 8, seed=6)
        ref, mref = compose(
            load, gp, (10, 10), BlendMode.AVERAGE, dtype=np.float64,
            on_tile_error="skip", return_mask=True,
        )
        got, res = streamed(load, gp, (10, 10), BlendMode.AVERAGE,
                            band_rows=3, on_tile_error="skip")
        assert np.array_equal(clipped(ref), got)
        assert res.tiles_rendered == int(mref.sum()) == 8
        assert not mref[1, 1]

    def test_load_failures_abort_mid_stream(self):
        def load(r, c):
            raise OSError("bad sector")

        gp = jittered_positions(2, 2, 8, 8)
        with pytest.raises(OSError):
            streamed(load, gp, (10, 10), BlendMode.OVERLAY, band_rows=2)

    @pytest.mark.parametrize("blend", BLENDS)
    def test_outline_and_dtype(self, blend):
        """Outlines land at the output dtype's maximum on every stripe."""
        load = textured_loader(2, 2, 12, 12)
        gp = jittered_positions(2, 2, 9, 9, seed=7)
        for dtype in (np.uint8, np.uint16):
            top = float(np.iinfo(dtype).max)
            ref = compose(load, gp, (12, 12), blend, outline=True,
                          outline_value=top, dtype=np.float64)
            got, _ = streamed(load, gp, (12, 12), blend, band_rows=5,
                              dtype=dtype, outline=True)
            assert got.dtype == dtype
            assert np.array_equal(clipped(ref, dtype), got)
            assert got[tuple(gp.positions[0, 0])] == top


class TestPropertyIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        step_y=st.integers(3, 14),
        step_x=st.integers(3, 14),
        band_rows=st.integers(1, 30),
        blend=st.sampled_from(BLENDS),
        skip_first=st.booleans(),
        fail_last=st.booleans(),
        seed=st.integers(0, 100),
    )
    def test_random_layouts(self, rows, cols, step_y, step_x, band_rows,
                            blend, skip_first, fail_last, seed):
        """Any layout (including heavy overlap when step < tile size), any
        stripe height, any blend, with skipped tiles and load failures:
        streamed == clipped whole canvas, bit for bit."""
        base = textured_loader(rows, cols, 12, 12, seed=seed)

        def load(r, c):
            if fail_last and (r, c) == (rows - 1, cols - 1):
                raise OSError("bad sector")
            return base(r, c)

        gp = jittered_positions(rows, cols, step_y, step_x, seed=seed + 1)
        skips = [(0, 0)] if skip_first else []
        ref = compose(load, gp, (12, 12), blend, dtype=np.float64,
                      skip_tiles=skips, on_tile_error="skip")
        got, _ = streamed(load, gp, (12, 12), blend, band_rows,
                          skip_tiles=skips, on_tile_error="skip")
        assert np.array_equal(clipped(ref), got)
