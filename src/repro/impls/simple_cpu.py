"""Simple-CPU: the sequential reference implementation (Section IV.A).

Single-threaded, transform-caching, early-freeing, with a configurable
traversal order defaulting to the paper's chained diagonal.  This is a thin
adapter over :func:`repro.core.displacement.compute_grid_displacements`,
which *is* the reference algorithm; every other implementation's output is
compared against this one in the integration tests (as the paper's authors
validated their parallel versions against their sequential code).
"""

from __future__ import annotations

from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.grid.traversal import Traversal
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class SimpleCpu(Implementation):
    """Sequential CPU implementation (10.6 min on the paper's machine)."""

    name = "simple-cpu"

    def __init__(self, traversal: Traversal = Traversal.CHAINED_DIAGONAL, **kw) -> None:
        super().__init__(**kw)
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        disp = compute_grid_displacements(
            dataset.load,
            dataset.rows,
            dataset.cols,
            traversal=self.traversal,
            fft_shape=self.fft_shape,
            ccf_mode=self.ccf_mode,
            n_peaks=self.n_peaks,
            real_transforms=self.real_transforms,
            subpixel=self.subpixel,
            cache=self.cache,
            planning=self.planning,
            error_policy=self.error_policy,
            fault_report=self.fault_report,
            tracer=self.tracer,
            metrics=self.metrics,
            use_tile_stats=self.use_tile_stats,
            use_workspace=self.use_workspace,
            journal=self.journal,
            coarse=self.coarse,
        )
        return disp, dict(disp.stats)
