"""Phase 2: resolve the over-constrained displacement graph (Section III).

The pairwise translations over-constrain absolute positions: any cycle in
the grid graph gives two path-sums for the same tile, and stage noise makes
them disagree.  The paper offers two resolution strategies, both
implemented here:

``mst``
    Select a subset of displacements forming a maximum-correlation spanning
    tree and read positions off tree paths.  Low-confidence edges (blank
    overlaps) are simply never selected when any better path exists.
``least_squares``
    Global adjustment: minimize ``sum_ij w_ij * ||p_j - p_i - d_ij||^2``
    over all edges, with confidence-derived weights, anchored at tile
    (0, 0).  This is the "global optimization approach to adjust them to a
    path invariant state" the paper describes; it uses every measurement
    instead of discarding the off-tree ones.

Both return integer pixel positions normalized so ``min == (0, 0)``.

Robustness (docs/ROBUSTNESS.md): with a
:class:`~repro.core.quality_gate.QualityConfig`, every pair is scored by
:func:`~repro.core.quality_gate.assess_quality` first.  Gated pairs --
low correlation, diffuse correlation peak, or stage-model outliers -- are
*demoted* to nominal-prior edges: their measured (garbage) translation is
replaced by the stage model's median step at a token weight, so they keep
the graph connected without pulling on their neighbours.  The
least-squares solver additionally supports IRLS residue damping
(``residue_mode: huber | threshold``): after each solve, edges with large
residuals are down-weighted and the system is re-solved until the weights
converge.  Non-finite correlations are always clamped to a finite floor
before any weight is derived from them.

Degraded operation: when phase 1 dropped tiles (fault tolerance), the
displacement graph may be disconnected.  ``on_disconnected="nominal"``
places each disconnected component by anchoring it at the nominal stage
coordinate of its local root -- the grid-index position scaled by the
nominal step, estimated from the median of the surviving edges (or
supplied explicitly from acquisition metadata).  Such tiles are flagged
in ``GlobalPositions.degraded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.core.displacement import DisplacementResult, Translation
from repro.core.quality_gate import (
    QualityAssessment,
    QualityConfig,
    assess_quality,
    finite_correlation,
)


@dataclass
class GlobalPositions:
    """Absolute tile origins ``positions[rows, cols, 2]`` as ``(y, x)``.

    ``mosaic_shape`` is the bounding canvas for a given tile size.
    """

    positions: np.ndarray  # int64 [rows, cols, 2] (y, x), min at (0, 0)
    method: str
    spanning_tree_correlation: float | None = None
    #: Sub-pixel positions (float64, same normalization) when the
    #: displacements carried fractional estimates; ``None`` otherwise.
    positions_f: np.ndarray | None = None
    #: Bool mask [rows, cols]; True where the position is a nominal-grid
    #: fallback (tile disconnected from the anchor component).  ``None``
    #: when the graph was fully connected.
    degraded: np.ndarray | None = None
    #: JSON-able gating/IRLS summary when a quality gate ran (pair
    #: counts, gate reasons, stage models, IRLS iterations and damped
    #: edge counts); ``None`` for ungated solves.
    quality_report: dict | None = None

    @property
    def rows(self) -> int:
        return self.positions.shape[0]

    @property
    def cols(self) -> int:
        return self.positions.shape[1]

    @property
    def degraded_count(self) -> int:
        return 0 if self.degraded is None else int(self.degraded.sum())

    def degraded_tiles(self) -> list[tuple[int, int]]:
        if self.degraded is None:
            return []
        return [tuple(rc) for rc in np.argwhere(self.degraded)]

    def mosaic_shape(self, tile_shape: tuple[int, int]) -> tuple[int, int]:
        h = int(self.positions[..., 0].max()) + tile_shape[0]
        w = int(self.positions[..., 1].max()) + tile_shape[1]
        return h, w


def _edges(disp: DisplacementResult):
    """Yield ``(u, v, translation, direction)``; u is v's west/north peer."""
    for r in range(disp.rows):
        for c in range(disp.cols):
            t = disp.west[r][c]
            if t is not None:
                yield (r, c - 1), (r, c), t, "west"
            t = disp.north[r][c]
            if t is not None:
                yield (r - 1, c), (r, c), t, "north"


def _normalize(pos: np.ndarray) -> np.ndarray:
    pos = pos - pos.reshape(-1, 2).min(axis=0)
    return np.rint(pos).astype(np.int64)


def _normalize_f(pos: np.ndarray) -> np.ndarray:
    return pos - pos.reshape(-1, 2).min(axis=0)


def _nominal_prior_translation(
    assessment: QualityAssessment, direction: str
) -> Translation | None:
    """The stage model's step as a demoted edge's replacement value."""
    nominal = assessment.nominal_translation(direction)
    if nominal is None:
        return None
    dy, dx = nominal
    return Translation(
        correlation=0.0, tx=int(round(dx)), ty=int(round(dy)),
        tx_f=float(dx), ty_f=float(dy),
    )


class _Graph:
    """The undirected graph phase 2 needs, iterated as networkx 3.x does.

    Spanning trees break ties between equal weights by visit order, so
    every order here is the one ``networkx.Graph`` produces: nodes and
    each node's neighbours in insertion order, :meth:`edges` from each
    node to the neighbours not visited before it, components in
    first-node order.  Positions are then bit-identical to those solved
    over ``networkx.minimum_spanning_tree``.
    """

    def __init__(self) -> None:
        self.adj: dict = {}

    def add_node(self, n) -> None:
        self.adj.setdefault(n, {})

    def add_edge(self, u, v, **attr) -> None:
        self.add_node(u)
        self.add_node(v)
        self.adj[u][v] = self.adj[v][u] = attr

    def edges(self, data: bool = False):
        seen: set = set()
        for u, nbrs in self.adj.items():
            for v, d in nbrs.items():
                if v not in seen:
                    yield (u, v, d) if data else (u, v)
            seen.add(u)

    def component(self, source) -> set:
        """The nodes reachable from ``source``, collected breadth-first."""
        seen = {source}
        level = [source]
        while level:
            nxt = []
            for u in level:
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            level = nxt
        return seen

    def connected_components(self):
        seen: set = set()
        for n in self.adj:
            if n not in seen:
                comp = self.component(n)
                seen.update(comp)
                yield comp

    def minimum_spanning_tree(self) -> "_Graph":
        """Kruskal over the edges in :meth:`edges` order, stably sorted
        by ``weight``; the tree gets every node and its edges in the
        order they were accepted."""
        edges = []
        for u, v, d in self.edges(data=True):
            if math.isnan(d["weight"]):
                raise ValueError(f"NaN found as an edge weight. Edge {(u, v, d)}")
            edges.append((d["weight"], u, v, d))
        edges.sort(key=itemgetter(0))
        tree = _Graph()
        parent = {}
        for n in self.adj:
            tree.add_node(n)
            parent[n] = n

        def root(n):
            while parent[n] != n:
                parent[n] = n = parent[parent[n]]
            return n

        for _, u, v, d in edges:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[ru] = rv
                tree.add_edge(u, v, **d)
        return tree


def _build_graph(
    disp: DisplacementResult,
    assessment: QualityAssessment | None = None,
) -> _Graph:
    """The displacement graph with confidence-derived MST weights.

    The maximum-confidence spanning tree is the minimum of
    ``1 - confidence``, where confidence is the finite-clamped
    correlation -- identical to the historical ``1 - correlation``
    weight on clean (finite, ungated) data.  A non-finite correlation
    previously produced a NaN weight, silently corrupting spanning-tree
    selection; it now clamps to the floor (weight 2.0).  With an
    ``assessment``, gated pairs carry a penalty offset of 2.0 so any
    measured edge beats any demoted one, and their translation is
    replaced by the stage model's nominal step so a tree forced through
    one (connectivity) places the tile on the stage grid instead of at
    the garbage measurement.
    """
    g = _Graph()
    for u, v, t, direction in _edges(disp):
        confidence = finite_correlation(t.correlation)
        weight = 1.0 - confidence
        if assessment is not None:
            q = assessment.quality(direction, v[0], v[1])
            if q is not None and q.gated:
                prior = _nominal_prior_translation(assessment, direction)
                if prior is not None:
                    t = prior
                # Any ungated edge (weight <= 2.0) is preferred to any
                # gated one; among gated edges, higher confidence wins.
                weight = 2.0 + (1.0 - confidence)
        g.add_edge(u, v, weight=weight, translation=t, forward=(u, v))
    for r in range(disp.rows):
        for c in range(disp.cols):
            g.add_node((r, c))
    return g


def estimate_nominal_step(
    disp: DisplacementResult,
    nominal_step: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Nominal ``((west_dy, west_dx), (north_dy, north_dx))`` grid step.

    Estimated as the per-direction median of the surviving phase-1
    translations (robust to the occasional blank-overlap outlier); a
    direction with no surviving edges falls back to the supplied
    ``nominal_step`` (typically derived from acquisition metadata).
    """
    west = [(t.fy, t.fx) for row in disp.west for t in row if t is not None]
    north = [(t.fy, t.fx) for row in disp.north for t in row if t is not None]

    def median_or_fallback(samples, fallback, direction):
        if samples:
            arr = np.asarray(samples, dtype=np.float64)
            return (float(np.median(arr[:, 0])), float(np.median(arr[:, 1])))
        if fallback is not None:
            return (float(fallback[0]), float(fallback[1]))
        raise ValueError(
            f"cannot estimate nominal {direction} step: no surviving "
            f"{direction} displacements and no nominal_step supplied"
        )

    return (
        median_or_fallback(west, nominal_step[0] if nominal_step else None, "west"),
        median_or_fallback(north, nominal_step[1] if nominal_step else None, "north"),
    )


def _nominal_position(
    rc: tuple[int, int], step: tuple[tuple[float, float], tuple[float, float]]
) -> np.ndarray:
    (wy, wx), (ny, nx_) = step
    r, c = rc
    return np.array([r * ny + c * wy, r * nx_ + c * wx], dtype=np.float64)


def _mst_positions(
    disp: DisplacementResult,
    subpixel: bool = False,
    on_disconnected: str = "error",
    nominal_step=None,
    assessment: QualityAssessment | None = None,
) -> GlobalPositions:
    g = _build_graph(disp, assessment)
    components = list(g.connected_components())
    connected = len(components) == 1
    if not connected and on_disconnected != "nominal":
        raise ValueError("displacement graph is disconnected; cannot stitch")
    step = None
    if not connected:
        step = estimate_nominal_step(disp, nominal_step)
    tree = g.minimum_spanning_tree()
    pos = np.zeros((disp.rows, disp.cols, 2), dtype=np.float64)
    degraded = np.zeros((disp.rows, disp.cols), dtype=bool)
    seen: set = set()
    total_corr = 0.0
    gated_in_tree = 0
    # Anchor component: rooted at (0, 0).  Every other component is rooted
    # at its smallest (row, col) member, anchored on the nominal grid.
    roots = [(0, 0)]
    if not connected:
        for comp in components:
            if (0, 0) not in comp:
                roots.append(min(comp))
    for root in roots:
        if root == (0, 0):
            pos[root] = 0.0
        else:
            pos[root] = _nominal_position(root, step)
            degraded[root] = True
        seen.add(root)
        # BFS from the root accumulating signed translations along tree edges.
        stack = [root]
        while stack:
            u = stack.pop()
            for v, data in tree.adj[u].items():
                if v in seen:
                    continue
                seen.add(v)
                t = data["translation"]
                fu, fv = data["forward"]
                sign = 1.0 if (fu, fv) == (u, v) else -1.0
                dy, dx = (t.fy, t.fx) if subpixel else (float(t.ty), float(t.tx))
                pos[v] = pos[u] + sign * np.array([dy, dx], dtype=np.float64)
                degraded[v] = degraded[root]
                total_corr += t.correlation
                if data["weight"] > 2.0:
                    gated_in_tree += 1
                stack.append(v)
    quality_report = None
    if assessment is not None:
        quality_report = assessment.report()
        quality_report["gated_edges_in_tree"] = gated_in_tree
    return GlobalPositions(
        positions=_normalize(pos),
        method="mst",
        spanning_tree_correlation=total_corr,
        positions_f=_normalize_f(pos) if subpixel else None,
        degraded=degraded if degraded.any() else None,
        quality_report=quality_report,
    )


def _residue_damping(
    residuals: np.ndarray, mode: str, residue_len: float
) -> np.ndarray:
    """Per-edge IRLS damping factors in ``(0, 1]`` from residual lengths.

    ``huber`` is the classic Huber IRLS weight (quadratic inside the
    delta, linear beyond: weight ``residue_len / |r|``); ``threshold``
    collapses offending edges to a token weight, the hard-rejection
    analogue.
    """
    if mode == "huber":
        return np.minimum(
            1.0, residue_len / np.maximum(residuals, 1e-12)
        )
    if mode == "threshold":
        return np.where(residuals <= residue_len, 1.0, 1e-3)
    raise ValueError(f"unknown residue mode {mode!r}")


def _least_squares_positions(
    disp: DisplacementResult,
    min_weight: float = 1e-3,
    subpixel: bool = False,
    on_disconnected: str = "error",
    nominal_step=None,
    assessment: QualityAssessment | None = None,
) -> GlobalPositions:
    n = disp.rows * disp.cols

    def idx(rc) -> int:
        return rc[0] * disp.cols + rc[1]

    components = list(_build_graph(disp, assessment).connected_components())
    connected = len(components) == 1
    if not connected and on_disconnected != "nominal":
        raise ValueError("displacement graph is disconnected; cannot stitch")
    degraded = np.zeros((disp.rows, disp.cols), dtype=bool)
    off_anchor: list[tuple[int, int]] = []
    if not connected:
        for comp in components:
            if (0, 0) not in comp:
                off_anchor.extend(comp)
        for rc in off_anchor:
            degraded[rc] = True
    step = estimate_nominal_step(disp, nominal_step) if off_anchor else None

    cfg = assessment.config if assessment is not None else None

    # Per-edge system data.  Gated pairs are demoted: their measurement is
    # replaced by the stage model's nominal step at a token weight, so the
    # graph stays connected without the garbage value pulling on anyone.
    e_iu: list[int] = []
    e_iv: list[int] = []
    e_w: list[float] = []
    e_dy: list[float] = []
    e_dx: list[float] = []
    e_gated: list[bool] = []
    for u, v, t, direction in _edges(disp):
        gated = False
        if assessment is not None:
            q = assessment.quality(direction, v[0], v[1])
            if q is not None and q.gated:
                prior = _nominal_prior_translation(assessment, direction)
                if prior is not None:
                    t = prior
                    gated = True
        if gated:
            w = cfg.gate_weight
        else:
            # Clamp first: the historical expression fed a NaN correlation
            # straight into max(), surviving only by argument order.
            confidence = finite_correlation(t.correlation)
            w = max(min_weight, (confidence + 1.0) / 2.0)
        dy, dx = (t.fy, t.fx) if subpixel else (float(t.ty), float(t.tx))
        e_iu.append(idx(u))
        e_iv.append(idx(v))
        e_w.append(w)
        e_dy.append(dy)
        e_dx.append(dx)
        e_gated.append(gated)

    n_edges = len(e_w)
    base_w = np.asarray(e_w, dtype=np.float64)
    arr_dy = np.asarray(e_dy, dtype=np.float64)
    arr_dx = np.asarray(e_dx, dtype=np.float64)
    gated_mask = np.asarray(e_gated, dtype=bool)
    iu = np.asarray(e_iu, dtype=np.int64)
    iv = np.asarray(e_iv, dtype=np.int64)

    # Extra rows appended after the edge equations: the gauge anchor and
    # (under degraded operation) the weak nominal priors for tiles cut off
    # from the anchor component (weight 1e-6: pins their otherwise-free
    # gauge to the nominal grid without measurably perturbing the
    # measured edges).
    extra_cols: list[int] = [0]
    extra_vals: list[float] = [1.0]
    extra_by: list[float] = [0.0]
    extra_bx: list[float] = [0.0]
    for rc in off_anchor:
        nominal = _nominal_position(rc, step)
        extra_cols.append(idx(rc))
        extra_vals.append(1e-6)
        extra_by.append(1e-6 * nominal[0])
        extra_bx.append(1e-6 * nominal[1])

    def solve(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Only this solver needs scipy.sparse; a default MST stitch
        # never pays its import.
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        rows_a: list[int] = []
        cols_a: list[int] = []
        vals: list[float] = []
        b_y: list[float] = []
        b_x: list[float] = []
        eq = 0
        for e in range(n_edges):
            w = weights[e]
            rows_a += [eq, eq]
            cols_a += [int(iv[e]), int(iu[e])]
            vals += [w, -w]
            b_y.append(w * arr_dy[e])
            b_x.append(w * arr_dx[e])
            eq += 1
        for col, val, by, bx in zip(extra_cols, extra_vals, extra_by, extra_bx):
            rows_a.append(eq)
            cols_a.append(col)
            vals.append(val)
            b_y.append(by)
            b_x.append(bx)
            eq += 1
        a = sp.csr_matrix((vals, (rows_a, cols_a)), shape=(eq, n))
        y = spla.lsqr(a, np.asarray(b_y), atol=1e-12, btol=1e-12)[0]
        x = spla.lsqr(a, np.asarray(b_x), atol=1e-12, btol=1e-12)[0]
        return y, x

    residue_mode = cfg.residue_mode if cfg is not None else "none"
    damp = np.ones(n_edges, dtype=np.float64)
    irls_iterations = 0
    y, x = solve(base_w)
    if residue_mode != "none" and n_edges:
        # IRLS: damp edges whose residual exceeds the Huber delta /
        # threshold and re-solve until the damping stabilizes.  Demoted
        # (nominal-prior) edges are exempt -- they are already priors.
        for _ in range(cfg.max_irls_iterations):
            res_y = (y[iv] - y[iu]) - arr_dy
            res_x = (x[iv] - x[iu]) - arr_dx
            residuals = np.hypot(res_y, res_x)
            new_damp = _residue_damping(residuals, residue_mode, cfg.residue_len)
            new_damp[gated_mask] = 1.0
            delta = float(np.max(np.abs(new_damp - damp)))
            if delta <= cfg.irls_tol:
                break
            damp = new_damp
            irls_iterations += 1
            y, x = solve(base_w * damp)
    pos = np.stack([y, x], axis=-1).reshape(disp.rows, disp.cols, 2)
    quality_report = None
    if assessment is not None:
        quality_report = assessment.report()
        quality_report["irls_iterations"] = irls_iterations
        quality_report["residue_damped_edges"] = int((damp < 1.0).sum())
    return GlobalPositions(
        positions=_normalize(pos),
        method="least_squares",
        positions_f=_normalize_f(pos) if subpixel else None,
        degraded=degraded if degraded.any() else None,
        quality_report=quality_report,
    )


def resolve_absolute_positions(
    disp: DisplacementResult,
    method: str = "mst",
    subpixel: bool = False,
    on_disconnected: str = "error",
    nominal_step: tuple[tuple[float, float], tuple[float, float]] | None = None,
    quality: QualityConfig | None = None,
) -> GlobalPositions:
    """Phase 2 entry point; ``method`` is ``"mst"`` or ``"least_squares"``.

    ``subpixel=True`` resolves over the fractional translation estimates
    (where present) and exposes ``GlobalPositions.positions_f`` alongside
    the rounded integer positions composition uses.

    ``on_disconnected`` controls degraded operation when phase 1 dropped
    tiles and split the displacement graph: ``"error"`` (default)
    preserves the strict behaviour and raises ``ValueError``;
    ``"nominal"`` places each stranded component on the nominal grid
    (step from :func:`estimate_nominal_step`, seeded by ``nominal_step``
    metadata when the surviving edges cannot define it) and flags its
    tiles in ``GlobalPositions.degraded``.

    ``quality`` enables the registration quality gate
    (:mod:`repro.core.quality_gate`): pairs failing the confidence /
    peak-sharpness / stage-model gates are demoted to nominal-prior
    edges, solver weights become confidence-derived, and -- for the
    least-squares method -- ``residue_mode`` selects Huber or threshold
    IRLS damping of large residuals.  The gating/IRLS summary lands in
    ``GlobalPositions.quality_report``.  With the default gate and clean
    data, nothing gates and positions are bit-identical to ``quality=
    None``.
    """
    if on_disconnected not in ("error", "nominal"):
        raise ValueError(
            f"unknown on_disconnected {on_disconnected!r} (use 'error' or 'nominal')"
        )
    if not disp.is_complete() and disp.pair_count() == 0 and len(disp.west) * len(disp.west[0]) > 1:
        if on_disconnected != "nominal":
            raise ValueError("no displacements computed")
        if nominal_step is None:
            raise ValueError(
                "no displacements computed and no nominal_step to fall back on"
            )
    assessment = assess_quality(disp, quality) if quality is not None else None
    if method == "mst":
        return _mst_positions(
            disp, subpixel=subpixel,
            on_disconnected=on_disconnected, nominal_step=nominal_step,
            assessment=assessment,
        )
    if method == "least_squares":
        return _least_squares_positions(
            disp, subpixel=subpixel,
            on_disconnected=on_disconnected, nominal_step=nominal_step,
            assessment=assessment,
        )
    raise ValueError(f"unknown method {method!r} (use 'mst' or 'least_squares')")
