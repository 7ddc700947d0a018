"""Phase 2: MST selection and least-squares adjustment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import global_opt
from repro.core.displacement import DisplacementResult, Translation
from repro.core.global_opt import _build_graph, _Graph, resolve_absolute_positions
from repro.core.quality_gate import QualityConfig


def exact_displacements(positions: np.ndarray, corr: float = 1.0) -> DisplacementResult:
    """Build a consistent DisplacementResult from known absolute positions."""
    rows, cols = positions.shape[:2]
    d = DisplacementResult.empty(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if c > 0:
                dy, dx = positions[r, c] - positions[r, c - 1]
                d.west[r][c] = Translation(corr, int(dx), int(dy))
            if r > 0:
                dy, dx = positions[r, c] - positions[r - 1, c]
                d.north[r][c] = Translation(corr, int(dx), int(dy))
    return d


def random_positions(rows, cols, seed, step=50, jitter=4):
    rng = np.random.default_rng(seed)
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (
                r * step + rng.integers(-jitter, jitter + 1),
                c * step + rng.integers(-jitter, jitter + 1),
            )
    return pos


class TestBothMethods:
    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_recovers_consistent_system_exactly(self, method):
        pos = random_positions(4, 5, seed=0)
        gp = resolve_absolute_positions(exact_displacements(pos), method)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.array_equal(gp.positions, expected)

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_normalized_to_origin(self, method):
        pos = random_positions(3, 3, seed=1)
        gp = resolve_absolute_positions(exact_displacements(pos), method)
        assert gp.positions.reshape(-1, 2).min(axis=0).tolist() == [0, 0]

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.integers(1, 5), cols=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        method=st.sampled_from(["mst", "least_squares"]),
    )
    def test_path_invariance_property(self, rows, cols, seed, method):
        """For any consistent system, recovered positions re-derive every
        pairwise displacement (path invariance, the phase-2 contract)."""
        pos = random_positions(rows, cols, seed)
        disp = exact_displacements(pos)
        gp = resolve_absolute_positions(disp, method)
        for r in range(rows):
            for c in range(cols):
                if c > 0:
                    d = gp.positions[r, c] - gp.positions[r, c - 1]
                    t = disp.west[r][c]
                    assert (d[0], d[1]) == (t.ty, t.tx)
                if r > 0:
                    d = gp.positions[r, c] - gp.positions[r - 1, c]
                    t = disp.north[r][c]
                    assert (d[0], d[1]) == (t.ty, t.tx)


class TestMstSelection:
    def test_bad_edge_avoided_when_alternative_exists(self):
        """A low-correlation (wrong) edge must be bypassed by the MST."""
        pos = random_positions(2, 2, seed=2)
        disp = exact_displacements(pos)
        # Corrupt one edge badly but mark it low-confidence.
        disp.west[1][1] = Translation(-0.5, 999, 999)
        gp = resolve_absolute_positions(disp, "mst")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.array_equal(gp.positions, expected)

    def test_tree_correlation_reported(self):
        pos = random_positions(3, 3, seed=3)
        gp = resolve_absolute_positions(exact_displacements(pos, corr=0.8), "mst")
        assert gp.spanning_tree_correlation == pytest.approx(0.8 * 8)


class TestLeastSquares:
    def test_averages_inconsistent_measurements(self):
        """LS splits the disagreement of a noisy cycle instead of ignoring it."""
        pos = random_positions(2, 2, seed=4)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(t.correlation, t.tx + 2, t.ty)  # +2 px error
        gp = resolve_absolute_positions(disp, "least_squares")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        err = np.abs(gp.positions - expected).max()
        assert err <= 2  # bounded by the injected inconsistency

    def test_downweights_low_confidence_edges(self):
        pos = random_positions(2, 2, seed=5)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(-0.99, t.tx + 40, t.ty + 40)  # garbage, low corr
        gp = resolve_absolute_positions(disp, "least_squares")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.abs(gp.positions - expected).max() <= 2


class TestInterface:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            resolve_absolute_positions(
                exact_displacements(random_positions(2, 2, 0)), "magic"
            )

    def test_mosaic_shape(self):
        pos = random_positions(2, 3, seed=6, step=40, jitter=0)
        gp = resolve_absolute_positions(exact_displacements(pos), "mst")
        h, w = gp.mosaic_shape((48, 48))
        assert h == 40 + 48
        assert w == 80 + 48

    def test_disconnected_graph_rejected(self):
        d = DisplacementResult.empty(2, 2)  # no edges at all
        with pytest.raises(ValueError):
            resolve_absolute_positions(d, "mst")


class TestNonFiniteCorrelations:
    """Regression: NaN correlations used to poison the solvers.

    ``_build_graph`` computed ``1.0 - nan`` as an MST edge weight
    (corrupting spanning-tree selection), and the least-squares weight
    ``max(min_weight, (nan + 1) / 2)`` survived only by ``max()``'s
    argument-order behaviour with NaN.  Both now clamp to a finite floor
    first.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_mst_weight_is_finite(self, bad):
        pos = random_positions(2, 2, seed=7)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(bad, t.tx, t.ty)
        g = _build_graph(disp)
        assert all(
            np.isfinite(data["weight"]) for _, _, data in g.edges(data=True)
        )

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_nan_edge_avoided_like_worst_correlation(self, method):
        # The NaN pair is garbage; clamping it to the floor means both
        # solvers treat it exactly like a correlation of -1 and the
        # redundant cycle recovers the truth.
        pos = random_positions(2, 2, seed=8)
        disp = exact_displacements(pos)
        disp.west[1][1] = Translation(float("nan"), 999, 999)
        gp = resolve_absolute_positions(disp, method)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.abs(gp.positions - expected).max() <= 2

    def test_all_finite_positions_out(self):
        pos = random_positions(3, 3, seed=9)
        disp = exact_displacements(pos)
        disp.north[1][1] = Translation(float("nan"), 0, 50)
        for method in ("mst", "least_squares"):
            gp = resolve_absolute_positions(disp, method)
            assert np.isfinite(gp.positions).all()


def corrupted_system(seed=10, rows=4, cols=4):
    """A consistent grid with one confidently-wrong and one garbage pair."""
    pos = random_positions(rows, cols, seed)
    disp = exact_displacements(pos, corr=0.9)
    disp.west[1][1] = Translation(0.95, 999, 40)   # confident, wrong offset
    disp.north[2][2] = Translation(0.01, -30, 700)  # garbage, low confidence
    expected = pos - pos.reshape(-1, 2).min(axis=0)
    return disp, expected


class TestQualityGatedSolve:
    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_clean_data_bit_identical_with_default_gate(self, method):
        """With defaults and nothing to gate, the gated solve must build
        the identical system: positions are bit-for-bit the ungated ones."""
        pos = random_positions(4, 5, seed=11)
        disp = exact_displacements(pos, corr=0.9)
        ungated = resolve_absolute_positions(disp, method)
        gated = resolve_absolute_positions(disp, method, quality=QualityConfig())
        assert np.array_equal(ungated.positions, gated.positions)
        assert gated.quality_report["gated_pairs"] == 0

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_demotes_corrupted_pairs(self, method):
        disp, expected = corrupted_system()
        gp = resolve_absolute_positions(disp, method, quality=QualityConfig())
        assert gp.quality_report["gated_pairs"] == 2
        reasons = gp.quality_report["gate_reasons"]
        assert reasons.get("stage_outlier", 0) >= 1
        assert reasons.get("low_correlation", 0) >= 1
        assert np.abs(gp.positions - expected).max() <= 2

    def test_gated_solve_beats_ungated(self):
        disp, expected = corrupted_system()
        ungated = resolve_absolute_positions(disp, "least_squares")
        gated = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig(residue_mode="huber")
        )
        err_ungated = np.abs(ungated.positions - expected).max()
        err_gated = np.abs(gated.positions - expected).max()
        assert err_gated <= 2
        assert err_ungated > err_gated

    def test_huber_irls_damps_surviving_outlier(self):
        # An outlier small enough to pass the gates but large enough to
        # trip the residue damping: IRLS must iterate and improve on the
        # single-solve result.
        pos = random_positions(3, 3, seed=12, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(0.9, t.tx + 6, t.ty)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        plain = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig(stage_radius=100.0)
        )
        huber = resolve_absolute_positions(
            disp, "least_squares",
            quality=QualityConfig(stage_radius=100.0, residue_mode="huber"),
        )
        assert huber.quality_report["irls_iterations"] >= 1
        assert huber.quality_report["residue_damped_edges"] >= 1
        err_plain = np.abs(plain.positions - expected).sum()
        err_huber = np.abs(huber.positions - expected).sum()
        assert err_huber <= err_plain

    def test_threshold_mode_hard_rejects(self):
        pos = random_positions(3, 3, seed=13, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(0.9, t.tx + 6, t.ty)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        gp = resolve_absolute_positions(
            disp, "least_squares",
            quality=QualityConfig(stage_radius=100.0, residue_mode="threshold"),
        )
        assert gp.quality_report["residue_damped_edges"] >= 1
        assert np.abs(gp.positions - expected).max() <= 1

    def test_residue_mode_none_never_iterates(self):
        disp, _ = corrupted_system()
        gp = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig()
        )
        assert gp.quality_report["irls_iterations"] == 0
        assert gp.quality_report["residue_damped_edges"] == 0

    def test_mst_reports_gated_edges_in_tree(self):
        # Only a gated edge can reach tile (1,1): the tree is forced
        # through a demoted (nominal) edge and must say so.
        pos = random_positions(3, 3, seed=14, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        disp.west[1][1] = Translation(0.95, 999, 40)  # confident, wrong
        disp.west[1][2] = None
        disp.north[1][1] = None
        disp.north[2][1] = None
        gp = resolve_absolute_positions(disp, "mst", quality=QualityConfig())
        assert gp.quality_report["gated_edges_in_tree"] == 1
        # The demoted edge places the tile on the stage model's step, not
        # at the garbage measurement.
        assert np.abs(gp.positions).max() < 200


# -- differential against networkx --------------------------------------------
#
# Phase 2 once ran on networkx; its spanning trees break ties between equal
# weights by iteration order, so ``_Graph`` must reproduce every order
# networkx 3.x produces.  The reference below solves through the calls the
# solver made before: ``nx.Graph``, ``nx.is_connected``,
# ``nx.minimum_spanning_tree`` and ``nx.connected_components``.


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


def _nx_graph_class(nx):
    class NxGraph(nx.Graph):
        def connected_components(self):
            return nx.connected_components(self)

        def minimum_spanning_tree(self):
            return nx.minimum_spanning_tree(self, weight="weight")

    return NxGraph


def _random_graph(rng):
    """Grid-ish graph on (r, c) nodes in a shuffled insertion order."""
    nodes = [(int(r), int(c)) for r, c in rng.integers(0, 5, size=(12, 2))]
    weights = [0.0, 0.5, 1.0, 2.5, float("inf"), float("-inf")]
    edges = []
    for _ in range(int(rng.integers(0, 25))):
        u, v = (nodes[i] for i in rng.integers(0, len(nodes), size=2))
        w = (weights[int(rng.integers(len(weights)))]
             if rng.random() < 0.6 else float(rng.uniform(-1, 3)))
        edges.append((u, v, w))
    return nodes, edges


@pytest.mark.parametrize("seed", range(200))
def test_graph_orders_match_networkx(nx, seed):
    rng = np.random.default_rng(seed)
    nodes, edges = _random_graph(rng)
    if seed % 10 == 0:
        edges.append((nodes[0], nodes[1], float("nan")))
    ours, ref = _Graph(), nx.Graph()
    for u, v, w in edges:
        ours.add_edge(u, v, weight=w, tag=(u, v))
        ref.add_edge(u, v, weight=w, tag=(u, v))
    for n in nodes:
        ours.add_node(n)
        ref.add_node(n)
    assert list(ours.edges(data=True)) == list(ref.edges(data=True))
    assert list(ours.adj) == list(ref.adj)
    assert [list(c) for c in ours.connected_components()] == [
        list(c) for c in nx.connected_components(ref)
    ]
    if any(np.isnan(w) for _, _, w in edges):
        with pytest.raises(ValueError, match="NaN found as an edge weight"):
            ours.minimum_spanning_tree()
        with pytest.raises(ValueError, match="NaN found as an edge weight"):
            nx.minimum_spanning_tree(ref)
        return
    tree, ref_tree = ours.minimum_spanning_tree(), nx.minimum_spanning_tree(ref)
    assert list(tree.adj) == list(ref_tree.adj)
    for n in tree.adj:
        assert list(tree.adj[n].items()) == list(ref_tree.adj[n].items())


def _random_grid(seed):
    """A seeded phase-1 result: 1xN/Nx1/general shapes, tied, non-finite
    and wild correlations, dropped pairs, optional sub-pixel estimates."""
    rng = np.random.default_rng(seed)
    shape = seed % 4
    if shape == 0:
        rows, cols = 1, int(rng.integers(2, 8))
    elif shape == 1:
        rows, cols = int(rng.integers(2, 8)), 1
    else:
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    tied = rng.random() < 0.5
    subpixel = rng.random() < 0.3
    p_missing = (0.0, 0.15, 0.4)[int(rng.integers(3))]
    disp = DisplacementResult.empty(rows, cols)
    for r in range(rows):
        for c in range(cols):
            for grid, ok, (sy, sx) in ((disp.west, c > 0, (0, 50)),
                                       (disp.north, r > 0, (50, 0))):
                if not ok or rng.random() < p_missing:
                    continue
                roll = rng.random()
                if roll < 0.05:
                    corr = float("nan")
                elif roll < 0.08:
                    corr = float("inf")
                elif roll < 0.11:
                    corr = float("-inf")
                elif tied:
                    corr = float(rng.choice([0.2, 0.5, 0.9, 1.0]))
                else:
                    corr = float(rng.uniform(-1, 1))
                jy, jx = rng.integers(-3, 4, size=2)
                if rng.random() < 0.08:  # a wild measurement
                    jy, jx = rng.integers(-200, 200, size=2)
                ty, tx = int(sy + jy), int(sx + jx)
                fy = fx = None
                if subpixel:
                    fy, fx = (float(v) for v in (ty, tx) + rng.uniform(-0.5, 0.5, 2))
                grid[r][c] = Translation(corr, tx, ty, tx_f=fx, ty_f=fy,
                                         peak_ratio=float(rng.uniform(0.5, 4)))
    kwargs = {"subpixel": subpixel}
    if rng.random() < 0.5:
        kwargs["on_disconnected"] = "nominal"
        kwargs["nominal_step"] = ((0.0, 50.0), (50.0, 0.0))
    if rng.random() < 0.4:
        kwargs["quality"] = QualityConfig(
            min_peak_ratio=float(rng.choice([1.0, 1.5])),
            residue_mode=str(rng.choice(["none", "huber", "threshold"])),
        )
    return disp, kwargs


def _solve(disp, method, kwargs):
    try:
        return resolve_absolute_positions(disp, method, **kwargs)
    except ValueError as exc:
        return exc


def _same_array(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype
        and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    )


@pytest.mark.parametrize("chunk", range(8))
def test_solutions_match_networkx(nx, monkeypatch, chunk):
    """480 seeded grids: ``mst`` is bit-identical to the networkx solve in
    every field; ``least_squares`` in connectivity and degraded handling
    (and, the system rows being built in the same order, in positions)."""
    nx_graph = _nx_graph_class(nx)
    for seed in range(chunk * 60, chunk * 60 + 60):
        disp, kwargs = _random_grid(seed)
        for method in ("mst", "least_squares"):
            got = _solve(disp, method, kwargs)
            with monkeypatch.context() as m:
                m.setattr(global_opt, "_Graph", nx_graph)
                want = _solve(disp, method, kwargs)
            where = f"seed {seed}, {method}, {kwargs}"
            if isinstance(want, ValueError):
                assert isinstance(got, ValueError), where
                assert str(got) == str(want), where
                continue
            assert not isinstance(got, ValueError), f"{where}: {got}"
            assert _same_array(got.degraded, want.degraded), where
            assert _same_array(got.positions, want.positions), where
            assert _same_array(got.positions_f, want.positions_f), where
            assert repr(got.quality_report) == repr(want.quality_report), where
            assert (repr(got.spanning_tree_correlation)
                    == repr(want.spanning_tree_correlation)), where
