import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from taboowalk import (
    ExtrapolationUnstable,
    InvalidQuery,
    NotConverged,
    QuadratureConfig,
    SimConfig,
    StepTooCoarse,
    TabooQuery,
    TailOrder,
    TimeGrid,
    Variant,
    estimate_taboo_curve,
    hitting_cdf,
    laplace_hitting,
    laplace_taboo,
    minus_from_plus,
    simple_walk_1d,
    taboo_cdf,
    tail_extract,
)
from taboowalk import curves
from taboowalk import quadrature
from taboowalk.curves import _LADDER_KS
from taboowalk.kernels import default_config, transition_probability
from taboowalk.limits import c1_constant
from taboowalk.model import char_exponent_grid
from taboowalk.quadrature import p_curves


def g1d_closed(lam, x, a=1.0):
    s = math.sqrt(lam * (lam + 2 * a))
    return ((lam + a - s) / a) ** abs(x) / s


def laplace_stieltjes(curve, lam):
    """Midpoint Laplace-Stieltjes sum of a sampled c.d.f."""
    h = curve.grid.step
    thalf = (np.arange(curve.grid.n_steps) + 0.5) * h
    return float(np.exp(-lam * thalf) @ np.diff(curve.values))


@pytest.fixture(scope="module")
def grid40():
    return TimeGrid(step=0.02, n_steps=2000)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
def test_time_grid_rejects_bad_step(step):
    with pytest.raises(ValueError):
        TimeGrid(step=step, n_steps=10)


@pytest.mark.parametrize("n_steps", [10.0, 2.5, True, "10"])
def test_time_grid_rejects_non_integer_steps(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(step=0.1, n_steps=n_steps)


def test_time_grid_takes_numpy_integer_steps():
    assert TimeGrid(step=0.1, n_steps=np.int64(10)).horizon == pytest.approx(1.0)


class TestHittingCdf:
    def test_starts_at_zero_and_monotone(self, simple1d, grid40):
        c = hitting_cdf(simple1d, [0], [1], grid40)
        assert c.values[0] == 0.0
        assert np.min(np.diff(c.values)) >= -1e-9
        assert np.max(c.values) <= c.limit + 1e-6

    def test_trend_to_limit_d_le_2(self, simple1d, grid40):
        c = hitting_cdf(simple1d, [0], [1], grid40)
        assert c.limit == 1.0
        assert c.values[-1] < 1.0
        assert c.values[-1] > 0.8  # deficit ~ sqrt(2/(pi t)) at t = 40

    def test_return_curve_independent_of_start(self, simple1d, walk2d, grid40):
        c0 = hitting_cdf(simple1d, [0], [0], grid40)
        c1 = hitting_cdf(simple1d, [5], [5], grid40)
        assert np.array_equal(c0.values, c1.values)
        g = TimeGrid(step=0.05, n_steps=100)
        w0 = hitting_cdf(walk2d, [0, 0], [0, 0], g)
        w1 = hitting_cdf(walk2d, [3, -2], [3, -2], g)
        assert np.array_equal(w0.values, w1.values)

    def test_depends_on_displacement_up_to_sign(self, simple1d, grid40):
        a = hitting_cdf(simple1d, [2], [5], grid40)
        b = hitting_cdf(simple1d, [0], [3], grid40)
        c = hitting_cdf(simple1d, [0], [-3], grid40)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_laplace_consistency(self, simple1d, grid40):
        c = hitting_cdf(simple1d, [0], [1], grid40)
        for lam in (0.5, 1.0, 2.0):
            numeric = laplace_stieltjes(c, lam)
            closed = laplace_hitting(simple1d, [0], [1], lam)
            assert numeric == pytest.approx(closed, abs=1e-3)

    def test_against_monte_carlo(self, simple1d):
        # return-time curve vs simulation (far-away taboo never binds)
        grid = TimeGrid(step=0.02, n_steps=500)
        curve = hitting_cdf(simple1d, [0], [0], grid)
        q = TabooQuery((0,), (0,), (10**6,))
        sim = SimConfig(horizon=10.0, n_paths=1_000_000, seed=91)
        for t in (1.0, 5.0, 10.0):
            est = estimate_taboo_curve(simple1d, q, [t], sim)[0]
            assert abs(curve.at(t) - est.probability) <= 3 * est.std_error

    def test_step_too_coarse(self, simple1d):
        grid = TimeGrid(step=0.5, n_steps=10)
        with pytest.raises(StepTooCoarse):
            hitting_cdf(simple1d, [0], [1], grid)
        c = hitting_cdf(simple1d, [0], [1], grid, strict=False)
        assert any("step_too_coarse" in w for w in c.warnings)


class TestTabooCdf:
    def test_residual_and_shape(self, simple1d):
        grid = TimeGrid(step=0.05, n_steps=1000)
        a, b = taboo_cdf(simple1d, TabooQuery((2,), (5,), (0,)), grid)
        assert a.residual <= 1e-8
        assert a.values[0] == 0.0 and b.values[0] == 0.0
        assert np.min(np.diff(a.values)) >= -1e-9
        assert np.max(a.values) <= a.limit + 1e-6

    def test_limit_reached_exponential_case(self, simple1d):
        grid = TimeGrid(step=0.05, n_steps=4000)
        a, b = taboo_cdf(simple1d, TabooQuery((2,), (5,), (0,)), grid)
        assert abs(a.values[-1] - 0.4) <= 0.01
        assert abs(b.values[-1] - 0.6) <= 0.01

    def test_zero_case_stays_at_discretization_level(self, simple1d):
        # exact-zero curve; the discrete solve leaves O(h^2) residue
        grid = TimeGrid(step=0.05, n_steps=400)
        a, _ = taboo_cdf(simple1d, TabooQuery((-1,), (2,), (0,)), grid)
        assert a.limit == 0.0
        assert np.max(np.abs(a.values)) <= 2e-4

    def test_laplace_consistency(self, nonsimple1d):
        q = TabooQuery((1,), (3,), (0,))
        grid = TimeGrid(step=0.02, n_steps=2000)
        a, _ = taboo_cdf(nonsimple1d, q, grid)
        for lam in (0.5, 1.0, 2.0):
            numeric = laplace_stieltjes(a, lam)
            assert numeric == pytest.approx(laplace_taboo(nonsimple1d, q, lam), abs=1e-3)


def _full_grid_p(model, rs, times, n):
    """Reference midpoint sum of p(t; 0, r) over the whole (unfolded) torus grid."""
    ax = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
    theta = np.stack(np.meshgrid(*[ax] * model.d, indexing="ij"), -1).reshape(-1, model.d)
    w = np.cos(np.asarray(rs, dtype=float) @ theta.T)
    return w @ np.exp(np.outer(char_exponent_grid(model, theta), times)) / n**model.d


def _coupled_reference(kern, rhs1, rhs2):
    """The coupled 2x2 forward substitution the Toeplitz solver replaced:
    da + K * db = rhs1 - prefix sums, db + K * da = rhs2 - prefix sums."""
    n = len(rhs1)
    da, db = np.empty(n), np.empty(n)
    det = 1.0 - kern[0] * kern[0]
    sum_a = sum_b = 0.0
    for k in range(n):
        conv1 = kern[1 : k + 1][::-1] @ db[:k] if k else 0.0
        conv2 = kern[1 : k + 1][::-1] @ da[:k] if k else 0.0
        r1 = rhs1[k] - sum_a - conv1
        r2 = rhs2[k] - sum_b - conv2
        da[k] = (r1 - kern[0] * r2) / det
        db[k] = (r2 - kern[0] * r1) / det
        sum_a += da[k]
        sum_b += db[k]
    return np.cumsum(da), np.cumsum(db)


_TOEPLITZ_QUERIES = {"simple1d": TabooQuery((2,), (5,), (0,)), "nonsimple1d": TabooQuery((1,), (3,), (0,))}


@pytest.fixture(scope="module")
def volterra_kernels(simple1d, nonsimple1d):
    """Return kernels p(.;0,0) and taboo kernels 1 +- K of both d = 1 walks on 5003 steps."""
    grid = TimeGrid(step=0.05, n_steps=5003)
    kernels = {}
    for name, model in (("simple1d", simple1d), ("nonsimple1d", nonsimple1d)):
        kernels[f"p00 {name}"] = curves._grid_p_curves(model, (), grid, default_config(1))[(0,)][0::2]
        q = _TOEPLITZ_QUERIES[name]
        k = curves._midpoint_kernel(hitting_cdf(model, q.z, q.y, grid).values)
        kernels[f"1+K {name}"] = 1.0 + k
        kernels[f"1-K {name}"] = 1.0 - k
    return kernels


class TestToeplitzSolver:
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 1000, 5003])
    @pytest.mark.parametrize("kind", ["p00", "1+K", "1-K"])
    @pytest.mark.parametrize("walk", ["simple1d", "nonsimple1d"])
    def test_matches_dense_triangular_solve(self, volterra_kernels, walk, kind, n):
        kern = volterra_kernels[f"{kind} {walk}"][:n]
        rhs = np.random.default_rng(n).standard_normal(n)
        # the transpose of the lower-triangular Toeplitz matrix: solved with
        # trans="T", it reaches LAPACK in column-major order without a copy
        first_col = np.zeros(n)
        first_col[0] = kern[0]
        upper = scipy.linalg.toeplitz(first_col, kern)
        want = scipy.linalg.solve_triangular(upper, rhs, trans="T", check_finite=False)
        del upper
        got = curves._solve_first_kind(kern, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [1, 2, 7, 128, 1000])
    def test_conv_head_matches_direct_convolution(self, m):
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal(m + 3), rng.standard_normal(m // 2 + 1)
        np.testing.assert_allclose(
            curves._conv_head(a, b, m), np.convolve(a, b)[:m], rtol=0, atol=1e-13 * m
        )

    @pytest.mark.parametrize("walk", ["simple1d", "nonsimple1d"])
    def test_taboo_cdf_matches_coupled_forward_substitution(self, walk, request):
        model = request.getfixturevalue(walk)
        q = _TOEPLITZ_QUERIES[walk]
        grid = TimeGrid(step=0.05, n_steps=3000)
        a, b = taboo_cdf(model, q, grid)
        h_xy, h_xz, h_zy = (hitting_cdf(model, u, v, grid) for u, v in ((q.x, q.y), (q.x, q.z), (q.z, q.y)))
        want_a, want_b = _coupled_reference(
            curves._midpoint_kernel(h_zy.values), h_xy.values[1:], h_xz.values[1:]
        )
        assert np.max(np.abs(a.values[1:] - want_a)) <= 1e-12
        assert np.max(np.abs(b.values[1:] - want_b)) <= 1e-12

    def test_long_horizon_taboo_cdf(self, nonsimple1d):
        a, b = taboo_cdf(nonsimple1d, _TOEPLITZ_QUERIES["nonsimple1d"], TimeGrid(step=0.05, n_steps=100_000))
        assert a.residual <= 1e-12
        for cur in (a, b):
            assert np.min(np.diff(cur.values)) >= -1e-9
            assert np.max(cur.values) <= cur.limit + 1e-6


class TestBatchedPCurves:
    @pytest.mark.parametrize(
        "walk, n", [("nonsimple1d", 64), ("walk2d", 32), ("diagonal2d", 32), ("walk3d", 32)]
    )
    @pytest.mark.parametrize(
        "times",
        [np.linspace(0.0, 4.0, 41), 0.25 + 0.1 * np.arange(37), np.array([1.5]),
         np.array([0.3, 0.7]), 0.2 + 0.08 * np.arange(7**2 + 1)],  # B^2 + 1: a partial last block
    )
    def test_matches_full_grid_reference(self, walk, n, times, request, monkeypatch):
        model = request.getfixturevalue(walk)
        d = model.d
        rs = ((0,) * d, (1,) + (0,) * (d - 1), (3,) + (-2,) * (d - 1))
        # a floor and a cap of n points per axis: the grid is n
        monkeypatch.setattr(quadrature, "_LADDER_FLOOR", n)
        monkeypatch.setattr(quadrature, "_TORUS_POINTS", n**d)
        cfg = QuadratureConfig(rel_tol=1e-6)
        got, _ = p_curves(model, rs, times, cfg)
        assert got.shape == (3, len(times))
        np.testing.assert_allclose(got, _full_grid_p(model, rs, times, n), rtol=0, atol=1e-13)

    def test_multi_block_grid_matches_full_grid_reference(self, walk3d, monkeypatch):
        # several blocks of the half grid, each contracted in several sub-blocks of points
        monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 4096)
        monkeypatch.setattr(quadrature, "_EXP_BLOCK", 1 << 12)
        rs = ((0, 0, 0), (1, 0, 0), (2, -1, 3))
        times = np.linspace(0.0, 4.0, 41)
        assert len(list(quadrature._residue_grid(4, 16, False))) > 1
        got = quadrature._p_grid_sum(walk3d, rs, times, 32)
        np.testing.assert_allclose(got, _full_grid_p(walk3d, rs, times, 32), rtol=0, atol=1e-13)

    def test_simple_walk_matches_bessel(self):
        # p(t; 0, r) = exp(-at) I_r(at) on the simple walk; up to a t = 10^4 / a
        # where the alias r - n of r = 300 stays below 1e-19
        a = 0.8
        model = simple_walk_1d(a)
        times = np.linspace(0.0, 1e4 / a, 101)
        got, _ = p_curves(model, ((17,), (300,)), times, default_config(1))
        want = scipy.special.ive([[17], [300]], a * times)
        assert want[1, -1] > 1e-5
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("walk, rs, times", [
        ("diagonal2d", ((0, 0), (1, 0), (1, 1), (3, -2)), np.linspace(0.0, 5.0, 11)),
        ("skewed3d", ((0, 0, 0), (1, 0, 0), (1, 1, 1), (1, -1, 0), (3, -2, 1)), np.linspace(0.0, 0.6, 7)),
    ])
    def test_diagonal_walks_match_the_embedded_chain(self, walk, rs, times, request):
        # p(t; 0, r) = sum_k Poisson(a t; k) P(S_k = r), S_k the position after k
        # jumps, by k steps of the jump law on a box that holds every K-jump path,
        # P(N_t > K) < 1e-16: no phi, no torus
        model = request.getfixturevalue(walk)
        a, d = model.total_rate, model.d
        big_k = next(k for k in range(1000) if scipy.special.pdtrc(k, a * times[-1]) < 1e-16)
        reach = big_k * int(np.abs(model.support).max())
        prob = np.zeros((2 * reach + 1,) * d)
        prob[(reach,) * d] = 1.0
        want = np.zeros((len(rs), len(times)))
        for k in range(big_k + 1):
            at_r = np.array([prob[tuple(reach + c for c in r)] for r in rs])
            want += np.outer(at_r, np.exp(-a * times) * (a * times) ** k / math.factorial(k))
            prob = sum(rate / a * np.roll(prob, z, axis=tuple(range(d))) for z, rate in model.jumps)
        got, err = p_curves(model, rs, times, default_config(d))
        assert np.max(np.abs(got - want)) <= err

    def test_far_displacement_does_not_alias(self, simple1d):
        # on 256 points per axis r = 1000 aliased to r = 24, and the curve
        # ended at H_{0,24}(100) = 0.0166 instead of about 1.7e-17
        curve = hitting_cdf(simple1d, (0,), (1000,), TimeGrid(0.05, 2000))
        assert np.max(np.abs(curve.values)) <= 1e-12
        times = 10.0 * np.arange(1, 11)
        row = p_curves(simple1d, ((1000,),), times, default_config(1))[0][0]
        want = [transition_probability(simple1d, t, (0,), (1000,)).value for t in times]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

    def test_near_displacements_keep_their_grid(self):
        # the floor of p-curves and residue ladders: the first 16 * 2^k >= 4 max|r_j|
        def floor(rs):
            return quadrature._LADDER_FLOOR << quadrature._floor_level(rs)

        assert floor(((0,), (64,), (-3,))) == 256
        assert floor(((64, -64),)) == 256
        assert floor(((16, -2, 0),)) == 64
        assert floor(((1000,),)) == 4096

    def test_taboo_cdf_makes_one_pass(self, walk3d, monkeypatch):
        # the aliasing bound sizes the grid before any sum: one grid sum per curve
        calls = []
        grid_sum = quadrature._p_grid_sum

        def spy(model, rs, times, n):
            calls.append((len(rs), len(times), n))
            return grid_sum(model, rs, times, n)

        monkeypatch.setattr(quadrature, "_p_grid_sum", spy)
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        # the verify curve of the nearest-neighbour walk (t <= 40): the bound
        # is 2.9e-6 at n = 16 and 2.6e-15 at n = 32, so the floor 16 doubles once
        taboo_cdf(walk3d, q, TimeGrid(step=0.05, n_steps=800))
        assert calls == [(4, 1600, 32)]
        # a floor of 32 on the grid of t <= 2 (the bound takes 16 there); the
        # limits were read above, so no residue ladder starts at that floor
        calls.clear()
        monkeypatch.setattr(quadrature, "_LADDER_FLOOR", 32)
        cfg = QuadratureConfig(rel_tol=1e-6)
        taboo_cdf(walk3d, q, TimeGrid(step=0.05, n_steps=40), cfg)
        assert calls == [(4, 80, 32)]

    def test_taboo_cdf_reuses_the_zy_solve(self, nonsimple1d, monkeypatch):
        grid = TimeGrid(step=0.05, n_steps=200)
        q = TabooQuery((1,), (3,), (0,))
        yz = hitting_cdf(nonsimple1d, q.y, q.z, grid)
        zy = hitting_cdf(nonsimple1d, q.z, q.y, grid)
        assert np.array_equal(yz.values, zy.values) and yz.limit == zy.limit
        solves = []
        hitting_from = curves._hitting_from
        monkeypatch.setattr(
            curves, "_hitting_from", lambda *args: solves.append(args[1:3]) or hitting_from(*args)
        )
        taboo_cdf(nonsimple1d, q, grid)
        assert len(solves) == 3

    def test_unconverged_curve_raises(self, walk3d, monkeypatch):
        monkeypatch.setattr(quadrature, "_TORUS_POINTS", 32**3)  # the grids 16 and 32
        cfg = QuadratureConfig()
        with pytest.raises(NotConverged) as err:
            hitting_cdf(walk3d, (0, 0, 0), (0, 0, 0), TimeGrid(step=0.1, n_steps=3000), cfg)
        assert err.value.est_error > cfg.rel_tol
        # the message names the grid and its error; the curve stays out of it
        assert str(err.value) == f"p-curve refinement limit reached: est_error={err.value.est_error:.3e}"
        assert isinstance(err.value.value, np.ndarray) and err.value.value.shape[0] == 1


class TestLaplace:
    def test_hitting_closed_form_1d(self, simple1d):
        got = laplace_hitting(simple1d, [0], [1], 1.0)
        assert got == pytest.approx(2 - math.sqrt(3), rel=1e-7)
        got_ret = laplace_hitting(simple1d, [0], [0], 1.0)
        want = 1 - 1 / (2 * g1d_closed(1.0, 0))
        assert got_ret == pytest.approx(want, rel=1e-7)

    def test_large_lambda_vanishes(self, simple1d):
        assert laplace_hitting(simple1d, [0], [0], 1e3) < 0.05

    def test_taboo_zero_case(self, simple1d):
        q = TabooQuery((-1,), (2,), (0,))
        for lam in (0.3, 1.0, 3.0):
            assert abs(laplace_taboo(simple1d, q, lam)) <= 1e-10

    def test_taboo_limit_trend_d2(self, walk2d):
        # logarithmic approach: the gap is ~ C_2/|ln lambda|, so a 0.05
        # agreement for C_2 = 1 needs lambda below e^-20
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        from taboowalk import taboo_limit

        lim = taboo_limit(walk2d, q)
        gap9 = abs(laplace_taboo(walk2d, q, 1e-9) - lim)
        gap4 = abs(laplace_taboo(walk2d, q, 1e-4) - lim)
        assert gap9 < 0.05
        assert gap9 < gap4

    def test_monotone_in_lambda(self, nonsimple1d):
        q = TabooQuery((1,), (3,), (0,))
        lams = nonsimple1d.a * 2.0 ** -np.array(list(_LADDER_KS), dtype=float)
        vals = [laplace_taboo(nonsimple1d, q, lam) for lam in lams]
        # lams descend, so the transform values must ascend
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_lambda(self, simple1d, walk2d, walk3d):
        # lambda = 0 is the limit, finite only for transient walks (d >= 3)
        with pytest.raises(ValueError):
            laplace_hitting(simple1d, [0], [1], 0.0)
        with pytest.raises(ValueError):
            laplace_taboo(walk2d, TabooQuery((1, 0), (0, 1), (0, 0)), 0.0)
        with pytest.raises(ValueError):
            laplace_hitting(walk3d, (0, 0, 0), (1, 0, 0), -1e-3)


class TestTailExtract:
    @pytest.mark.parametrize("query", [((1,), (3,), (0,)), ((0,), (3,), (0,)), ((3,), (3,), (0,))])
    def test_d1_within_5_percent(self, nonsimple1d, query):
        q = TabooQuery(*query)
        est = tail_extract(nonsimple1d, q)
        assert est.order is TailOrder.INVERSE_SQRT_T
        closed = c1_constant(nonsimple1d, q.rel_x, q.rel_y)
        assert abs(est.constant - closed) <= 0.05 * closed

    def test_preconditions(self, simple1d, walk3d):
        with pytest.raises(InvalidQuery):
            tail_extract(simple1d, TabooQuery((2,), (5,), (0,)))
        with pytest.raises(InvalidQuery):
            tail_extract(walk3d, TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0)))

    def test_unstable_ladder_detected(self, nonsimple1d, monkeypatch):
        import taboowalk.curves as curves_mod

        calls = {"n": 0}
        real = curves_mod.laplace_taboo

        def noisy(model, q, lam, cfg=None):
            calls["n"] += 1
            return real(model, q, lam, cfg) + (0.02 if calls["n"] % 2 else -0.02)

        monkeypatch.setattr(curves_mod, "laplace_taboo", noisy)
        with pytest.raises(ExtrapolationUnstable) as exc:
            curves_mod.tail_extract(nonsimple1d, TabooQuery((1,), (3,), (0,)))
        assert exc.value.estimates is not None


@pytest.fixture(scope="module")
def plus_curve(simple1d):
    grid = TimeGrid(step=0.02, n_steps=1500)
    a, _ = taboo_cdf(simple1d, TabooQuery((4,), (5,), (0,)), grid)
    return a


def _first_jump_reference(model, q, grid):
    """(H^-_{x,y,z}, H^-_{x,z,y}) on the grid by the first jump w from x:
    H^-_{x,y,z} = sum_w (a(w)/a) [1{x+w = y} + 1{x+w not in {y, z}} H_{x+w,y,z}],
    and the same with y and z exchanged; plus curves only, exact at t = 0."""
    refs = np.zeros((2, grid.n_steps + 1))
    for w, rate in model.jumps:
        nxt = tuple(a + b for a, b in zip(q.x, w))
        for ref, target in zip(refs, (q.y, q.z)):
            if nxt == target:
                ref += rate / model.a
        if nxt not in (q.y, q.z):
            pair = taboo_cdf(model, TabooQuery(nxt, q.y, q.z), grid)
            refs += rate / model.a * np.array([c.values for c in pair])
    return refs


class TestMinusCurves:

    def test_limit_preserved(self, simple1d, plus_curve):
        minus = minus_from_plus(plus_curve, simple1d, (4,), (5,))
        assert minus.limit == plus_curve.limit
        assert minus.variant is Variant.MINUS

    def test_atom_recovered(self, simple1d, plus_curve):
        minus = minus_from_plus(plus_curve, simple1d, (4,), (5,))
        assert abs(minus.values[0] - 0.5) <= 1e-2

    def test_reconvolution_recovers_plus(self, simple1d, plus_curve):
        # plus(t) = int_0^t minus(t-u) a e^{-a u} du
        minus = minus_from_plus(plus_curve, simple1d, (4,), (5,))
        h = plus_curve.grid.step
        a = simple1d.a
        u_half = (np.arange(plus_curve.grid.n_steps) + 0.5) * h
        dens = a * np.exp(-a * u_half) * h
        m_half = 0.5 * (minus.values[:-1] + minus.values[1:])
        recon = np.array(
            [np.dot(m_half[: k + 1][::-1], dens[: k + 1]) for k in range(len(u_half))]
        )
        assert np.max(np.abs(recon - plus_curve.values[1:])) <= 1e-3

    def test_jump_decomposition_identity(self, nonsimple1d):
        # the minus deficit is the jump-probability mixture of the plus
        # deficits started from the first-jump destinations
        grid = TimeGrid(step=0.02, n_steps=1500)
        q = TabooQuery((1,), (3,), (0,))
        plus, _ = taboo_cdf(nonsimple1d, q, grid)
        minus = minus_from_plus(plus, nonsimple1d, q.x, q.y)
        parts = {}
        for r in (2, -1):
            cur, _ = taboo_cdf(nonsimple1d, TabooQuery((r,), (3,), (0,)), grid)
            parts[r] = cur
        idx = [200, 700, 1400]
        for k in idx:
            lhs = minus.limit - minus.values[k]
            rhs = 0.4 * (parts[2].limit - parts[2].values[k]) + 0.1 * (
                parts[-1].limit - parts[-1].values[k]
            )
            assert lhs == pytest.approx(rhs, abs=2e-3)

    @pytest.mark.parametrize(
        "walk, q",
        [
            ("nonsimple1d", TabooQuery((2,), (5,), (0,))),
            ("diagonal2d", TabooQuery((1, 0), (0, 1), (0, 0))),
            ("walk3d", TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))),
        ],
    )
    def test_first_jump_reference_second_order(self, request, walk, q):
        # exact atom at t = 0, and an error that falls by ~4 when the step halves
        model = request.getfixturevalue(walk)
        errs = []
        for h in (0.05, 0.025):
            grid = TimeGrid(step=h / model.a, n_steps=round(10 / h))
            plus = taboo_cdf(model, q, grid)
            minus = [minus_from_plus(c, model, q.x, t) for c, t in zip(plus, (q.y, q.z))]
            refs = _first_jump_reference(model, q, grid)
            for m, ref in zip(minus, refs):
                assert m.values[0] == ref[0]
            errs.append([np.max(np.abs(m.values - ref)) for m, ref in zip(minus, refs)])
        for coarse, fine in zip(*errs):
            assert 3.5 <= coarse / fine <= 4.5

    def test_noise_diagnostic(self, simple1d, plus_curve):
        # inject sawtooth noise above the 1% threshold
        noisy_vals = plus_curve.values.copy()
        noisy_vals[1::2] += 0.01
        noisy = type(plus_curve)(
            grid=plus_curve.grid, values=noisy_vals, limit=plus_curve.limit
        )
        with pytest.raises(StepTooCoarse):
            minus_from_plus(noisy, simple1d, (4,), (5,))
