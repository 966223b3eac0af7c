import collections
import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipkm1, ive

from taboowalk import (
    DivergentGreenFunction,
    NotConverged,
    QuadratureConfig,
    TabooQuery,
    char_exponent,
    green_function,
    green_values,
    nearest_neighbor_walk,
    rho,
    simple_walk_1d,
    spectral_scalars,
    taboo_limit,
    taboo_tail,
    tilde_gamma,
    transition_probability,
    trig_identity_check,
    validate_model,
)
from taboowalk import kernels
from taboowalk import quadrature
from taboowalk.kernels import canonical_diff, default_config

# Watson's integral: G_0(0,0) for the 6-neighbor rate-1/6 walk on Z^3
WATSON = 1.5163860591528040


def bessel_series_p00(t, terms=60):
    """p(t;0,0) for the rate-1 nearest-neighbor walk: e^-t I_0(t) as a series."""
    total = 0.0
    for k in range(terms):
        total += (t / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return math.exp(-t) * total


def g1d_closed(lam, x, a=1.0):
    """1d nearest-neighbor Green's function: r^|x| / sqrt(lam (lam + 2a))."""
    s = math.sqrt(lam * (lam + 2 * a))
    return ((lam + a - s) / a) ** abs(x) / s


class TestTransitionProbability:
    def test_time_zero_is_delta(self, simple1d, walk2d, walk3d, monkeypatch):
        import taboowalk.quadrature as quad

        def no_grid(*args):
            raise AssertionError("a grid was summed for p(0; x, y)")

        monkeypatch.setattr(quad, "_p_grid_sum", no_grid)
        assert transition_probability(simple1d, 0.0, [0], [0]).value == 1.0
        assert transition_probability(simple1d, 0.0, [0], [3]).value == 0.0
        assert transition_probability(walk2d, 0.0, [1, 1], [1, 1]).value == 1.0
        for y, want in (((0, 0, 0), 1.0), ((40, -3, 2), 0.0)):
            got = transition_probability(walk3d, 0.0, (0, 0, 0), y)
            assert (got.value, got.est_error) == (want, 0.0)

    def test_bessel_oracle(self, simple1d):
        for t in (0.3, 1.0, 2.5):
            got = transition_probability(simple1d, t, [0], [0]).value
            assert got == pytest.approx(bessel_series_p00(t), rel=1e-10)

    def test_symmetry_exact(self, simple1d, walk2d):
        v1 = transition_probability(simple1d, 1.2, [2], [5]).value
        v2 = transition_probability(simple1d, 1.2, [5], [2]).value
        v3 = transition_probability(simple1d, 1.2, [0], [3]).value
        v4 = transition_probability(simple1d, 1.2, [0], [-3]).value
        assert v1 == v2 == v3 == v4
        w1 = transition_probability(walk2d, 0.7, [1, 2], [-1, 3]).value
        w2 = transition_probability(walk2d, 0.7, [-1, 3], [1, 2]).value
        assert w1 == w2

    @pytest.mark.parametrize("model_name,t", [("simple1d", 120.0), ("walk2d", 80.0)])
    def test_local_limit_asymptotics(self, model_name, t, request):
        # p(t;x,y) ~ gamma_d / t^(d/2) once the relative correction
        # (tilde_gamma / gamma_d) / t is below 5%
        model = request.getfixturevalue(model_name)
        sc = spectral_scalars(model)
        x = (0,) * model.d
        y = tuple([1] + [0] * (model.d - 1))
        assert tilde_gamma(model, y) / sc.gamma_d / t < 0.05
        lead = sc.gamma_d / t ** (model.d / 2.0)
        got = transition_probability(model, t, x, y).value
        assert abs(got - lead) <= 0.10 * lead

    def test_normalization(self, simple1d):
        for t in (0.5, 1.0, 2.0):
            total = sum(
                transition_probability(simple1d, t, [0], [y]).value
                for y in range(-30, 31)
            )
            assert 1.0 - 1e-8 <= total <= 1.0 + 1e-6

    def test_chapman_kolmogorov(self, simple1d):
        s = t = 0.5
        for y in range(-3, 4):
            lhs = transition_probability(simple1d, s + t, [0], [y]).value
            rhs = sum(
                transition_probability(simple1d, s, [0], [z]).value
                * transition_probability(simple1d, t, [z], [y]).value
                for z in range(-30, 31)
            )
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_negative_time_rejected(self, simple1d):
        with pytest.raises(ValueError):
            transition_probability(simple1d, -0.1, [0], [0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, simple1d, t):
        # a bad time is a caller error, not a quadrature failure
        with pytest.raises(ValueError):
            transition_probability(simple1d, t, [0], [0])

    def test_not_converged(self, simple1d, monkeypatch):
        # the grids 64 and 128 alias r = 15 onto r - 128, which p(1000; 0, .) still reaches
        monkeypatch.setattr(quadrature, "_TORUS_POINTS", 128)
        cfg = QuadratureConfig(rel_tol=1e-12)
        with pytest.raises(NotConverged) as exc:
            transition_probability(simple1d, 1000.0, [0], [15], cfg)
        assert exc.value.value is not None


class TestGreenFunction:
    def test_1d_closed_form(self, simple1d):
        # accuracy is relative to G_lam(0,0); far values decay exponentially
        for lam in (1e-9, 0.3, 1.0, 4.0):
            scale = g1d_closed(lam, 0)
            for x in (0, 1, 3):
                got = green_function(simple1d, lam, [0], [x]).value
                want = g1d_closed(lam, x)
                assert abs(got - want) <= 1e-8 * scale

    @pytest.mark.parametrize("k", [0, 8, 16, 30])
    def test_1d_against_adaptive_quadrature(self, nonsimple1d, k):
        # G_lam(0, r) = (1/pi) int_0^pi cos(r t) / (lam - phi(t)) dt, with the
        # peak at t = 0, of width ~ sqrt(lam), split off
        lam = nonsimple1d.a * 2.0**-k
        edges = (0.0, math.sqrt(lam), math.pi)

        def want(r):
            def f(t):
                return math.cos(r * t) / (lam - char_exponent(nonsimple1d, [t]))

            parts = [quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:])]
            return math.fsum(parts) / math.pi

        scale = want(0)
        for r in (0, 1, 2, 7):
            assert abs(green_function(nonsimple1d, lam, [0], [r]).value - want(r)) <= 1e-8 * scale

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nonfinite_lambda_rejected(self, simple1d, walk3d, lam):
        # nan fails every comparison, so a one-sided check lets it through
        for model in (simple1d, walk3d):
            with pytest.raises(ValueError):
                green_function(model, lam, (0,) * model.d, (0,) * model.d)

    def test_divergent_low_dimension(self, simple1d, walk2d):
        with pytest.raises(DivergentGreenFunction):
            green_function(simple1d, 0.0, [0], [0])
        with pytest.raises(DivergentGreenFunction):
            green_function(walk2d, 0.0, [0, 0], [1, 0])

    def test_shell_ladder_not_converged(self, walk2d):
        # rel_tol below rounding: no residue ladder can meet it
        with pytest.raises(NotConverged) as exc:
            green_function(walk2d, 0.5, (0, 0), (3, 1), QuadratureConfig(rel_tol=1e-15))
        assert math.isfinite(exc.value.value) and math.isfinite(exc.value.est_error)

    def test_watson_3d(self, walk3d):
        zero = [0, 0, 0]
        got = green_function(walk3d, 0.0, zero, zero)
        assert abs(got.value - WATSON) <= min(got.est_error, 1e-10)
        # backward equation at the origin: G_0(0,e1) = G_0(0,0) - 1
        got_e1 = green_function(walk3d, 0.0, zero, [1, 0, 0]).value
        assert got_e1 == pytest.approx(WATSON - 1.0, rel=2e-5)

    def test_symmetry_exact(self, walk2d):
        a = green_function(walk2d, 0.5, [1, 2], [0, 0]).value
        b = green_function(walk2d, 0.5, [0, 0], [1, 2]).value
        c = green_function(walk2d, 0.5, [0, 0], [-1, -2]).value
        assert a == b == c

    def test_monotone_in_lambda(self, simple1d, walk2d):
        for model, point in ((simple1d, [1]), (walk2d, [1, 0])):
            zero = [0] * model.d
            vals = [
                green_function(model, lam, zero, point).value
                for lam in (0.25, 0.5, 1.0, 2.0, 4.0)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("y", [0, 1])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_laplace_transform_of_p(self, simple1d, lam, y):
        # time-domain quadrature of exp(-lam t) p(t;0,y) against G_lam
        from scipy.integrate import quad

        def integrand(t):
            return math.exp(-lam * t) * transition_probability(simple1d, t, [0], [y]).value

        est, _ = quad(integrand, 0.0, 120.0, limit=300)
        want = green_function(simple1d, lam, [0], [y]).value
        assert est == pytest.approx(want, rel=1e-4)


def product_form_green(x, lam, a=1.0):
    """G_lam(0, x) of the nearest-neighbour walk of total rate a on Z^d: its heat
    kernel is prod_j exp(-a t/d) I_{x_j}(a t/d), so G_lam is the integral over t of
    exp(-lam t) prod_j ive(x_j, a t/d), by adaptive quadrature; no grid enters."""
    d = len(x)

    def f(t):
        return math.exp(-lam * t) * float(np.prod(ive(np.abs(x), a * t / d)))

    edges = (0.0, 1.0, 10.0, 100.0, 1e3, 1e4, math.inf)
    return math.fsum(quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
                     for lo, hi in zip(edges, edges[1:]))


# diagonal jumps, and |z_3| = 2: four roots of P(w) from the companion matrix
SKEWED_3D = validate_model(3, {(1, 0, 0): 0.15, (0, 1, 0): 0.15, (0, 0, 1): 0.1, (1, 1, 0): 0.05,
                               (0, 1, -1): 0.05, (0, 0, 2): 0.05})


class TestResidueLadders:
    """G_lambda in d >= 2 from the residue ladders over theta' = (theta_1, ..., theta_{d-1})."""

    @pytest.mark.parametrize("lam", [0.0, 2.0**-16, 0.5])
    @pytest.mark.parametrize("d", [3, 4])
    def test_product_form_reference(self, d, lam):
        # the 4-D walk runs the h^6, h^8 ladder at lam = 0
        xs = [(0,) * d, (1,) + (0,) * (d - 1), (2, -1, 3) + (0,) * (d - 3)]
        for x, got in zip(xs, green_values(nearest_neighbor_walk(d), lam, xs)):
            assert abs(got.value - product_form_green(x, lam)) <= got.est_error, x

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_poisson_identity(self, lam):
        # (lam - L) G_lam = delta_0: a wrong phase z'.theta', root or scale fails it
        model, a = SKEWED_3D, SKEWED_3D.a
        for v in ((0, 0, 0), (1, 0, 0), (1, -1, 2)):
            nbrs = [tuple(c + dz for c, dz in zip(v, z)) for z, _ in model.jumps]
            g, *gs = green_values(model, lam, [v, *nbrs])
            residual = (lam + a) * g.value - math.fsum(r * h.value for (_, r), h in zip(model.jumps, gs))
            tol = (lam + a) * g.est_error + math.fsum(r * h.est_error for (_, r), h in zip(model.jumps, gs))
            assert abs(residual - (0.0 if any(v) else 1.0)) <= tol, v

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1e-3, 1.0])
    def test_2d_graded_grid_against_elliptic_k(self, walk2d, lam, monkeypatch):
        # G_lam(0, 0) = (2/pi) K(1 / (1 + lam)^2) / (1 + lam) for the rate-1 nearest-neighbour walk
        grids, ladder = [], kernels.axis_integral

        def spy(name, means, rs, *args):
            return ladder(name, lambda n, ks: grids.append(n) or means(n, ks), rs, *args)

        monkeypatch.setattr(kernels, "axis_integral", spy)
        kernels._green_cached.cache_clear()
        want = (2.0 / math.pi) / (1.0 + lam) * ellipkm1(lam * (2.0 + lam) / (1.0 + lam) ** 2)
        got = green_function(walk2d, lam, (0, 0), (0, 0))
        assert abs(got.value - want) <= min(got.est_error, 1e-8 * want)
        # the 1024-point sum of lam = 1e-12 is 5e-12 off, but its gap to 512 is 4e-7
        assert max(grids) <= (2048 if lam < 1e-9 else 1024)

    @pytest.mark.parametrize("x", [(40, 0, 0), (0, 0, 60)])
    def test_far_3d_green_follows_its_far_field(self, walk3d, x):
        # G_0(x) = 3 / (2 pi |x|) (1 + O(|x|^-2)) for the rate-1 nearest-neighbour walk
        r = math.hypot(*x)
        got = green_function(walk3d, 0.0, (0, 0, 0), x)
        assert abs(got.value * 2.0 * math.pi * r / 3.0 - 1.0) <= r**-2

    def test_3d_green_0_stops_at_n_64(self, walk3d):
        # theta' = u - sin u ~ u^3 / 6 turns the 1/|theta'| singularity of G_0
        # into a midpoint error in h^3, h^5: every near entry stops at n = 64
        xs = [(0, 0, 0), (1, 0, 0), (1, -1, 0)]
        _clear_value_caches()
        with _grids_per_displacement() as grids:
            got = green_values(walk3d, 0.0, xs)
        assert all(grids[x] == [16, 32, 64] for x in xs), dict(grids)
        assert abs(got[0].value - WATSON) <= got[0].est_error

    def test_4d_green_0_stops_at_n_32(self):
        # in d = 4 the graded error runs in h^6, h^8: every near entry stops at n = 32
        model, xs = nearest_neighbor_walk(4), [(0, 0, 0, 0), (1, 0, 0, 0)]
        _clear_value_caches()
        with _grids_per_displacement() as grids:
            got = green_values(model, 0.0, xs)
        assert all(grids[x] == [16, 32] for x in xs), dict(grids)
        last = kernels._residue_sums(model, 0.0, 32, xs, True)
        for x, g, (j, _) in zip(xs, got, last):
            want = product_form_green(x, 0.0)
            assert abs(g.value - want) <= g.est_error, x
            # removing h^6 leaves a tenth of the error of the last sum (40x less);
            # removing h^4 instead triples it
            assert abs(g.value - want) <= 0.1 * abs(j - want), x

    def test_clamped_far_3d_green_0_is_never_silently_wrong(self, walk3d):
        # the floor of (100, 0, 0), 1024 points, is lowered to 256 so that the
        # ladder has room for h^3 and h^5: it meets the far field or fails
        x = (100, 0, 0)
        _clear_value_caches()
        with _grids_per_displacement() as grids:
            try:
                got = green_function(walk3d, 0.0, (0, 0, 0), x).value
            except NotConverged:
                got = None
        assert grids[x][0] == 256
        assert got is None or abs(got * 2.0 * math.pi * 100.0 / 3.0 - 1.0) <= 100.0**-2

    def test_floor_clamped_to_the_top_grid_sums_two_grids(self, walk3d, monkeypatch):
        # with no Richardson powers (lam > 0) a floor above the cap is lowered one
        # level below it, so the entry has a gap to judge: n = 64 and 128 here
        monkeypatch.setattr(quadrature, "_GRID_POINTS", 1 << 15)
        x = (65, 0, 0)
        _clear_value_caches()
        with _grids_per_displacement() as grids:
            try:
                green_function(walk3d, 0.5, (0, 0, 0), x)
            except NotConverged as exc:
                assert math.isfinite(exc.est_error)
        assert grids[x] == [64, 128]


class TestRho:
    def test_simple_walk_absolute_value(self, simple1d):
        for x in range(-10, 11):
            assert rho(simple1d, [x]) == pytest.approx(abs(x) if x else 1.0, abs=1e-6)

    def test_zero_convention(self, walk2d, walk3d):
        assert rho(walk2d, [0, 0]) == 1.0
        assert rho(walk3d, [0, 0, 0]) == 1.0

    def test_2d_potential_kernel_values(self, walk2d):
        assert rho(walk2d, [1, 0]) == pytest.approx(1.0, rel=1e-8)
        assert rho(walk2d, [0, 1]) == pytest.approx(1.0, rel=1e-8)
        assert rho(walk2d, [1, 1]) == pytest.approx(4.0 / math.pi, rel=1e-8)
        assert rho(walk2d, [2, 0]) == pytest.approx(4.0 - 8.0 / math.pi, rel=1e-7)

    def test_2d_graded_ladder_meets_exact_values(self, walk2d):
        # the potential kernel of the simple random walk on Z^2 in closed form
        # (Spitzer, Principles of Random Walk, section 15)
        exact = {(1, 0): 1.0, (1, 1): 4.0 / math.pi, (2, 0): 4.0 - 8.0 / math.pi, (2, 1): 8.0 / math.pi - 1.0,
                 (2, 2): 16.0 / (3.0 * math.pi), (3, 0): 17.0 - 48.0 / math.pi,
                 (3, 1): 92.0 / (3.0 * math.pi) - 8.0, (3, 2): 1.0 + 8.0 / (3.0 * math.pi)}
        for r, (value, err) in zip(exact, kernels._rho_cached(walk2d, 1e-8, tuple(exact))):
            assert abs(value - exact[r]) <= err, r

    def test_2d_entries_stop_at_their_second_grid(self, diagonal2d, monkeypatch):
        # the graded grid turns the |theta_1| cusp into |u|^5: the gaps fall about
        # 64x per doubling, so each entry meets 1e-8 on the grid after its floor
        grids = _spy_residue_grids(monkeypatch)
        for r, want in [((1, 0), [16, 32]), ((3, -1), [32, 64]), ((75, -5), [1024, 2048])]:
            _clear_value_caches()
            grids.clear()
            kernels.rho_values(diagonal2d, [r])
            assert grids[r] == want, r

    @pytest.mark.parametrize("x", [(20, 0), (50, 0), (30, -20)])
    def test_2d_log_asymptote(self, diagonal2d, x):
        # rho(x) = 2 a gamma_2 ln|x|_Q + kappa + O(|x|^-2) (Fukai & Uchiyama,
        # Ann. Probab. 1996): doubling x adds 2 a gamma_2 ln 2
        c = 2.0 * diagonal2d.a * spectral_scalars(diagonal2d).gamma_d
        gap = rho(diagonal2d, tuple(2 * v for v in x)) - rho(diagonal2d, x)
        assert abs(gap - c * math.log(2.0)) <= 1e-6

    def test_positive_and_even(self, nonsimple1d, walk2d):
        assert rho(nonsimple1d, [1]) > 0
        assert rho(nonsimple1d, [2]) == rho(nonsimple1d, [-2])
        assert rho(walk2d, [2, -1]) == rho(walk2d, [-2, 1]) > 0

    def test_3d_equals_green_difference(self, walk3d):
        # for transient walks rho_d(x) = a (G_0(0,0) - G_0(0,x))
        zero = [0, 0, 0]
        for x in ([1, 0, 0], [1, 1, 0]):
            g_diff = (
                green_function(walk3d, 0.0, zero, zero).value
                - green_function(walk3d, 0.0, zero, x).value
            )
            assert rho(walk3d, x) == pytest.approx(walk3d.a * g_diff, rel=1e-5)

    @pytest.mark.parametrize("walk, x", [("nonsimple1d", (3,)), ("walk2d", (2, 1)), ("walk3d", (1, 1, 0)),
                                         ("crossed2d", (1, 0)), ("long2d", (1, -1))])
    def test_generator_equation(self, walk, x, request):
        # rho~ = rho with rho~(0) = 0 solves sum_z a(z) rho~(v + z) - a rho~(v) = a delta_{v,0};
        # no Green's function enters this check
        model = request.getfixturevalue(walk)
        tol = 1e-8 if model.d <= 2 else 1e-6

        def rt(v):
            return rho(model, v) if any(v) else 0.0

        for v in ((0,) * model.d, x):
            terms = [rate * rt(tuple(a + b for a, b in zip(v, z))) for z, rate in model.jumps]
            lhs = math.fsum(terms) - model.a * rt(v)
            want = 0.0 if any(v) else model.a
            assert abs(lhs - want) <= tol * math.fsum(terms)


def rho_asymptote_1d(model):
    """(slope, beta) of rho(x) = slope |x| + beta + O(|zeta|^|x|), finite-range d = 1.

    slope = a/B with B = sum a(z) z^2 (Spitzer, Principles of Random Walk,
    sections 28-29); beta = (a/pi) int_0^pi [1/(-phi) - 2/(B t^2)] dt
    - 2a/(pi^2 B), integrated adaptively, independently of the grids.
    """
    a = model.total_rate
    b = float(sum(r * z[0] ** 2 for z, r in model.jumps))
    b4 = float(sum(r * z[0] ** 4 for z, r in model.jumps))

    def f(t):
        if t < 1e-3:  # series limit, avoids cancellation
            return b4 / (6.0 * b * b)
        return 1.0 / -char_exponent(model, [t]) - 2.0 / (b * t * t)

    integral, _ = quad(f, 0.0, math.pi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return a / b, (a / math.pi) * integral - 2.0 * a / (math.pi**2 * b)


NONSIMPLE_1D = validate_model(1, {(1,): 0.4, (2,): 0.1})
FAR = st.integers(64, 10**4).flatmap(lambda m: st.sampled_from([m, -m]))


class TestFarDisplacements1d:
    """Displacements far beyond the default grid: the torus grid starts at 4 |x|."""

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(-(10**4), 10**4).filter(bool))
    @example(x=5000)
    def test_simple_walk_rho_is_abs(self, x):
        assert rho(simple_walk_1d(), (x,)) == pytest.approx(abs(x), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(x=FAR)
    @example(x=3949)
    def test_nonsimple_rho_follows_its_asymptote(self, x):
        slope, beta = rho_asymptote_1d(NONSIMPLE_1D)
        want = slope * abs(x) + beta
        assert rho(NONSIMPLE_1D, (x,)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("x", [64, 1000, 5000])
    def test_nonsimple_rho_on_its_asymptote_to_rounding(self, x):
        # the residue sum leaves |zeta|^|x| of the O(1) part, far below rounding here
        slope, beta = rho_asymptote_1d(NONSIMPLE_1D)
        assert rho(NONSIMPLE_1D, (x,)) == pytest.approx(slope * x + beta, rel=1e-12)

    @pytest.mark.parametrize("a", [1.0, 0.37, 2.7, 1e-3])
    def test_simple_walk_rho_is_exactly_abs(self, a):
        # R = 1 leaves no root inside the circle: rho(x) = |x| a/B with a and B the same sum
        model = simple_walk_1d(a)
        for x in [*range(-40, 0), *range(1, 41), 5000, -123457]:
            assert rho(model, (x,)) == float(abs(x))

    @settings(max_examples=30, deadline=None)
    @given(far=FAR, near=st.integers(-6, 6), z=st.integers(-6, 6), far_x=st.booleans(),
           simple=st.booleans())
    def test_taboo_limits_lie_in_unit_interval(self, far, near, z, far_x, simple):
        model = simple_walk_1d() if simple else NONSIMPLE_1D
        x, y = (far, near) if far_x else (near, far)
        if len({x, y, z}) < 3:
            return
        for q in (TabooQuery((x,), (y,), (z,)), TabooQuery((x,), (z,), (y,))):
            assert 0.0 <= taboo_limit(model, q) <= 1.0


# |z| up to 5: five roots inside the circle for G_lambda, four for rho, all of
# them from the companion matrix
LONG_1D = validate_model(1, {(1,): 0.01, (4,): 0.2, (5,): 0.7})


def _midpoint_reference(model, f, n=1 << 14):
    """(2 pi)^-1 * integral over [-pi, pi] of f(theta, -phi(theta)) by the n-point
    midpoint rule, with -phi in its sine form: spectrally accurate for these
    analytic periodic integrands, and sharing no code with the residue sums."""
    th = (np.arange(n) + 0.5) * (2.0 * np.pi / n) - np.pi
    neg_phi = sum(2.0 * rate * np.sin(0.5 * z[0] * th) ** 2 for z, rate in model.jumps)
    return float(np.mean(f(th, neg_phi)))


class TestResidueRoots1d:
    """d = 1 residue sums on a walk whose roots come from the companion matrix."""

    @pytest.mark.parametrize("k", [0, 8])
    def test_green_within_est_error(self, k):
        lam = LONG_1D.a * 2.0**-k
        for r in (0, 1, 3, 7):
            want = _midpoint_reference(LONG_1D, lambda th, neg_phi: np.cos(r * th) / (lam + neg_phi))
            got = green_function(LONG_1D, lam, [0], [r])
            assert abs(got.value - want) <= 1e-12 * want
            assert abs(got.value - want) <= got.est_error

    def test_rho(self):
        a = LONG_1D.a
        for r in (1, 3, 7):  # a (1 - cos(r theta)) / -phi, in its sine form
            want = _midpoint_reference(LONG_1D, lambda th, nphi: 2.0 * a * np.sin(0.5 * r * th) ** 2 / nphi)
            assert abs(rho(LONG_1D, (r,)) - want) <= 1e-14


def k_d(model, lam, r):
    """K_d(lambda; r) = (G_0(0, r) - G_lambda(0, r)) / lambda, d >= 3."""
    zero = (0,) * model.d
    return (green_function(model, 0.0, zero, r).value - green_function(model, lam, zero, r).value) / lam


class TestKKernel:
    def test_positive_and_oracle(self, walk3d):
        # time-domain oracle: K_d(lam;r) = int p(u;0,r) (1 - e^{-lam u})/lam du,
        # Simpson on [0, U] plus the gamma_d tail of int_t^inf p beyond U
        from scipy.integrate import simpson

        from taboowalk.quadrature import p_curves

        lam = 0.5
        got = k_d(walk3d, lam, [0, 0, 0])
        assert got > 0

        horizon = 300.0
        times = np.linspace(0.0, horizon, 1201)
        p_vals = p_curves(walk3d, ((0, 0, 0),), times, default_config(3))[0][0]
        body = simpson(p_vals * -np.expm1(-lam * times) / lam, x=times)
        gamma3 = spectral_scalars(walk3d).gamma_d
        tail = gamma3 * 2.0 / (lam * math.sqrt(horizon))
        assert got == pytest.approx(body + tail, rel=0.01)

    def test_large_lambda_ratio(self, walk3d):
        zero = [0, 0, 0]
        g0 = green_function(walk3d, 0.0, zero, zero).value
        lam = 1e3
        assert k_d(walk3d, lam, zero) == pytest.approx(g0 / lam, rel=0.01)


class TestTrigIdentity:
    @pytest.mark.parametrize("x", [1, 5, 10])
    def test_lemma_values(self, x):
        want = 2.0 * math.pi * x
        assert trig_identity_check(x) == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            trig_identity_check(0)


class TestConfig:
    def test_invariants(self):
        # rel_tol = inf would accept the first Romberg level unrefined
        for rel_tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadratureConfig(rel_tol=rel_tol)

    def test_deterministic_reevaluation(self, walk2d):
        from taboowalk.kernels import _green_cached

        v1 = green_function(walk2d, 0.125, [0, 0], [1, 1]).value
        _green_cached.cache_clear()
        v2 = green_function(walk2d, 0.125, [0, 0], [1, 1]).value
        assert v1 == v2


@contextlib.contextmanager
def _grids_per_displacement():
    """Record, per displacement, the n of every residue grid that the ladders
    take of it."""
    grids = collections.defaultdict(list)
    orig_axis = kernels.axis_integral

    def axis_spy(name, means, rs, *args):
        def spied(n, ks):
            for r in ks:
                grids[tuple(r)].append(n)
            return means(n, ks)

        return orig_axis(name, spied, rs, *args)

    kernels.axis_integral = axis_spy
    try:
        yield grids
    finally:
        kernels.axis_integral = orig_axis


def _spy_residue_grids(monkeypatch):
    """Record, per nonzero displacement, the n of every residue grid summed for it."""
    grids, orig = collections.defaultdict(list), kernels._residue_sums

    def spy(model, lam, n, rs, *args):
        for r in rs:
            if any(r):
                grids[tuple(r)].append(n)
        return orig(model, lam, n, rs, *args)

    monkeypatch.setattr(kernels, "_residue_sums", spy)
    return grids


def _clear_value_caches():
    kernels._rho_cached.cache_clear()
    kernels._green_cached.cache_clear()


NEAR_2D = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any)
NEAR_3D = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


class TestVectorLadder:
    """A residue ladder over a set of displacements gives each entry the value
    and levels it gets alone."""

    @staticmethod
    def _batched_vs_alone(model, xs, batch, alone, scale=0.0):
        rs = [canonical_diff((0,) * model.d, x, model.d) for x in xs]
        _clear_value_caches()
        with _grids_per_displacement() as grids:
            got = dict(zip(rs, batch(xs)))
        for r in set(rs):
            _clear_value_caches()
            with _grids_per_displacement() as own:
                want = alone(r)
            assert abs(got[r] - want) <= 1e-13 * max(abs(want), scale), r
            assert grids[r] == own[r], r

    @settings(max_examples=15, deadline=None)
    @given(xs=st.lists(NEAR_2D, min_size=1, max_size=4))
    def test_rho_2d(self, diagonal2d, xs):
        self._batched_vs_alone(diagonal2d, xs, lambda xs: kernels.rho_values(diagonal2d, xs),
                               lambda r: rho(diagonal2d, r))

    @settings(max_examples=6, deadline=None)
    @given(xs=st.lists(NEAR_3D, min_size=1, max_size=3), lam=st.sampled_from([0.0, 0.05, 0.5]))
    def test_green_3d(self, walk3d, xs, lam):
        # G_lam(0, r) can be 1e-4 of G_lam(0, 0), the mass its grids integrate
        zero = (0, 0, 0)
        self._batched_vs_alone(walk3d, xs,
                               lambda xs: [g.value for g in kernels.green_values(walk3d, lam, xs)],
                               lambda r: green_function(walk3d, lam, zero, r).value,
                               scale=green_function(walk3d, lam, zero, zero).value)

    @pytest.mark.parametrize("walk, q", [
        ("diagonal2d", TabooQuery((2, 1), (-1, 3), (0, 0))),
        ("walk3d", TabooQuery((1, 0, 0), (0, 1, 1), (0, 0, -1))),
    ])
    def test_order_of_requests(self, walk, q, request):
        # q and q.swapped() ask for one set of displacements in another order
        model = request.getfixturevalue(walk)

        def answer(first, second):
            _clear_value_caches()
            lims = {k: taboo_limit(model, k) for k in (first, second)}
            return lims[q], lims[q.swapped()], taboo_tail(model, q).constant

        for a, b in zip(answer(q, q.swapped()), answer(q.swapped(), q)):
            assert abs(a - b) <= 1e-14 * abs(a)

    @pytest.mark.parametrize("walk, lam, xs", [
        ("diagonal2d", None, [(1, 0), (3, -1), (75, -5)]),
        ("diagonal2d", 0.25, [(1, 0), (75, -5)]),
        ("walk3d", 0.0, [(1, 0, 0), (40, 0, 0)]),
    ])
    def test_unreachable_rel_tol_sums_two_grids(self, walk, lam, xs, request, monkeypatch):
        # below RESIDUE_ROUNDING no grid can meet rel_tol: each entry sums the two
        # grids of one gap, its error estimate, and fails with it
        model, cfg = request.getfixturevalue(walk), QuadratureConfig(rel_tol=1e-30)
        grids = _spy_residue_grids(monkeypatch)
        _clear_value_caches()
        with pytest.raises(NotConverged) as exc:
            if lam is None:
                kernels.rho_values(model, xs, cfg)
            else:
                kernels.green_values(model, lam, xs, cfg)
        assert math.isfinite(exc.value.est_error)
        for x in xs:
            assert len(grids[x]) == 2 and grids[x][1] == 2 * grids[x][0], x

    def test_far_entry_fails_alone(self, diagonal2d, monkeypatch):
        # a level cap of 128 points lies below the grid floor of (75, -5), 1024,
        # so it sums 64 and 128 alone, too coarse, and fails; the near entries
        # of its batch are still cached
        near = [(1, 2), (3, -1)]
        _clear_value_caches()
        monkeypatch.setattr(quadrature, "_GRID_POINTS", 128)
        with pytest.raises(NotConverged):
            kernels.rho_values(diagonal2d, [near[0], (75, -5), near[1]])

        def no_quadrature(*args, **kwargs):
            raise LookupError("not cached")

        monkeypatch.setattr(kernels, "axis_integral", no_quadrature)
        got = {x: rho(diagonal2d, x) for x in near}
        with pytest.raises(LookupError):
            rho(diagonal2d, (75, -5))
        monkeypatch.undo()
        for x in near:
            _clear_value_caches()
            want = rho(diagonal2d, x)
            assert abs(got[x] - want) <= 1e-13 * want


def _mixed_sets(near, zero):
    """Sets of displacements with 0, a duplicate and -r for each r, in any order."""
    return st.lists(near, min_size=1, max_size=2).flatmap(lambda base: st.permutations(
        [*base, zero, base[0], *(tuple(-c for c in r) for r in base)]))


class TestSetReads:
    """rho_values and green_values are the one-at-a-time reads, by set."""

    @staticmethod
    def _same_either_order(xs, by_set, one):
        for set_first in (True, False):
            _clear_value_caches()
            if set_first:
                got = by_set(xs)
                want = [one(x) for x in xs]
            else:
                want = [one(x) for x in xs]
                got = by_set(xs)
            assert got == want  # bit for bit

    @settings(max_examples=8, deadline=None)
    @given(xs=_mixed_sets(NEAR_2D, (0, 0)), lam=st.sampled_from([0.05, 0.5]))
    def test_w2(self, diagonal2d, xs, lam):
        zero = (0, 0)
        self._same_either_order(xs, lambda xs: kernels.rho_values(diagonal2d, xs),
                                lambda x: rho(diagonal2d, x))
        self._same_either_order(xs, lambda xs: kernels.green_values(diagonal2d, lam, xs),
                                lambda x: green_function(diagonal2d, lam, zero, x))

    @settings(max_examples=4, deadline=None)
    @given(xs=_mixed_sets(NEAR_3D, (0, 0, 0)), lam=st.sampled_from([0.0, 0.5]))
    def test_nn3(self, walk3d, xs, lam):
        zero = (0, 0, 0)
        self._same_either_order(xs, lambda xs: kernels.rho_values(walk3d, xs),
                                lambda x: rho(walk3d, x))
        self._same_either_order(xs, lambda xs: kernels.green_values(walk3d, lam, xs),
                                lambda x: green_function(walk3d, lam, zero, x))
        # rho_d(x) = a (G_0(0) - G_0(x)) for x != 0
        g00 = green_function(walk3d, 0.0, zero, zero).value
        for x, got in zip(xs, kernels.rho_values(walk3d, xs)):
            want = walk3d.a * (g00 - green_function(walk3d, 0.0, zero, x).value) if any(x) else 1.0
            assert got == want

    @pytest.mark.parametrize("walk, lam", [("diagonal2d", 0.25), ("walk3d", 0.0)])
    def test_one_shell_integral_per_set(self, walk, lam, request, monkeypatch):
        # one residue ladder per set of uncached displacements, in every d
        model = request.getfixturevalue(walk)
        d, calls, orig = model.d, [], kernels.axis_integral

        def spy(name, means, rs, *args):
            calls.append((name, tuple(rs)))
            return orig(name, means, rs, *args)

        monkeypatch.setattr(kernels, "axis_integral", spy)
        zero, e1 = (0,) * d, (1,) + (0,) * (d - 1)
        r, s = (1, 2) + (0,) * (d - 2), (2, -1) + (1,) * (d - 2)
        neg = tuple(-c for c in r)
        _clear_value_caches()
        kernels.green_values(model, lam, [e1])
        calls.clear()
        kernels.green_values(model, lam, [r, zero, e1, neg, s, r])
        # no entry reads G_lam(0, 0) alone: each scales itself on its own grids
        assert calls == [("green_function", (r, zero, s))]
        calls.clear()
        kernels.green_values(model, lam, [r, zero, e1, neg, s, r])
        assert calls == []

        _clear_value_caches()
        kernels.green_values(model, lam, [neg, zero, s])
        assert calls == [("green_function", (r, zero, s))]
        calls.clear()
        kernels.green_values(model, lam, [neg, zero, s])
        assert calls == []

        _clear_value_caches()
        kernels.rho_values(model, [zero, neg, s, r])
        want = [("rho", (r, s))] if d == 2 else [("green_function", (zero, r, s))]
        assert calls == want
        calls.clear()
        kernels.rho_values(model, [zero, neg, s, r])
        assert calls == []

    def test_2d_request_is_one_axis_ladder(self, diagonal2d, monkeypatch):
        # neither G_lam(0, 0) nor the other entries are cached: one theta_1 ladder for all
        calls, orig = [], kernels.axis_integral

        def spy(name, means, rs, *args):
            calls.append(tuple(rs))
            return orig(name, means, rs, *args)

        monkeypatch.setattr(kernels, "axis_integral", spy)
        _clear_value_caches()
        kernels.green_values(diagonal2d, 0.25, [(1, 2), (0, 0), (3, -1)])
        assert calls == [((1, 2), (0, 0), (3, -1))]

    @pytest.mark.parametrize("walk", ["nonsimple1d", "diagonal2d"])
    def test_values_are_keyed_by_rel_tol(self, walk, request, monkeypatch):
        # only rel_tol enters a rho or G value, so a config built apart from
        # the default one, with its rel_tol, reads what the default config computed
        model = request.getfixturevalue(walk)
        d = model.d
        xs = [(3,) + (1,) * (d - 1), (0,) * d, (-2,) + (0,) * (d - 1)]
        other = QuadratureConfig(rel_tol=default_config(d).rel_tol)
        _clear_value_caches()
        want = kernels.rho_values(model, xs), kernels.green_values(model, 0.25, xs)

        def no_residues(*args):
            raise AssertionError("a kernel value was computed twice")

        monkeypatch.setattr(kernels, "_residue_sums", no_residues)
        assert (kernels.rho_values(model, xs, other), kernels.green_values(model, 0.25, xs, other)) == want


def test_value_cache_is_safe_under_threads():
    import random
    import sys
    import threading

    @kernels._batched
    def scaled(k, rs):
        return [k * r for r in rs]

    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            # 6000 keys against 4096 slots, so threads evict each other's entries
            for _ in range(2000):
                rs = tuple(rng.randrange(6000) for _ in range(3))
                assert scaled(7, rs) == [7 * r for r in rs]
        except Exception as exc:  # a thread's exception is otherwise lost
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
