import math
import warnings

import numpy as np
import pytest
import scipy.special

from taboowalk import (TabooQuery, TimeGrid, kernels, nearest_neighbor_walk, simple_walk_1d, taboo_cdf,
                       transition_probability, validate_model)
from taboowalk import quadrature as quad
from taboowalk.model import char_exponent_grid

# (d, n) with more than one block at the default block size
MULTI_CHUNK = [(1, 1 << 21), (2, 2048), (3, 128)]

# the residue sums at lam = 0 (rho, and G_0 in d >= 3) and at lam > 0 (G_lam),
# each on the graded grid that every ladder sums
RESIDUE_KERNELS = {"rho": 0.0, "green": 0.3}


def _walk(d):
    return simple_walk_1d() if d == 1 else nearest_neighbor_walk(d)


def _skewed_walk(d):
    """A walk with diagonal jumps, so phi does not split over the axes."""
    if d == 1:
        return validate_model(1, {(1,): 0.4, (2,): 0.1})
    jumps = {tuple(int(i == k) for i in range(d)): 0.2 for k in range(d)}
    jumps[(1,) * d] = 0.05
    jumps[(1, -1) + (0,) * (d - 2)] = 0.07
    return validate_model(d, jumps)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty grid cache at the default budget, private to the test."""
    cache = kernels._GridCache(kernels.CACHE_BYTES)
    monkeypatch.setattr(kernels, "_CACHE", cache)
    return cache


def _graded(u):
    """The sin-map u - sin u and its weight 1 - cos u, per point and axis."""
    return u - np.sin(u), 1.0 - np.cos(u)


def _residue_grid_by_hand(d, n):
    """(theta', weight) of the whole graded residue grid, point by point."""
    if d == 1:
        return np.zeros((1, 0)), np.ones(1)
    axes = [(np.arange(n) + 0.5) * (np.pi / n)] + [(np.arange(2 * n) + 0.5) * (np.pi / n) - np.pi] * (d - 2)
    th, weight = _graded(np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1))
    return th, np.prod(weight, axis=1)


def _brute_force(model, lam, r, n, m=4096):
    """Mean over the graded residue grid of the theta_d integral of
    f cos(r.theta), f = 1 / (lam - phi), by an m-point midpoint rule in
    theta_d with phi and cos(r.theta) taken at every point; at lam = 0 the
    mean of (1 - cos(r.theta)) f, which is finite in every d.  In d >= 2 the
    theta_d rule is graded too, so that it resolves the peak of width
    |theta'| at the theta' points near 0.  Returns (mean, mean of |f|)."""
    d = model.d
    th, weight = _residue_grid_by_hand(d, n)
    u = (np.arange(m) + 0.5) * (2.0 * np.pi / m) - np.pi
    td, td_weight = _graded(u) if d > 1 else (u, np.ones(m))
    total = mass = 0.0
    for k0 in range(0, len(th), 64):
        pts = np.concatenate([np.repeat(th[k0 : k0 + 64], m, axis=0),
                              np.tile(td, len(th[k0 : k0 + 64]))[:, None]], axis=1)
        f = 1.0 / (lam - char_exponent_grid(model, pts))
        c = np.cos(pts @ np.asarray(r, dtype=float))
        w = np.outer(weight[k0 : k0 + 64], td_weight).ravel()
        total += np.sum(w * (c if lam else 1.0 - c) * f)
        mass += np.sum(w * np.abs(f))
    return total / (m * len(th)), mass / (m * len(th))


FACTORISED_CASES = [
    # (d, n, block points, r): the residue grid cut into blocks of a quarter of
    # the block points, so that every d >= 2 grid has several, a short last one
    (1, 256, 48, (128,)),
    (1, 256, 48, (-37,)),
    (2, 40, 120, (20, -20)),
    (2, 40, 120, (7, 13)),
    (2, 32, 64, (0, 16)),
    (3, 16, 64, (8, -8, 8)),
    (3, 16, 64, (1, -5, 3)),
    (3, 24, 500, (12, 0, -7)),
]


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("d, n, block, r", FACTORISED_CASES)
@pytest.mark.parametrize("f", list(RESIDUE_KERNELS))
def test_factorised_sum_matches_cos_on_every_point(fresh_cache, monkeypatch, streamed, d, n, block, r, f):
    # the residue sums over the theta' grid, their phases exp(i z'.theta') and
    # exp(i r'.theta') from per-point dot products, against phi and cos(r.theta)
    # at every point of a fine theta_d grid; streamed or cached roots
    lam = RESIDUE_KERNELS[f]
    monkeypatch.setattr(quad, "_BLOCK_POINTS", block // 4)
    if streamed:
        monkeypatch.setattr(fresh_cache, "budget", 0)
    model = _skewed_walk(d)
    assert d == 1 or len(list(quad._residue_grid(d, n, True))) > 1
    want, mass = _brute_force(model, lam, r, n)
    (j0, _), (jr, _) = kernels._residue_sums(model, lam, n, ((0,) * d, r))
    if lam:
        got = jr
    else:  # in d = 1, w = 1 adds half its residue, |r| / B
        got = j0 - jr + (abs(r[0]) / sum(a * z[0] ** 2 for z, a in model.jumps) if d == 1 else 0.0)
    assert abs(got - want) <= 1e-13 * mass
    assert fresh_cache.nbytes == 0 if streamed else fresh_cache._items


def test_residue_roots_are_built_once_per_grid(fresh_cache, monkeypatch):
    calls, grid = [], quad._residue_grid

    def spy(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(kernels, "_residue_grid", spy)
    model = _skewed_walk(3)
    for r in [(0, 0, 0), (1, 2, 0), (5, -3, 1)]:
        kernels._residue_sums(model, 0.5, 32, (r,))
        kernels._residue_sums(model, 0.0, 32, (r,))
    assert calls == [(3, 32, True), (3, 32, True)]  # one grid of roots per lam


@pytest.mark.parametrize("d, n", MULTI_CHUNK)
def test_torus_mean_of_cos_is_kronecker_delta(d, n):
    # the p-curve sum at t = 0, where p(0; 0, r) = delta_r0 on every grid
    model = _walk(d)
    assert len(list(quad._residue_grid(d + 1, n // 2, False))) > 1  # the torus half grid

    def mean(r):
        return quad._p_grid_sum(model, (r,), np.zeros(1), n)[0, 0]

    assert mean((0,) * d) == pytest.approx(1.0, rel=1e-13)
    for r in ([1] + [0] * (d - 1), [n - 1] * d, [n // 2 + 3] + [-7] * (d - 1)):
        assert abs(mean(tuple(r))) <= 1e-9


def test_cache_stays_within_its_budget(monkeypatch):
    cache = kernels._GridCache(1 << 20)
    monkeypatch.setattr(kernels, "_CACHE", cache)
    for d in (1, 2, 3):
        model = _skewed_walk(d)
        for n in (16, 32, 64, 128):
            for lam in (0.0, 0.3):
                kernels._residue_sums(model, lam, n, [(1,) * d])
                assert cache.nbytes <= cache.budget
                assert cache.nbytes == sum(size for _, size in cache._items.values())
    assert cache._items


def test_large_grids_are_not_cached(fresh_cache):
    # a p-curve sum leaves the cache empty at any n: phi and cos(r.theta) are
    # taken point by point and never kept
    model = nearest_neighbor_walk(2)
    for n in (16, 64, 1024):
        quad._p_grid_sum(model, ((3, -1),), np.array([0.5]), n)
        assert not fresh_cache._items and fresh_cache.nbytes == 0


def test_odd_n_is_rejected():
    with pytest.raises(ValueError):
        quad._p_grid_sum(simple_walk_1d(), ((0,),), np.zeros(1), 17)


def test_cache_is_safe_under_threads(monkeypatch):
    import sys
    import threading

    # a budget below the working set, so threads evict each other's grids: the
    # grids of n = 16 and 32 may be kept (6.5 KB of roots in all), n = 64 is streamed
    cache = kernels._GridCache(6 << 10)
    monkeypatch.setattr(kernels, "_CACHE", cache)
    model = _skewed_walk(2)
    grids = [(lam, n) for lam in (0.0, 0.1, 0.5) for n in (16, 32, 64)]

    def read(lam, n):
        return kernels._residue_sums(model, lam, n, [(2, 1)])[0]

    want = {g: read(*g) for g in grids}
    errors = []

    def work(seed):
        try:
            for i in range(40 * len(grids)):
                g = grids[(seed * 7 + i) % len(grids)]
                assert read(*g) == want[g]
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
    assert cache.nbytes == sum(size for _, size in cache._items.values()) <= cache.budget


class _Spy:
    """A synthetic sum_at: entry k at n is sums[k](1 / n); records every call."""

    def __init__(self, *sums):
        self.sums, self.calls = sums, []

    def __call__(self, n, ks):
        self.calls.append((n, list(ks)))
        return [self.sums[k](1.0 / n) for k in ks]


@pytest.mark.parametrize("tol", [0.2, 1e-3, 1e-8])
def test_refine_order_2_stops_at_predicted_level(tol):
    # v(h) = 1 + h^2 + h^4 + h^6, h = 1 / (4 * 2^k).  Level 1 gives 1 - 4 h^4 - 20 h^6
    # with error 3 h^2 + 15 h^4 + 63 h^6; level k >= 2 gives 1 + 64 h^6 with error
    # 10 h^4 + 210 h^6
    spy = _Spy(lambda h: 1.0 + h**2 + h**4 + h**6)
    hs = [1.0 / (4 * 2**k) for k in range(9)]
    errs = [math.inf, 3 * hs[1] ** 2 + 15 * hs[1] ** 4 + 63 * hs[1] ** 6]
    errs += [10 * h**4 + 210 * h**6 for h in hs[2:]]
    stop = next(k for k, e in enumerate(errs) if e <= tol)
    assert errs[stop - 1] > 2 * tol and errs[stop] < 0.5 * tol
    (val,), (err,), (ok,) = quad._refine(spy, 4, 9, [tol], 0.0, (2, 4))
    assert ok and [n for n, _ in spy.calls] == [4 * 2**k for k in range(stop + 1)]
    h = hs[stop]
    want = 1.0 - 4 * h**4 - 20 * h**6 if stop == 1 else 1.0 + 64 * h**6
    assert abs(val - want) <= 2e-15
    assert err == pytest.approx(errs[stop], rel=1e-5)
    assert abs(val - 1.0) <= err


def test_refine_never_resums_a_frozen_entry():
    sums = [lambda h, c=c: 2.0 + c * h**2 + h**5 for c in (1.0, 3.0, 0.5)]
    tols = [1e-3, 1e-9, 1e-6]
    spy = _Spy(*sums)
    vals, errs, oks = quad._refine(spy, 8, 9, tols, 0.0, (2, 4))
    assert all(oks) and len(spy.calls) > 2
    for (_, before), (_, after) in zip(spy.calls, spy.calls[1:]):
        assert set(after) <= set(before)
    for k, f in enumerate(sums):
        alone = _Spy(f)
        (val,), (err,), _ = quad._refine(alone, 8, 9, [tols[k]], 0.0, (2, 4))
        assert (vals[k], errs[k]) == (val, err)
        assert sum(k in ks for _, ks in spy.calls) == len(alone.calls)
    assert len({len(ks) for _, ks in spy.calls}) > 1  # the entries froze at different levels


@pytest.mark.parametrize("order, levels", [(0, 2), (0, 5), (2, 3), (2, 6)])
def test_refine_stops_at_its_level_cap(order, levels):
    # order 0 takes the last sum; order 2 removes h^2, then h^4
    spy = _Spy(lambda h: 1.0 + h)  # odd in h: no level meets a zero tolerance
    (val,), (err,), (ok,) = quad._refine(spy, 16, levels, [0.0], 0.0, {0: (), 2: (2, 4)}[order])
    assert not ok and 0.0 < err < math.inf and math.isfinite(val)
    assert [n for n, _ in spy.calls] == [16 * 2**k for k in range(levels)]


def test_refine_order_0_takes_the_largest_gap_of_an_array():
    c = np.array([1e-3, -4e-3, 2e-3])
    spy = _Spy(lambda h: 0.5 + c * h)
    (val,), (err,), (ok,) = quad._refine(spy, 1, 8, [1e-4], 0.0, ())
    # the gap at level k is |c| / 2^k: 4e-3 / 2^6 <= 1e-4 < 4e-3 / 2^5
    assert ok and [n for n, _ in spy.calls] == [2**k for k in range(7)]
    np.testing.assert_array_equal(val, 0.5 + c / 64)
    assert err == np.max(np.abs((0.5 + c / 64) - (0.5 + c / 32)))
    (_,), (err1,), (ok1,) = quad._refine(_Spy(lambda h: 0.5 + c * h), 1, 1, [1e-4], 0.0, ())
    assert not ok1 and err1 == math.inf  # one level has no gap


def test_refine_odd_powers_remove_h_h3_h5():
    # v(h) = 1 + h + h^3 + h^5 + h^7: three steps leave c h^7 at level 3 and after
    spy = _Spy(lambda h: 1.0 + h + h**3 + h**5 + h**7)
    (val,), (err,), (ok,) = quad._refine(spy, 16, 4, [0.0], 0.0, (1, 3, 5))
    assert not ok and [n for n, _ in spy.calls] == [16, 32, 64, 128]
    h = 1.0 / 128  # the h^7 term scaled by prod_p (2^p - 2^7) / (2^p - 1) over p = 1, 3, 5
    assert val == pytest.approx(1.0 + h**7 * (2 - 128) * (8 - 128) * (32 - 128) / (1 * 7 * 31), rel=1e-14)
    assert abs(val - 1.0) <= err < 1e-6


# The four walks of the aliasing-bound checks: a non-simple d = 1 walk, diagonal
# jumps in d = 2, the nearest-neighbour walk and a range-2 walk in d = 3.
_BOUND_WALKS = {
    "nonsimple1d": validate_model(1, {(1,): 0.4, (2,): 0.1}),
    "diagonal2d": validate_model(2, {(1, 0): 0.2, (0, 1): 0.2, (1, 1): 0.05, (1, -1): 0.05}),
    "walk3d": nearest_neighbor_walk(3),
    "range2_3d": validate_model(3, {(1, 0, 0): 0.1, (0, 1, 0): 0.1, (0, 0, 1): 0.1, (0, 0, 2): 0.05}),
}


def _bound_rows(d):
    return ((0,) * d, (1,) + (0,) * (d - 1), (3,) + (-2,) * (d - 1))


# diagonal2d is the benchmark walk w2, walk3d nn3 and nonsimple1d ns1
_PICK_WALKS = {**_BOUND_WALKS, "R5": validate_model(1, {(1,): 0.01, (4,): 0.2, (5,): 0.7})}


class TestAliasBound:
    @pytest.mark.parametrize("walk", list(_BOUND_WALKS))
    @pytest.mark.parametrize("t", [0.0, 0.5, 5.0, 40.0, 200.0])
    def test_bounds_the_measured_aliasing(self, walk, t):
        # |p_n - p_4n| against the bound at n, from the 16-point floor up to the
        # first n the default tolerance accepts; p_4n errs by bound(4n), and
        # both sums by a few ulps of the unit mass
        model = _BOUND_WALKS[walk]
        rs, tol = _bound_rows(model.d), max(quad.default_config(model.d).rel_tol, quad.ABS_FLOOR)
        n, checked = 16, 0
        while True:
            bound = quad._alias_bound(model, rs, t, n)
            diff = np.max(np.abs(quad._p_grid_sum(model, rs, np.array([t]), n)
                                 - quad._p_grid_sum(model, rs, np.array([t]), 4 * n)))
            assert diff <= bound + quad._alias_bound(model, rs, t, 4 * n) + quad.RESIDUE_ROUNDING
            checked += diff > quad.RESIDUE_ROUNDING
            if bound <= tol:
                break
            n *= 2
        assert t < 5.0 or checked  # the long times test the bound above rounding

    @pytest.mark.parametrize("walk", list(_BOUND_WALKS))
    def test_monotone_in_n_and_t(self, walk):
        model = _BOUND_WALKS[walk]
        rs = _bound_rows(model.d)
        ts = np.linspace(0.0, 400.0, 21)
        # n <= 64 in d = 3: the bound sums e^{phi t} over the n^3 grid
        table = np.array([[quad._alias_bound(model, rs, t, 16 << k) for t in ts]
                          for k in range(3 if model.d == 3 else 6)])
        assert np.all(np.diff(table, axis=0) <= 0.0)
        assert np.all(np.diff(table, axis=1) >= 0.0)
        assert np.all(table[:, 0] == 0.0)  # p(0; 0, r) is summed exactly

    def test_long_times_raise_no_overflow_warning(self):
        # t cosh(s z) passes the float range on the large s of the grid; those
        # exponents are never the least, and numpy must not warn about them
        model = nearest_neighbor_walk(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < quad._alias_bound(model, ((0, 0, 0),), 1e5, 16) < math.inf

    # n picked by the bound taken at every bracket (measured before brackets
    # whose rest factor is below the tolerance took 1 for p): rows 0, e1 and
    # (3, -2, ...), times to T on 41 points, the default configuration.
    # nonsimple1d to 20 and diagonal2d to 200 took 256 while d <= 2 grids had
    # a floor of 256 points per axis; the bound alone takes 64 there
    PICKED_N = {
        ("nonsimple1d", 20.0): 64, ("nonsimple1d", 2000.0): 512, ("nonsimple1d", 20000.0): 1024,
        ("diagonal2d", 200.0): 64, ("diagonal2d", 20000.0): 512,
        ("walk3d", 20.0): 16, ("walk3d", 200.0): 64, ("walk3d", 2000.0): 128,
        ("range2_3d", 20.0): 32, ("range2_3d", 200.0): 64, ("range2_3d", 2000.0): 128,
    }

    @pytest.mark.parametrize("walk, horizon", list(PICKED_N))
    def test_skipped_brackets_keep_the_grid(self, walk, horizon, monkeypatch):
        model, picked, grid_sum = _BOUND_WALKS[walk], [], quad._p_grid_sum
        monkeypatch.setattr(quad, "_p_grid_sum", lambda *args: picked.append(args[3]) or grid_sum(*args))
        quad.p_curves(model, _bound_rows(model.d), np.linspace(0.0, horizon, 41), quad.default_config(model.d))
        assert picked == [self.PICKED_N[walk, horizon]]

    @staticmethod
    def _fixed_floor_pick(model, rs, horizon):
        """n by the rule the shared floor replaced: from max(256 in d <= 2 or 16
        in d >= 3, 4 max|r_j|) points per axis, doubled at most five times."""
        tol = max(quad.default_config(model.d).rel_tol, quad.ABS_FLOOR)
        n = max(256 if model.d <= 2 else 16, 4 * max(abs(c) for r in rs for c in r))
        for _ in range(5):
            if quad._alias_bound(model, rs, horizon, n, tol) <= tol:
                break
            n *= 2
        return n

    @pytest.mark.parametrize(
        "walk, horizon, rs",
        [(w, t, _bound_rows(_PICK_WALKS[w].d)) for w in _PICK_WALKS for t in (20.0, 200.0, 2000.0)]
        # a 4 max|r_j| floor not rounded to 16 * 2^k would take 384 here
        + [("nonsimple1d", 1000.0, ((-2,), (1,), (3,)))],
    )
    def test_no_grid_above_the_fixed_floor_rule(self, walk, horizon, rs, monkeypatch):
        model, picked = _PICK_WALKS[walk], []
        monkeypatch.setattr(quad, "_p_grid_sum",
                            lambda m, rs, times, n: picked.append(n) or np.zeros((len(rs), len(times))))
        quad.p_curves(model, rs, np.linspace(0.0, horizon, 41), quad.default_config(model.d))
        assert picked[0] <= self._fixed_floor_pick(model, rs, horizon)

    def test_verify_curve_matches_the_64_point_grid(self, monkeypatch):
        # the nearest-neighbour verify curve on its bound-sized grid (n = 32)
        # against the same curve summed on 64 points per axis
        walk = nearest_neighbor_walk(3)
        q, grid = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0)), TimeGrid(step=0.05, n_steps=800)
        bound_sized, picked, grid_sum = taboo_cdf(walk, q, grid), [], quad._p_grid_sum
        monkeypatch.setattr(quad, "_p_grid_sum",
                            lambda m, rs, times, n: picked.append(n) or grid_sum(m, rs, times, 64))
        for got, want in zip(bound_sized, taboo_cdf(walk, q, grid)):
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-13)
        assert picked == [32]


class TestProductFormReference3d:
    """The nearest-neighbour walk jumps along the axes only, so its heat kernel is
    a product of d = 1 ones: p(t; 0, x) = prod_j exp(-t/3) I_{x_j}(t/3)."""

    XS = ((0, 0, 0), (1, 0, 0), (2, -1, 3))

    @staticmethod
    def _want(x, t):
        return scipy.special.ive(np.abs(x), np.asarray(t)[..., None] / 3.0).prod(axis=-1)

    @pytest.mark.parametrize("t", [0.5, 3.0, 20.0])
    @pytest.mark.parametrize("x", XS)
    def test_transition_probability_within_its_error(self, t, x):
        # the error carries the rounding of a few ulps of the unit mass
        got = transition_probability(nearest_neighbor_walk(3), t, (0, 0, 0), x)
        assert abs(got.value - float(self._want(x, t))) <= got.est_error

    @pytest.mark.parametrize("t", [2000.0, 5000.0, 1e4])
    def test_long_time_transition_probability(self, t):
        # a p-curve of two times: the aliasing bound sizes the grid, whose
        # error is absolute, at most rel_tol of the unit mass
        got = transition_probability(nearest_neighbor_walk(3), t, (0, 0, 0), (0, 0, 0))
        assert abs(got.value - float(self._want((0, 0, 0), t))) <= got.est_error <= 1e-6

    @pytest.mark.parametrize("times", [0.5 * np.arange(1, 41), 1000.0 * np.arange(1, 9)],
                             ids=["to-20", "to-8000"])
    def test_p_curves_within_rel_tol(self, times):
        # 0.5, 3 and 20 among the short times; to t = 8000 the bound takes n = 128
        cfg = quad.default_config(3)
        got, err = quad.p_curves(nearest_neighbor_walk(3), self.XS, times, cfg)
        want = np.array([self._want(x, times) for x in self.XS])
        np.testing.assert_allclose(got, want, rtol=0, atol=cfg.rel_tol)
        assert np.max(np.abs(got - want)) <= err
