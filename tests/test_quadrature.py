import math

import numpy as np
import pytest

from taboowalk import nearest_neighbor_walk, simple_walk_1d, validate_model
from taboowalk import quadrature as quad
from taboowalk.model import char_exponent_grid
from taboowalk.quadrature import Integrand, midpoint_sum, phi_blocks

# (d, n) with more than one block at the default block size
MULTI_CHUNK = [(1, 1 << 21), (2, 2048), (3, 128)]

ONES = Integrand(("test-ones",), np.ones_like)
RHO = Integrand(("test-rho",), lambda ph: 1.0 / ph, lambda ph: -1.0 / ph)
GREEN = Integrand(("test-green",), lambda ph: 1.0 / (0.3 - ph))


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
    cache = quad._GridCache(quad.CACHE_BYTES)
    monkeypatch.setattr(quad, "_CACHE", cache)
    return cache


def _brute_force(model, f, r, s, n, shell):
    """h^d * sum of g(phi) cos(r.theta) + k(phi) over the full grid, point by point.

    Returns (sum, h^d * sum of |g| + |k|, the scale of the sum); cos(r.theta)
    is evaluated at every point.
    """
    d = model.d
    ax = -s + (np.arange(n) + 0.5) * (2.0 * s / n)
    theta = np.stack([m.reshape(-1) for m in np.meshgrid(*([ax] * d), indexing="ij")], axis=-1)
    if shell:
        theta = theta[np.any(np.abs(theta) > s / 2.0, axis=1)]
    ph = char_exponent_grid(model, theta)
    g = f.g(ph)
    k = f.k(ph) if f.k is not None else np.zeros_like(ph)
    terms = g * np.cos(theta @ np.asarray(r, dtype=float)) + k
    h = (2.0 * s / n) ** d
    return float(np.sum(terms)) * h, float(np.sum(np.abs(g) + np.abs(k))) * h


FACTORISED_CASES = [
    # (d, n, block points, r): blocks of one or several rows, a short last block
    (1, 256, 48, (128,)),
    (1, 256, 48, (-37,)),
    (2, 40, 120, (20, -20)),
    (2, 40, 120, (7, 13)),
    (2, 32, 64, (0, 16)),
    (3, 16, 64, (8, -8, 8)),
    (3, 16, 64, (1, -5, 3)),
    (3, 24, 500, (12, 0, -7)),
]


@pytest.mark.parametrize("shell", [False, True])
@pytest.mark.parametrize("d, n, block, r", FACTORISED_CASES)
@pytest.mark.parametrize("f", [RHO, GREEN], ids=["rho", "green"])
def test_factorised_sum_matches_cos_on_every_point(fresh_cache, monkeypatch, shell, d, n, block, r, f):
    monkeypatch.setattr(quad, "_BLOCK_POINTS", block)
    model = _skewed_walk(d)
    s = math.pi if not shell else math.pi / 4
    assert len(list(phi_blocks(model, s, n, shell))) > 1
    want, mass = _brute_force(model, f, r, s, n, shell)
    got = midpoint_sum(model, f, r, s, n, shell)
    assert abs(got - want) <= 1e-13 * mass


@pytest.mark.parametrize("shell", [False, True])
@pytest.mark.parametrize("s", [math.pi, math.pi / 8, math.pi * 2.0**-40], ids=["pi", "pi/8", "pi/2^40"])
@pytest.mark.parametrize("d, n, block", [(1, 64, 8), (2, 32, 96), (3, 16, 64)])
@pytest.mark.parametrize("walk", [_walk, _skewed_walk], ids=["nn", "skewed"])
def test_phi_blocks_match_char_exponent_grid(fresh_cache, monkeypatch, walk, d, n, block, s, shell):
    # phi from per-axis phases against the point-by-point sine form, on every
    # point of every block, the shell masks included
    monkeypatch.setattr(quad, "_BLOCK_POINTS", block)
    model, ax = walk(d), quad._axis_offsets(n)
    blocks = list(phi_blocks(model, s, n, shell))
    assert len(blocks) > 1
    assert sum(b[1] for b in blocks) == n // 2
    for i0, rows, mask, ph in blocks:
        mesh = np.meshgrid(ax[i0 : i0 + rows], *[ax] * (d - 1), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if shell:
            pts = pts[np.any(np.abs(pts) > 0.5, axis=1)]
            assert mask is None or mask.sum() == len(pts)
        want = char_exponent_grid(model, s * pts)
        assert ph.shape == want.shape
        assert np.all(np.abs(ph - want) <= 2e-15 * np.abs(want))


def test_g_is_built_once_per_grid(fresh_cache):
    calls = []

    def g(ph):
        calls.append(ph.size)
        return 1.0 / (0.5 - ph)

    f = Integrand(("test-count",), g)
    model = nearest_neighbor_walk(2)
    for r in [(0, 0), (1, 2), (5, -3)]:
        midpoint_sum(model, f, r, math.pi / 2, 64, shell=True)
    assert sum(calls) == 64 * 64 * 3 // 4 // 2


@pytest.mark.parametrize("d, n", MULTI_CHUNK)
def test_shell_sum_of_one_is_shell_volume(d, n):
    model, s = _walk(d), math.pi / 4
    assert len(list(phi_blocks(model, s, n, shell=True))) > 1
    got = midpoint_sum(model, ONES, (0,) * d, s, n, shell=True)
    assert got == pytest.approx((2 * s) ** d * (1 - 2.0**-d), rel=1e-13)


@pytest.mark.parametrize("d, n", MULTI_CHUNK)
def test_torus_mean_of_cos_is_kronecker_delta(d, n):
    model = _walk(d)
    assert len(list(phi_blocks(model, math.pi, n))) > 1

    def mean(r):
        return midpoint_sum(model, ONES, r, math.pi, n) / (2 * math.pi) ** d

    assert mean((0,) * d) == pytest.approx(1.0, rel=1e-13)
    for r in ([1] + [0] * (d - 1), [n - 1] * d, [n // 2 + 3] + [-7] * (d - 1)):
        assert abs(mean(tuple(r))) <= 1e-9


def test_cache_stays_within_its_budget(monkeypatch):
    cache = quad._GridCache(1 << 20)
    monkeypatch.setattr(quad, "_CACHE", cache)
    for d in (1, 2, 3):
        model = _skewed_walk(d)
        for n in (16, 32, 64, 128):
            for s in (math.pi, math.pi / 2, math.pi / 4):
                for f in (RHO, GREEN):
                    midpoint_sum(model, f, (1,) * d, s, n, shell=s < math.pi)
                    assert cache.nbytes <= cache.budget
                    assert cache.nbytes == sum(size for _, size in cache._items.values())
    assert cache._items


def test_large_grids_are_not_cached(monkeypatch):
    model = nearest_neighbor_walk(2)
    n, r = 1024, (3, -1)
    kept = quad._GridCache(64 << 20)
    monkeypatch.setattr(quad, "_CACHE", kept)
    want = midpoint_sum(model, GREEN, r, math.pi, n)
    assert len(kept._items) == 2

    small = quad._GridCache(1 << 20)
    monkeypatch.setattr(quad, "_CACHE", small)
    assert 8 * n**2 // 2 > small.budget
    assert not isinstance(phi_blocks(model, math.pi, n), tuple)
    assert midpoint_sum(model, GREEN, r, math.pi, n) == want
    assert not small._items and small.nbytes == 0


def test_shell_needs_n_divisible_by_4():
    with pytest.raises(ValueError):
        midpoint_sum(simple_walk_1d(), ONES, (0,), 1.0, 18, shell=True)


def test_odd_n_is_rejected():
    with pytest.raises(ValueError):
        midpoint_sum(simple_walk_1d(), ONES, (0,), math.pi, 17)


def test_cache_is_safe_under_threads(monkeypatch):
    import sys
    import threading

    # a budget far below the working set, so threads evict each other's grids
    cache = quad._GridCache(1 << 16)
    monkeypatch.setattr(quad, "_CACHE", cache)
    model = _skewed_walk(2)
    grids = [(math.pi * 2.0**-m, n) for m in range(6) for n in (16, 32, 64)]
    want = {g: midpoint_sum(model, RHO, (2, 1), *g, shell=True) for g in grids}
    errors = []

    def work(seed):
        try:
            for i in range(40 * len(grids)):
                g = grids[(seed * 7 + i) % len(grids)]
                assert midpoint_sum(model, RHO, (2, 1), *g, shell=True) == want[g]
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
