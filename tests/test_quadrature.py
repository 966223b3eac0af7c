import math

import numpy as np
import pytest

from taboowalk import nearest_neighbor_walk, simple_walk_1d
from taboowalk import quadrature as quad
from taboowalk.quadrature import CACHE_MAX_POINTS, midpoint_sum, phi_chunks

# (d, n) with more than one chunk: cached in d = 1 and 3, streamed in d = 2
MULTI_CHUNK = [(1, 1 << 21), (2, 2048), (3, 128)]


def _walk(d):
    return simple_walk_1d() if d == 1 else nearest_neighbor_walk(d)


def _ones(ph, c):
    return np.ones_like(ph)


@pytest.mark.parametrize("d, n", MULTI_CHUNK)
def test_shell_sum_of_one_is_shell_volume(d, n):
    model, s = _walk(d), math.pi / 4
    assert len(list(phi_chunks(model, s, n, shell=True))) > 1
    got = midpoint_sum(model, _ones, (0,) * d, s, n, shell=True)
    assert got == pytest.approx((2 * s) ** d * (1 - 2.0**-d), rel=1e-13)


@pytest.mark.parametrize("d, n", MULTI_CHUNK)
def test_torus_mean_of_cos_is_kronecker_delta(d, n):
    model = _walk(d)
    assert len(list(phi_chunks(model, math.pi, n))) > 1

    def mean(r):
        return midpoint_sum(model, lambda ph, c: c, r, math.pi, n) / (2 * math.pi) ** d

    assert mean((0,) * d) == pytest.approx(1.0, rel=1e-13)
    for r in ([1] + [0] * (d - 1), [n - 1] * d, [n // 2 + 3] + [-7] * (d - 1)):
        assert abs(mean(tuple(r))) <= 1e-9


def test_grids_are_shared_across_half_widths():
    model = nearest_neighbor_walk(2)
    units = [[u for u, _ in phi_chunks(model, s, 64, shell=True)] for s in (math.pi, 0.5)]
    assert all(a is b for a, b in zip(*units))


def test_large_grids_are_not_cached():
    model = nearest_neighbor_walk(2)
    before = quad._unit_chunks.cache_info().currsize
    n = 2048
    assert n**2 > CACHE_MAX_POINTS
    for _ in phi_chunks(model, math.pi, n):
        pass
    assert quad._unit_chunks.cache_info().currsize == before


def test_shell_needs_n_divisible_by_4():
    with pytest.raises(ValueError):
        midpoint_sum(simple_walk_1d(), _ones, (0,), 1.0, 18, shell=True)


def test_odd_n_is_rejected():
    with pytest.raises(ValueError):
        midpoint_sum(simple_walk_1d(), _ones, (0,), math.pi, 17)
