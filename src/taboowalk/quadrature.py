"""The midpoint-grid engine behind every torus and shell quadrature.

Every kernel is a midpoint sum over the grid of a box [-s, s]^d: the torus
(s = pi) for smooth integrands, or dyadic shells [-s, s]^d minus
[-s/2, s/2]^d with Richardson extrapolation for kernels singular or
peaked at the origin.  Each integrand is affine in c = cos(r.theta), a
pair (g, k) of functions of phi summed as sum g(phi) c + sum k(phi).  As
exp(i s u.r) = prod_j exp(i s r_j u_j) on the tensor grid, the c-part is a
contraction of the array g(phi), which does not depend on r, with d
per-axis vectors of n phases (sum factorisation, Orszag 1980): no
cos(r.theta) is evaluated on the grid.

Only the half grid u_0 > 0 is summed, then doubled: phi, g, k and c are
even for a symmetric walk, and the midpoint grid with n even (odd n raises
ValueError) is symmetric.  It is cut into dense blocks of at most
``_BLOCK_POINTS`` points along the leading axis; on a shell, phi is
evaluated at shell points only and g is zero on the inner box.

One LRU cache under the byte budget ``CACHE_BYTES`` keeps phi blocks and,
per integrand key, g blocks with the sum of g + k.  phi enters at the
eviction end, so it stays only while there is room or a second kernel
reads it.  A grid with more than a quarter of the budget in one array is
streamed block by block and never kept.  Block sums are added exactly
(math.fsum), so results repeat bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from functools import lru_cache, reduce
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .model import WalkModel, char_exponent_grid

# Soak up rounding noise when an integrand is essentially zero.
ABS_FLOOR = 1e-13

# Points per block: 512 KB per float array keeps the temporaries of a block,
# and with them the peak memory of a streamed grid, small.
_BLOCK_POINTS = 1 << 16
# Bytes of phi and g blocks the grid cache may hold.
CACHE_BYTES = 64 << 20


class Integrand(NamedTuple):
    """g(phi) cos(r.theta) + k(phi), k = 0 when None; ``key`` names it in the cache."""

    key: Hashable
    g: Callable[[np.ndarray], np.ndarray]
    k: Callable[[np.ndarray], np.ndarray] | None = None


class _GridCache:
    """Block tuples keyed by grid, least recently used out, under a byte budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, d: int, n: int, build: Callable, cold: bool = False):
        """The blocks build() yields for a grid of n^d points, or a stream of
        them when one array over the half grid exceeds a quarter of the
        budget.  A ``cold`` value enters at the eviction end."""
        if 8 * (n**d // 2) > self.budget // 4:
            return build()
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                return self._items[key][0]
        value = tuple(build())
        size = sum(a.nbytes for block in value for a in block if isinstance(a, np.ndarray))
        with self._lock:
            if key not in self._items:  # another thread may have built it meanwhile
                self._items[key] = (value, size)
                self.nbytes += size
                self._items.move_to_end(key, last=not cold)
            while self.nbytes > self.budget:
                self.nbytes -= self._items.popitem(last=False)[1][1]
        return value


_CACHE = _GridCache(CACHE_BYTES)


@lru_cache(maxsize=64)
def _axis_offsets(n: int) -> np.ndarray:
    """Midpoint offsets (2i + 1 - n)/n in (-1, 1), i = 0..n-1, each within half an
    ulp: the form -1 + (i + 1/2) 2/n errs by an ulp of 1 next to 0."""
    ax = (2 * np.arange(n) + 1 - n) / n
    ax.setflags(write=False)
    return ax


def phi_blocks(model: WalkModel, s: float, n: int, shell: bool = False):
    """(i0, rows, mask, phi) for each block of rows i0..i0+rows of the half grid.

    phi is phi(s u) at the block's shell points (``mask``; None: all), in C
    order.  A shell needs n divisible by 4, so its inner box ends on cell edges.
    """
    if n % 2:
        raise ValueError("n must be even for the half-grid fold")
    if shell and n % 4:
        raise ValueError("n must be divisible by 4 for shell sums")
    d, ax = model.d, _axis_offsets(n)
    outer = np.abs(2 * np.arange(n) + 1 - n) * 2 > n  # |offset| > 1/2, in integers
    step = max(1, _BLOCK_POINTS // n ** (d - 1))

    def build():
        for i0 in range(n // 2, n, step):
            rows = slice(i0, min(i0 + step, n))
            mask = None
            if shell:
                flags = np.meshgrid(outer[rows], *[outer] * (d - 1), indexing="ij", sparse=True)
                mask = reduce(np.logical_or, flags)
                mask = None if mask.all() else mask
            mesh = np.meshgrid(ax[rows], *[ax] * (d - 1), indexing="ij")
            pts = np.stack([m.ravel() if mask is None else m[mask] for m in mesh], axis=-1)
            ph = char_exponent_grid(model, s * pts)
            ph.setflags(write=False)
            yield i0, rows.stop - i0, mask, ph

    return _CACHE.get(("phi", model, float(s), n, shell), d, n, build, cold=True)


def _g_blocks(model: WalkModel, f: Integrand, s: float, n: int, shell: bool):
    """(i0, dense g block, sum of g + k over the block's points) for each block."""

    def build():
        for i0, rows, mask, ph in phi_blocks(model, s, n, shell):
            vals = f.g(ph)
            if mask is None:
                g = vals.reshape((rows,) + (n,) * (model.d - 1))
            else:
                g = np.zeros(mask.shape)
                g[mask] = vals
            g.setflags(write=False)
            yield i0, g, float(np.sum(vals if f.k is None else vals + f.k(ph)))

    return _CACHE.get(("g", model, s, n, shell, f.key), model.d, n, build)


def _phases(r, s: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(e, e - 1), e = exp(i s r_j u) on the axis offsets u: (d, n), or (m, d, n)
    for m displacements; e - 1 = -2 sin^2(x/2) + i sin(x) stays accurate near 0.

    The offsets are odd about the middle, so only the upper half is evaluated
    and the lower half is its mirrored conjugate.
    """
    x = np.multiply.outer(np.asarray(r, dtype=float), s * _axis_offsets(n)[n // 2 :])
    up = -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(x)
    em1 = np.concatenate([up[..., ::-1].conj(), up], axis=-1)
    return em1 + 1.0, em1


def cos_weights(rs: Sequence[Sequence[int]], s: float, n: int, i0: int, rows: int) -> np.ndarray:
    """cos(s u.r) on the block of rows i0..i0+rows, one row per r in rs: outer
    products of the per-axis phases, real from the last axis on."""
    e = _phases(rs, s, n)[0]
    a = e[:, 0, i0 : i0 + rows]
    for j in range(1, e.shape[1] - 1):
        a = (a[:, :, None] * e[:, j, None, :]).reshape(len(rs), -1)
    if e.shape[1] == 1:
        return a.real
    w = a.real[:, :, None] * e[:, -1, None, :].real
    w -= a.imag[:, :, None] * e[:, -1, None, :].imag
    return w.reshape(len(rs), -1)


def midpoint_sum(
    model: WalkModel, integrand: Integrand, r: Sequence[int], s: float, n: int, shell: bool = False
) -> float:
    """h^d * sum of g(phi) cos(r.theta) + k(phi) over the midpoint grid of [-s, s]^d.

    h = 2s/n; ``shell`` skips the inner box [-s/2, s/2]^d.  The sum is taken
    as sum g (c - 1) + sum (g + k): for rho, g and k grow as theta^-2 at 0
    and would cancel to a result hundreds of times smaller.  prod_j e_j - 1
    telescopes into sum_j (prod_{i<j} e_i)(e_j - 1), so each block contracts
    from the last axis down, one real GEMM against (Re(e-1), Im(e-1), 1),
    with two partial sums: ``acc`` for the terms past their (e_j - 1) axis,
    ``ones`` for those still summing ones.
    """
    e, em1 = _phases(r, s, n)
    if model.d > 1:
        last = np.stack([em1[-1].real, em1[-1].imag, np.ones(n)], axis=1)
    parts = []
    for i0, g, gk in _g_blocks(model, integrand, float(s), n, shell):
        rows = slice(i0, i0 + g.shape[0])
        if g.ndim == 1:  # d = 1: the contraction is one dot product
            parts.append(float(g @ em1[0, rows].real) + gk)
            continue
        v = g.reshape(-1, n) @ last
        acc = (v[:, 0] + 1j * v[:, 1]).reshape(g.shape[:-1])
        ones = v[:, 2].reshape(g.shape[:-1])
        for ej, emj in zip([e[0, rows], *e[1:-1]][::-1], [em1[0, rows], *em1[1:-1]][::-1]):
            acc, ones = acc @ ej + ones @ emj, ones.sum(axis=-1)
        parts.append(float(acc.real) + gk)
    return 2.0 * math.fsum(parts) * (2.0 * s / n) ** model.d


def refine_torus_mean(
    mean_at: Callable[[int], float],
    n0: int,
    refinement_limit: int,
    rel_tol: float,
) -> tuple[float, float, bool]:
    """Double the grid of mean_at(n) until successive estimates agree to rel_tol.

    Returns (value, est_error, converged).
    """
    val = mean_at(n0)
    err = np.inf
    for k in range(1, refinement_limit + 1):
        new = mean_at(n0 * 2**k)
        err = abs(new - val)
        val = new
        if err <= max(rel_tol * abs(val), ABS_FLOOR):
            return val, err, True
    return val, err, err <= max(rel_tol * abs(val), ABS_FLOOR)


def romberg_ladder(
    sum_at: Callable[[int], float],
    tol_abs: float,
    n0: int,
    max_levels: int,
    tol_rel: float = 0.0,
) -> tuple[float, float, bool]:
    """Richardson-extrapolate midpoint sums sum_at(n) over n = n0 * 2^k.

    Doubles the resolution until the extrapolated correction drops below
    max(tol_abs, tol_rel * |value|) or the level cap is hit; the relative
    floor keeps the ladder from over-refining before a caller has any
    scale information.  Returns (value, est_error, converged).
    """
    v_prev = sum_at(n0)
    v_cur = sum_at(2 * n0)
    r_prev = (4.0 * v_cur - v_prev) / 3.0
    best = r_prev
    err = abs(v_cur - v_prev)
    if err <= max(tol_abs, tol_rel * abs(best)):
        return best, err, True
    converged = False
    for lev in range(2, max_levels):
        v_next = sum_at(n0 * 2**lev)
        r_cur = (4.0 * v_next - v_cur) / 3.0
        best = (16.0 * r_cur - r_prev) / 15.0
        err = abs(best - r_cur) + 0.1 * abs(r_cur - r_prev)
        v_cur = v_next
        r_prev = r_cur
        if err <= max(tol_abs, tol_rel * abs(best)):
            converged = True
            break
    return best, err, converged


def shell_max_levels(d: int) -> int:
    return {1: 9, 2: 7, 3: 5}.get(d, 3)
