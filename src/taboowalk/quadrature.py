"""The grid engine: every torus, shell, one-axis and heat-kernel quadrature,
and every decision on how a grid is sized and refined until it meets its tolerance.

A torus or shell kernel is a midpoint sum over the grid of a box [-s, s]^d:
the torus (s = pi) for smooth integrands, or, in d >= 3, dyadic shells
[-s, s]^d minus [-s/2, s/2]^d with Richardson extrapolation for kernels
singular or peaked at the origin.  Each integrand is g(phi) cos(r.theta)
for a function g of phi.  As exp(i s u.r) = prod_j exp(i s r_j u_j) on the
tensor grid, its sum is a contraction of the array g(phi), which does not
depend on r, with d per-axis vectors of n phases (sum factorisation, Orszag
1980): no cos(r.theta) is evaluated on the grid.

Only the half grid u_0 > 0 is summed, then doubled: phi, g and cos(r.theta) are
even for a symmetric walk, and the midpoint grid with n even (odd n raises
ValueError) is symmetric.  It is cut into dense blocks of at most
``_BLOCK_POINTS`` points along the leading axis; on a shell, phi is kept
at shell points only and g is zero on the inner box.  phi comes from
per-axis phases too: a one-axis jump is one broadcast add, any other a
product telescoped over its axes; no sine is taken per grid point.

One LRU cache under the byte budget ``CACHE_BYTES`` keeps phi blocks, per
integrand key g blocks, and the residue roots of the d <= 2 kernels.  phi
enters at the eviction end, so it stays only while there is room or a second
kernel reads it.  A grid with more than a quarter of the budget in one array
is streamed block by block and never kept.
Block sums are added exactly (math.fsum), so results repeat bit for bit.

Refinement policy; a result that misses its tolerance raises NotConverged.
One driver, ``_refine``, doubles every grid but the p-curves' over capped levels,
one ladder per entry, each entry frozen at the level where it would stop
alone.  ``torus_mean`` (the heat kernel p) runs order 0 (the last sum) over
``_TORUS_DOUBLINGS`` doublings from ``torus_points`` = max(cfg.points_per_axis,
4 max|r_j|) points per axis, as below n = |r_j| every level aliases r_j to
r_j mod n, but from 64 at least.  ``axis_integral`` (d = 2) runs each entry from its own floor,
16 * 2^k >= 4 max|r_j|, up to ``_AXIS_POINTS``.
``shell_integral`` (d >= 3) adds shells s = pi 2^-m, each an order-2
(Richardson) ladder of its displacements, until the analytic core bound is
negligible.  ``p_curves`` is one grid sum on the first torus_points * 2^k,
k <= _TORUS_DOUBLINGS + 1, whose a priori aliasing bound (``_alias_bound``)
meets the tolerance: one GEMM per sub-block of phi points, rows (r, t_b) against
columns of exp(phi tau) offsets, so the exp table is read once.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import NotConverged
from .model import WalkModel, char_exponent_grid

# Soak up rounding noise when an integrand is essentially zero.
ABS_FLOOR = 1e-13
# Relative rounding of a residue sum or mean: a few ulps of the mass it sums.
RESIDUE_ROUNDING = 8.0 * float(np.finfo(float).eps)

# Points per block: 512 KB per float array keeps the temporaries of a block,
# and with them the peak memory of a streamed grid, small.
_BLOCK_POINTS = 1 << 16
# Bytes of phi and g blocks the grid cache may hold.
CACHE_BYTES = 64 << 20
# Doubles in the rows and columns of one heat-kernel GEMM; bounds the peak memory.
_EXP_BLOCK = 1 << 18
# Shells per shell integral, points per axis at a ladder's first level, the
# shell ladder's level cap (3 above d = 3), the one-axis ladder's cap in points,
# and the doublings of a torus mean (one more for a p-curve grid).
_MAX_SHELLS = 62
_SHELL_N0 = 16
_SHELL_LEVELS = {3: 5}
_AXIS_POINTS = 1 << 18
_TORUS_DOUBLINGS = 4


@dataclass(frozen=True)
class QuadratureConfig:
    """The floor of the grid of torus means and p-curves, in points per axis,
    and the relative tolerance of every quadrature.  Level caps are module
    constants: _TORUS_DOUBLINGS, _SHELL_LEVELS (d >= 3) and _AXIS_POINTS (d = 2)."""

    points_per_axis: int = 256
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.points_per_axis < 16 or self.points_per_axis % 2:
            raise ValueError("points_per_axis must be even and >= 16")
        if not 0.0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and > 0")


def default_config(d: int) -> QuadratureConfig:
    """Floors of 256 points per axis and rel_tol 1e-8 in d <= 2 (a d = 1 curve to
    t = 1000 needs 256), and 16 and 1e-6 in d >= 3; a torus mean starts at 64."""
    if d <= 2:
        return QuadratureConfig()
    return QuadratureConfig(points_per_axis=16, rel_tol=1e-6)


class Integrand(NamedTuple):
    """g(phi) cos(r.theta); ``key`` names it in the cache."""

    key: Hashable
    g: Callable[[np.ndarray], np.ndarray]


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
    A jump pair z along one axis j adds -4 a(z) sin^2(s z_j u_j / 2), summed per
    axis; any other adds 2 a(z) Re(sum_j prod_{i<j} (1 + A_i) A_j) over the axes
    with z_j != 0, A_j = exp(i s z_j u_j) - 1 from ``_phases``.
    """
    if n % 2:
        raise ValueError("n must be even for the half-grid fold")
    if shell and n % 4:
        raise ValueError("n must be divisible by 4 for shell sums")
    d = model.d
    outer = np.abs(2 * np.arange(n) + 1 - n) * 2 > n  # |offset| > 1/2, in integers
    step = max(1, _BLOCK_POINTS // n ** (d - 1))

    def along(v, j):  # a vector of n values along axis j of the grid
        return v.reshape((-1,) + (1,) * (d - 1 - j))

    def build():
        up, axis, pairs = s * _axis_offsets(n)[n // 2 :], np.zeros((d, n // 2)), []
        for z, a in model.jumps:
            nz = [j for j in range(d) if z[j]]
            if z < tuple(-c for c in z):  # z and -z give equal terms: each pair once
                continue
            if len(nz) == 1:  # even in u, so summed per axis for u > 0
                axis[nz[0]] -= 4.0 * a * np.sin(0.5 * (z[nz[0]] * up)) ** 2
            else:
                pairs.append((2.0 * a, z, nz))
        axis = [along(np.concatenate([v[::-1], v]), j) for j, v in enumerate(axis)]
        em1 = iter(_phases([z[j] for _, z, nz in pairs for j in nz], s, n)[1])  # one call for all
        pairs = [(a2, [(j, along(next(em1), j)) for j in nz]) for a2, z, nz in pairs]
        for i0 in range(n // 2, n, step):
            rows = slice(i0, min(i0 + step, n))
            mask = None
            if shell:
                flags = np.meshgrid(outer[rows], *[outer] * (d - 1), indexing="ij", sparse=True)
                mask = reduce(np.logical_or, flags)
                mask = None if mask.all() else mask
            ph = axis[0][rows] + sum(axis[1:], 0.0)
            for a2, axes in pairs:
                *head, last = [aj[rows] if j == 0 else aj for j, aj in axes]
                term, prod = 0.0, 1.0
                for aj in head:
                    term, prod = term + prod * aj, prod * (1.0 + aj)
                ph += a2 * (term + prod * last).real
            ph = ph.ravel() if mask is None else ph[mask]
            ph.setflags(write=False)
            yield i0, rows.stop - i0, mask, ph

    return _CACHE.get(("phi", model, float(s), n, shell), d, n, build, cold=True)


def _g_blocks(model: WalkModel, f: Integrand, s: float, n: int, shell: bool):
    """(i0, dense g block) for each block."""

    def build():
        for i0, rows, mask, ph in phi_blocks(model, s, n, shell):
            vals = f.g(ph)
            if mask is None:
                g = vals.reshape((rows,) + (n,) * (model.d - 1))
            else:
                g = np.zeros(mask.shape)
                g[mask] = vals
            g.setflags(write=False)
            yield i0, g

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


def _cos_weights(rs: Sequence[Sequence[int]], s: float, n: int, i0: int, rows: int) -> np.ndarray:
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


def midpoint_sum(model: WalkModel, integrand: Integrand, r, s: float, n: int, shell: bool = False):
    """h^d * sum of g(phi) cos(r.theta) over the midpoint grid of [-s, s]^d,
    for one displacement r, or the list of m sums for an (m, d) set of them.

    h = 2s/n; ``shell`` skips the inner box [-s/2, s/2]^d.  cos(r.theta) is
    the real part of prod_j e_j, so each block contracts from the last axis
    down: one real GEMM against Re e and Im e of every displacement, then one
    complex contraction per remaining axis and displacement.
    """
    rs = np.array(r, dtype=float)
    e = _phases(rs.reshape(-1, model.d), s, n)[0]  # (m, d, n)
    m = len(e)
    last = np.column_stack([e[:, -1].real.T, e[:, -1].imag.T])
    parts = [[] for _ in range(m)]
    for i0, g in _g_blocks(model, integrand, float(s), n, shell):
        rows = slice(i0, i0 + g.shape[0])
        v = g.reshape(-1, n) @ last if g.ndim > 1 else None
        for k, part in enumerate(parts):
            if v is None:  # d = 1: the contraction is one dot product
                part.append(float(g @ e[k, 0, rows].real))
                continue
            acc = (v[:, k] + 1j * v[:, m + k]).reshape(g.shape[:-1])
            for ej in [e[k, 0, rows], *e[k, 1:-1]][::-1]:
                acc = acc @ ej
            part.append(float(acc.real))
    sums = [2.0 * math.fsum(part) * (2.0 * s / n) ** model.d for part in parts]
    return sums if rs.ndim == 2 else sums[0]


def torus_points(cfg: QuadratureConfig, rs) -> int:
    """Points per axis a torus grid for the displacements rs starts at:
    max(cfg.points_per_axis, 4 max|r_j|), the floor against aliasing."""
    return max(cfg.points_per_axis, 4 * max(abs(c) for r in rs for c in r))


def _size(x) -> float:
    """|x|, or the largest |x_i| of an array; a float stays on float arithmetic."""
    return float(np.max(np.abs(x))) if isinstance(x, np.ndarray) else abs(x)


def _refine(sum_at: Callable, n0: int, levels: int, tol_abs: list, tol_rel: float, order: int):
    """Midpoint sums at n = n0 * 2^k, k < levels, one ladder per entry of tol_abs:
    sum_at(n, ks) returns the sums at n of the live entries ks.  Order 0 takes the
    last sum, its error the gap to the one before; order 2 extrapolates in h^2,
    then h^4.  An entry is frozen, and not summed again, once its error is at most
    max(tol_abs, tol_rel * |value|).  Returns lists (value, est_error, converged)."""
    m = len(tol_abs)
    best, err, prev, rich, ks = [None] * m, [math.inf] * m, [None] * m, [None] * m, list(range(m))
    for lev in range(levels):
        for k, v in zip(ks, sum_at(n0 * 2**lev, ks)):
            if lev == 0:
                best[k] = v
            elif order == 0:
                best[k], err[k] = v, _size(v - prev[k])
            elif lev == 1:
                best[k] = rich[k] = (4.0 * v - prev[k]) / 3.0
                err[k] = abs(v - prev[k])
            else:
                r = (4.0 * v - prev[k]) / 3.0
                best[k] = (16.0 * r - rich[k]) / 15.0
                err[k], rich[k] = abs(best[k] - r) + 0.1 * abs(r - rich[k]), r
            prev[k] = v
        ks = [k for k in ks if not err[k] <= max(tol_abs[k], tol_rel * _size(best[k]))]
        if not ks:
            break
    return best, err, [k not in ks for k in range(m)]


def _not_converged(name, value, err) -> NotConverged:
    shown = "" if isinstance(value, np.ndarray) else f"value={value!r} "  # no p-curve in a message
    return NotConverged(f"{name} refinement limit reached: {shown}est_error={err:.3e}",
                        value=value, est_error=err)


def torus_mean(
    name: str, model: WalkModel, integrand: Integrand, r: Sequence[int], cfg: QuadratureConfig
) -> tuple[float, float]:
    """(2 pi)^-d * torus integral of the integrand at displacement r, as
    (value, est_error): order 0 to cfg.rel_tol from torus_points, but at least 64:
    below that, two grids can both miss the narrow peak of a long-time p and agree."""
    (val,), (err,), (ok,) = _refine(
        lambda n, ks: [midpoint_sum(model, integrand, r, np.pi, n) / (2.0 * np.pi) ** model.d],
        max(torus_points(cfg, (r,)), 64), _TORUS_DOUBLINGS + 1, [ABS_FLOOR], cfg.rel_tol, 0)
    if not ok:
        raise _not_converged(name, val, err)
    return val, err


def axis_integral(name: str, means: Callable, rs: Sequence, rel_tol: float, order: int) -> list:
    """One-axis integrals for each r of rs, as (value, est_error) or its
    NotConverged; means(n, rs) gives their means on n midpoints.  Each entry
    runs its own ladder, so its value does not depend on the set it is read
    with.  A mean may be an array: its first element is the value, and the
    others, which must converge with it, scale its tolerance and its error,
    which is at least RESIDUE_ROUNDING times that scale."""
    floors: dict = {}
    for r in rs:  # the first 16 * 2^k >= 4 max|r_j|
        k = max(0, (max(map(abs, r)) - 1) // 4).bit_length()
        floors.setdefault(_SHELL_N0 << k, []).append(r)
    out = {}
    for n0, group in floors.items():
        vals, errs, oks = _refine(lambda n, ks: means(n, [group[k] for k in ks]), n0,
                                  max(1, (_AXIS_POINTS // n0).bit_length()),
                                  [0.0] * len(group), rel_tol, order)
        for r, v, e, ok in zip(group, vals, errs, oks):
            scale, v = _size(v), float(np.ravel(v)[0])
            e = max(e, RESIDUE_ROUNDING * scale)
            out[r] = (v, e) if ok and e <= rel_tol * scale else _not_converged(name, v, e)
    return [out[r] for r in rs]


def shell_integral(name, model, integrand, rs, rel_tol, core_fn, scale_hints=None):
    """(2 pi)^-d * sum of dyadic-shell quadratures of the integrand toward 0,
    for each displacement r of rs, one vector ladder per shell; d >= 3.

    core_fn(half_width, r) gives the estimate for the remaining central box
    and a bound on its error; an entry stops once that bound is negligible
    at rel_tol.  Each entry's scale tracks its largest running total, from
    its scale hint (default 0): an oscillatory value may be exponentially
    smaller than the mass integrated, and accuracy is only meaningful
    relative to that mass.  Returns (value, est_error) per entry, or its
    NotConverged when a shell or the core bound hit its cap and the error
    exceeds rel_tol times the scale.
    """
    total, err, refined = [0.0] * len(rs), [0.0] * len(rs), [True] * len(rs)
    scale, live = list(scale_hints or total), list(range(len(rs)))
    for sh in range(_MAX_SHELLS + 1):
        s, shelling = np.pi * 2.0**-sh, [rs[k] for k in live]
        tol_abs = [0.05 * rel_tol * max(abs(total[k]), scale[k], ABS_FLOOR) for k in live]
        vs, es, convs = _refine(
            lambda n, ks: midpoint_sum(model, integrand, [shelling[k] for k in ks], s, n, True),
            _SHELL_N0, _SHELL_LEVELS.get(model.d, 3), tol_abs, 0.05 * rel_tol, 2)
        for k, v, e, conv in zip(list(live), vs, es, convs):
            total[k], err[k], refined[k] = total[k] + v, err[k] + e, refined[k] and conv
            scale[k] = max(scale[k], abs(total[k]))
            core_value, core_bound = core_fn(s / 2.0, rs[k])
            done = core_bound <= 0.02 * rel_tol * max(scale[k], ABS_FLOOR)
            if done or sh == _MAX_SHELLS:
                total[k], err[k] = total[k] + core_value, err[k] + core_bound
                refined[k] = refined[k] and done
                scale[k] = max(scale[k], abs(total[k]))
                live.remove(k)
        if not live:
            break
    norm = (2.0 * np.pi) ** model.d
    return [_not_converged(name, t / norm, e / norm)
            if not ok and e > max(rel_tol * sc, ABS_FLOOR * norm) else (t / norm, e / norm)
            for t, e, ok, sc in zip(total, err, refined, scale)]


def _p_grid_sum(model: WalkModel, rs: tuple, times: np.ndarray, n: int) -> np.ndarray:
    """Midpoint estimates of p(t; 0, r) on equally spaced times, one row per r
    in rs, n points per axis.

    exp(phi t) = exp(phi t_b) exp(phi tau) over blocks of B ~ sqrt(T) offsets
    tau from starts t_b.  Each sub-block of phi points, its rows and columns at
    most ``_EXP_BLOCK`` doubles, is one GEMM of rows (r, t_b), cos(r.theta)
    exp(phi t_b), against columns exp(phi tau): the exp table is read once.
    """
    b = int(np.ceil(np.sqrt(len(times))))
    starts, tau = times[::b], times[:b] - times[0]
    q = max(1, _EXP_BLOCK // (len(rs) * len(starts) + b))
    out = np.zeros((len(rs) * len(starts), b))
    for i0, rows, _, ph in phi_blocks(model, np.pi, n):
        w = _cos_weights(rs, np.pi, n, i0, rows)
        for k0 in range(0, len(ph), q):
            p = ph[k0 : k0 + q]
            lhs = (w[:, None, k0 : k0 + q] * np.exp(np.outer(starts, p))).reshape(-1, len(p))
            e = np.outer(p, tau)
            out += lhs @ np.exp(e, out=e)
    return 2.0 * out.reshape(len(rs), -1)[:, : len(times)] / n**model.d


def _return_bound(model: WalkModel, ts: np.ndarray, n: int) -> np.ndarray:
    """n^-d sum of exp(t phi) over the grid 2 pi j / n, j in Z_n^d, for each t of ts:
    sum_k p(t; 0, n k) over k in Z^d, so at least p(t; 0, 0).  phi is even, so the
    first axis runs over j_0 = 0..n/2, its inner values counted twice."""
    shape = (n // 2 + 1,) + (n,) * (model.d - 1)
    size, out = math.prod(shape), np.zeros(len(ts))
    for i0 in range(0, size, _BLOCK_POINTS):
        j = np.array(np.unravel_index(np.arange(i0, min(i0 + _BLOCK_POINTS, size)), shape)).T
        ph = char_exponent_grid(model, 2.0 * np.pi / n * j)
        e = np.multiply.outer(ts, ph)
        out += np.exp(e, out=e) @ np.where(j[:, 0] % (n // 2), 2.0, 1.0)
    return out / n**model.d


def _alias_bound(model: WalkModel, rs: tuple, t: float, n: int) -> float:
    """A bound on the error of the n-point midpoint mean of p(t'; 0, r), every r in rs
    and t' <= t.  For n even that mean is sum_k (-1)^|k|_1 p(t'; 0, r + n k), k in Z^d
    (Trefethen & Weideman, SIAM Rev. 56, 2014), off by at most the sum over k != 0.
    A complex shift of p's Fourier integral gives p(t; 0, x) <= p(t; 0, 0)
    exp(-sigma.x + t sum_z a(z) (cosh(sigma.z) - 1)); the k of each sign pattern e
    take sigma = s e, the least over a grid of s (s |e.z| <= 700), and sum as a
    geometric series.  p(t; 0, 0) falls with t and the rest grows: over brackets
    [a, b] ending at t (eight 2^(i/4) below it, four an octave apart, then 0), take
    _return_bound at a (1 at 0) times the rest at b.
    """
    if t <= 0.0:
        return 0.0  # p(0; 0, r) is summed exactly
    e = np.array([c for c in itertools.product((-1, 0, 1), repeat=model.d) if any(c)])
    ez = e @ model.support.T  # (sign patterns, jumps)
    s = 700.0 / np.abs(ez).max() * 2.0 ** -np.arange(0.0, 30.0, 0.125)
    lam = (np.cosh(np.multiply.outer(ez, s)) - 1.0).transpose(0, 2, 1) @ model.rates
    decay = np.abs(e) @ (n - np.abs(np.array(rs)).max(axis=0))
    geo = np.abs(e).sum(axis=1)[:, None] * np.log1p(-np.exp(-n * s))
    ts = np.append(t, 2.0 ** ((np.ceil(4.0 * np.log2(t)) - np.r_[1:9, 12:25:4]) / 4.0))
    with np.errstate(over="ignore"):  # t cosh(s z) may pass the float range: inf, never the least
        rest = np.exp(np.min(ts[:, None, None] * lam - s * decay[:, None] - geo, axis=2)).sum(axis=1)
    return float(np.max(rest * np.append(_return_bound(model, ts[1:], n), 1.0)))


def p_curves(model: WalkModel, rs: tuple, times: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """p(t; 0, r) on equally spaced times, one row per r, in one grid pass.

    The grid is the first torus_points(cfg, rs) * 2^k points per axis,
    k <= _TORUS_DOUBLINGS + 1, whose aliasing bound over the times is at most
    max(rel_tol, ABS_FLOOR); NotConverged if none is.
    """
    tol, t, n = max(cfg.rel_tol, ABS_FLOOR), float(np.max(times)), torus_points(cfg, rs)
    top = n << (_TORUS_DOUBLINGS + 1)
    while (bound := _alias_bound(model, rs, t, n)) > tol and n < top:
        n *= 2
    vals = np.clip(_p_grid_sum(model, rs, times, n), 0.0, 1.0)
    if bound > tol:
        raise _not_converged("p-curve", vals, bound)
    return vals
