"""The grid engine: every torus, residue and heat-kernel quadrature, and every
decision on how a grid is sized and refined until it meets its tolerance.

Two engines.  The heat kernel p(t; 0, r) is a midpoint mean over the torus
[-pi, pi]^d of exp(phi t) cos(r.theta) (``p_curves``).  phi and cos(r.theta)
are even for a symmetric walk, and the midpoint grid with n even (odd n raises
ValueError) is symmetric, so only the half grid theta_1 > 0 is summed, then
doubled: it is the residue grid below of d + 1 axes at n / 2, walked in the
same blocks, with phi (model.char_exponent_grid) and cos(r.theta) taken point
by point.  The grid is the first n = 16 * 2^k >= 4 max|r_j| (``_floor_level``,
which floors the residue ladders at 8 max|r_j|) whose a priori aliasing bound
(``_alias_bound``) meets the tolerance, n^d at most ``_TORUS_POINTS``: one GEMM
per sub-block of points, rows (r, t_b) against columns of exp(phi tau)
offsets, so the exp table is read once.  Nothing is refined or cached.

G_lambda and rho are residue ladders (``axis_integral``) over theta' =
(theta_1, ..., theta_{d-1}): the theta_d integral at each point of
``_residue_grid`` is a sum of residues (kernels._residue_sums).  One driver,
``_refine``, doubles n, one ladder per entry, each entry frozen at the level
where it would stop alone, from its own floor ``_floor_level``, 8 max|r_j| (the
graded theta' runs twice as fast at u = pi), up to ``_GRID_POINTS`` points.
Every residue grid is graded (Sidi's sin-map theta' = u - sin u per axis).
G_lambda at lambda > 0 is analytic but peaked at theta' = 0, and rho in d = 2
has a |theta_1| cusp there, which the grading turns into |u|^5 (its gaps fall
about 64x per doubling): both take the last sum.  G_0 in d >= 3 is singular
like 1/|theta'| at 0; theta' ~ u^3 / 6 makes its midpoint error run in
h^(3(d-2)), h^(3(d-2)+2), which the ladder removes (Lyness, Math. Comp. 30,
1976).

This module holds no cache: the residue roots are kept by kernels.  A result
that misses its tolerance raises NotConverged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
# Doubles in the rows and columns of one heat-kernel GEMM; bounds the peak memory.
_EXP_BLOCK = 1 << 18
# Points per axis at the lowest grid floor; caps in points per grid of a residue
# ladder (n = 1024 in d = 3) and a p-curve (8192 per axis in d = 2, 512 in d = 3).
_LADDER_FLOOR = 16
_GRID_POINTS = 1 << 21
_TORUS_POINTS = 1 << 27


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance of every quadrature.  Each grid follows from it, from
    the floor 16 * 2^k >= 4 max|r_j| of a p-curve (8 max|r_j| of a residue ladder)
    up to 2^27 points for a p-curve (_TORUS_POINTS) or _GRID_POINTS for a residue
    ladder."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and > 0")


def default_config(d: int) -> QuadratureConfig:
    """rel_tol 1e-8 in d <= 2 and 1e-6 in d >= 3; the grids follow from it."""
    return QuadratureConfig() if d <= 2 else QuadratureConfig(rel_tol=1e-6)


def _floor_level(rs, per_r: int = 4) -> int:
    """k of the floor against aliasing of the displacements rs, the first grid
    of _LADDER_FLOOR * 2^k >= per_r max|r_j| points per axis."""
    reach = per_r * max(abs(c) for r in rs for c in r)
    return max(0, (reach - 1) // _LADDER_FLOOR).bit_length()


def _size(x) -> float:
    """|x|, or the largest |x_i| of an array; a float stays on float arithmetic."""
    return float(np.max(np.abs(x))) if isinstance(x, np.ndarray) else abs(x)


def _refine(sum_at: Callable, n0: int, levels: int, tol_abs: list, tol_rel: float, order: tuple):
    """Midpoint sums at n = n0 * 2^k, k < levels, one ladder per entry of tol_abs:
    sum_at(n, ks) returns the sums at n of the live entries ks.  Each level
    extrapolates in h by the powers of ``order`` in turn, one more per level
    (Richardson); the value is the last column.  Its error is the gap of the
    sums when at most one power is removed, else the gap to the column before
    plus a tenth of that column's change from the level before.  An entry is
    frozen, and not summed again, once its error is at most max(tol_abs,
    tol_rel * |value|).  Returns lists (value, est_error, converged)."""
    m, steps = len(tol_abs), [(2.0**p, 2.0**p - 1.0) for p in order]
    best, err, rows, ks = [None] * m, [math.inf] * m, [()] * m, list(range(m))
    for lev in range(levels):
        for k, v in zip(ks, sum_at(n0 * 2**lev, ks)):
            row, prev = [v], rows[k]
            for (f, g), below in zip(steps, prev):
                row.append((f * row[-1] - below) / g)
            if len(row) > 2:
                err[k] = _size(row[-1] - row[-2]) + 0.1 * _size(row[-2] - prev[len(row) - 2])
            elif lev:
                err[k] = _size(v - prev[0])
            best[k], rows[k] = row[-1], row
        ks = [k for k in ks if not err[k] <= max(tol_abs[k], tol_rel * _size(best[k]))]
        if not ks:
            break
    return best, err, [k not in ks for k in range(m)]


def _not_converged(name, value, err) -> NotConverged:
    shown = "" if isinstance(value, np.ndarray) else f"value={value!r} "  # no p-curve in a message
    return NotConverged(f"{name} refinement limit reached: {shown}est_error={err:.3e}",
                        value=value, est_error=err)


def _judged(name: str, value, err: float, scale: float, rel_tol: float, ok: bool = True):
    """(value, err) if ok and err <= rel_tol * scale, else its NotConverged."""
    return (value, err) if ok and err <= rel_tol * scale else _not_converged(name, value, err)


def _residue_points(d: int, n: int) -> int:
    """Points of the residue grid of n: n (2n)^(d - 2), or 1 in d = 1."""
    return n * (2 * n) ** (d - 2) if d > 1 else 1


def _residue_grid(d: int, n: int, mapped: bool):
    """(theta', weight) for each block of at most _BLOCK_POINTS points of the grid
    of theta' = (theta_1, ..., theta_{d-1}): u on n midpoints of (0, pi) on the
    first axis and 2n of (-pi, pi) on each other, theta' = u with weight None,
    or, ``mapped``, theta' = u - sin u with weight prod_j (1 - cos u_j), whose
    mean is 1 (Sidi's sin-map: the points cluster at theta' = 0).  d = 1 has
    the one point theta' = ().  Uniform, d + 1 axes at n / 2 give the torus
    half grid of n points per axis that _p_grid_sum walks."""
    if d == 1:
        yield np.zeros((1, 0)), None
        return
    shape, size = (n,) + (2 * n,) * (d - 2), _residue_points(d, n)
    for k0 in range(0, size, _BLOCK_POINTS):
        idx = np.unravel_index(np.arange(k0, min(k0 + _BLOCK_POINTS, size)), shape)
        u = np.stack([(2 * i + 1 - 2 * n * (j > 0)) * (np.pi / (2 * n)) for j, i in enumerate(idx)], axis=1)
        if not mapped:
            yield u, None
            continue
        yield u - np.sin(u), np.prod(2.0 * np.sin(0.5 * u) ** 2, axis=1)


def axis_integral(name: str, means: Callable, rs: Sequence, rel_tol: float, order: tuple) -> list:
    """Residue-ladder integrals for each r of rs, as (value, est_error) or its
    NotConverged; means(n, rs) gives their means on the graded residue grid of
    n, and ``order`` holds the Richardson powers of their error.  Each entry runs
    its own ladder, so its value does not depend on the set it is read with.
    A mean may be an array: its first element is the value, and the others,
    which must converge with it, scale its tolerance and its error, which is at
    least RESIDUE_ROUNDING times that scale.  A rel_tol below RESIDUE_ROUNDING
    cannot be met, so each entry then sums only the two grids its error
    estimate needs, and fails."""
    d, floors = len(rs[0]), {}
    # the finest grid, _LADDER_FLOOR 2^top, has 2^(d-2) n^(d-1) <= _GRID_POINTS points
    top = (_GRID_POINTS.bit_length() - d + 1) // (d - 1) - _LADDER_FLOOR.bit_length() + 1
    for r in rs:  # each r at its floor, low enough for two grids and every power of order
        floors.setdefault(max(0, min(_floor_level((r,), 8), top - max(1, len(order)))), []).append(r)
    out, most = {}, top + 1 if rel_tol >= RESIDUE_ROUNDING else 2  # levels per ladder
    for k0, group in floors.items():
        vals, errs, oks = _refine(lambda n, ks: means(n, [group[k] for k in ks]), _LADDER_FLOOR << k0,
                                  min(top + 1 - k0, most), [0.0] * len(group), rel_tol, order)
        for r, v, e, ok in zip(group, vals, errs, oks):
            scale, v = _size(v), float(np.ravel(v)[0])
            e = max(e, RESIDUE_ROUNDING * scale)
            out[r] = _judged(name, v, e, scale, rel_tol, ok)
    return [out[r] for r in rs]


def _p_grid_sum(model: WalkModel, rs: tuple, times: np.ndarray, n: int) -> np.ndarray:
    """Midpoint estimates of p(t; 0, r) on equally spaced times, one row per r
    in rs, n points per axis (n even, else ValueError).

    The half grid theta_1 > 0 is the residue grid of d + 1 axes at n / 2, walked
    block by block; phi and cos(r.theta) are taken at each of its points.
    exp(phi t) = exp(phi t_b) exp(phi tau) over blocks of B ~ sqrt(T) offsets
    tau from starts t_b.  Each sub-block of points, its rows and columns at
    most ``_EXP_BLOCK`` doubles, is one GEMM of rows (r, t_b), cos(r.theta)
    exp(phi t_b), against columns exp(phi tau): the exp table is read once.
    """
    if n % 2:
        raise ValueError("n must be even for the half-grid fold")
    b = int(np.ceil(np.sqrt(len(times))))
    starts, tau = times[::b], times[:b] - times[0]
    q = max(1, _EXP_BLOCK // (len(rs) * len(starts) + b))
    out, r = np.zeros((len(rs) * len(starts), b)), np.array(rs, dtype=float)
    for th, _ in _residue_grid(model.d + 1, n // 2, False):
        ph, w = char_exponent_grid(model, th), np.cos(r @ th.T)
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


def _alias_bound(model: WalkModel, rs: tuple, t: float, n: int, tol: float = 0.0) -> float:
    """A bound on the error of the n-point midpoint mean of p(t'; 0, r), every r in rs
    and t' <= t.  For n even that mean is sum_k (-1)^|k|_1 p(t'; 0, r + n k), k in Z^d
    (Trefethen & Weideman, SIAM Rev. 56, 2014), off by at most the sum over k != 0.
    A complex shift of p's Fourier integral gives p(t; 0, x) <= p(t; 0, 0)
    exp(-sigma.x + t sum_z a(z) (cosh(sigma.z) - 1)); the k of each sign pattern e
    take sigma = s e, the least over a grid of s (s |e.z| <= 700), and sum as a
    geometric series.  p(t; 0, 0) falls with t and the rest grows: over brackets
    [a, b] ending at t (eight 2^(i/4) below it, four an octave apart, then 0), take
    _return_bound at a (1 at 0) times the rest at b.  A bracket whose rest is at
    most ``tol`` takes 1 for p(a; 0, 0) <= 1: it cannot lift the bound above tol.
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
    start = np.ones(len(ts))
    if (need := np.flatnonzero(rest[:-1] > tol)).size:
        start[need] = _return_bound(model, ts[need + 1], n)
    return float(np.max(rest * start))


def p_curves(model: WalkModel, rs: tuple, times: np.ndarray, cfg: QuadratureConfig) -> tuple:
    """(p(t; 0, r) on equally spaced times, one row per r, est_error), in one grid pass.

    The grid is the first n = 2^k points per axis from the floor _floor_level(rs),
    n^d at most _TORUS_POINTS, whose aliasing bound over the times is at most
    max(rel_tol, ABS_FLOOR); NotConverged if none is.  est_error is that bound
    plus RESIDUE_ROUNDING, the rounding of a mean of unit mass.
    """
    tol, t = max(cfg.rel_tol, ABS_FLOOR), float(np.max(times))
    top = 1 << (_TORUS_POINTS.bit_length() - 1) // model.d  # top^d <= _TORUS_POINTS
    n = min(_LADDER_FLOOR << _floor_level(rs), top)
    while (bound := _alias_bound(model, rs, t, n, tol)) > tol and n < top:
        n *= 2
    vals = np.clip(_p_grid_sum(model, rs, times, n), 0.0, 1.0)
    if bound > tol:
        raise _not_converged("p-curve", vals, bound + RESIDUE_ROUNDING)
    return vals, bound + RESIDUE_ROUNDING
