"""Time-domain c.d.f. curves and the Laplace-ladder tail extraction.

The hitting-time c.d.f. solves a first-kind Volterra equation whose kernel
is the return probability p(t; y, y); since p(0; y, y) = 1 the product-
midpoint discretization is well conditioned without regularization.  The
taboo c.d.f.s solve the two-equation convolution system tying H_{x,y,z}
and H_{x,z,y} to the plain hitting curves; in the sum and the difference
of the two unknowns it splits into two scalar equations.  Every discrete
equation is a lower-triangular Toeplitz system, solved by one routine
that halves recursively and carries each half's effect forward with an
FFT convolution, O(n log^2 n) for n time steps.  The kernels and right-hand
sides are heat-kernel curves p(t; 0, r) from quadrature.p_curves, which
sizes their grid.  The Laplace transforms
themselves live in limits.py, whose lambda = 0 values are the d >= 3 limits;
tail_extract reads them on a lambda -> 0 ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExtrapolationUnstable, InvalidQuery, StepTooCoarse
from .kernels import canonical_diff
from .limits import (TabooQuery, TailAsymptotic, TailOrder, Variant, _check_dims, hitting_limit,
                     laplace_taboo, minus_atom, taboo_limit)
from .model import WalkModel, _check_int, is_simple_1d
from .quadrature import ABS_FLOOR, QuadratureConfig, default_config, p_curves


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * step, k = 0..n_steps."""

    step: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be finite and > 0")
        object.__setattr__(self, "n_steps", _check_int("n_steps", self.n_steps))
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step

    @property
    def horizon(self) -> float:
        return self.n_steps * self.step


@dataclass(frozen=True, eq=False)
class CdfCurve:
    """Sampled improper c.d.f. with its limit value.

    ``residual`` carries the max defect of the defining convolution identity
    for curves produced by taboo_cdf; ``warnings`` collects non-fatal
    diagnostics when a solve runs with strict=False.
    """

    grid: TimeGrid
    values: np.ndarray
    limit: float
    variant: Variant = Variant.PLUS
    residual: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.values) != self.grid.n_steps + 1:
            raise ValueError("values length must be n_steps + 1")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def at(self, t: float) -> float:
        """Linear interpolation on the grid."""
        return float(np.interp(t, self.times, self.values))


def _grid_p_curves(model: WalkModel, rs, grid: TimeGrid, cfg: QuadratureConfig) -> dict:
    """p(t; 0, r) for r = 0 and each r in rs on the merged grid t_j = j h/2,
    j = 1..2N: odd j are the kernel's half-grid times, even j the rhs times."""
    rs = tuple(dict.fromkeys(((0,) * model.d,) + tuple(rs)))
    times = np.arange(1, 2 * grid.n_steps + 1) * (0.5 * grid.step)
    return dict(zip(rs, p_curves(model, rs, times, cfg)[0]))


# Unknowns per leaf of the Toeplitz solver's halving recursion.
_LEAF = 128


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix with first column c."""
    idx = np.subtract.outer(np.arange(len(c)), np.arange(len(c)))
    return np.where(idx >= 0, c[np.maximum(idx, 0)], 0.0)


def _conv_head(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """First m terms of the linear convolution a * b (len(a) >= m), by real FFT."""
    b = b[:m]
    size = 1 << (m + len(b) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a[:m], size) * np.fft.rfft(b, size), size)[:m]


def _solve_first_kind(kern: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x from sum_{j<=k} kern[k-j] x_j = rhs[k], k < n (kern[0] != 0), in O(n log^2 n).

    Recursive halving: solve the first half, subtract its effect on the second
    half's rhs with one FFT convolution, solve the second half.  A leaf of at
    most _LEAF unknowns is one matvec with the inverse of the leading leaf
    block: the lower-triangular Toeplitz matrix of the first _LEAF terms of
    the reciprocal series of kern, built once per solve.
    """
    n = len(rhs)
    leaf = min(n, _LEAF)
    inv = _lower_toeplitz(np.linalg.solve(_lower_toeplitz(kern[:leaf]), np.eye(leaf, 1))[:, 0])
    x = np.array(rhs, dtype=float)  # rhs, overwritten by the solution block by block

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= leaf:
            x[lo:hi] = inv[: hi - lo, : hi - lo] @ x[lo:hi]
            return
        mid = lo + leaf * (-(-(hi - lo) // leaf) // 2)  # half the leaves, rounded down
        solve(lo, mid)
        x[mid:hi] -= _conv_head(kern, x[lo:mid], hi - lo)[mid - lo :]
        solve(mid, hi)

    solve(0, n)
    return x


def hitting_cdf(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    grid: TimeGrid,
    cfg: QuadratureConfig | None = None,
    strict: bool = True,
) -> CdfCurve:
    """H_{x,y}(t) on the grid from the product-midpoint Volterra equation.

    Depends on x, y only through y - x up to sign, which the implementation
    canonicalizes, so the Lemma-level shift/reflection identities hold
    exactly.  Recommended step <= 0.1/a.
    """
    cfg = cfg or default_config(model.d)
    p = _grid_p_curves(model, (canonical_diff(x, y, model.d),), grid, cfg)
    return _hitting_from(model, x, y, grid, cfg, strict, p)


def _hitting_from(model, x, y, grid, cfg, strict, p: dict) -> CdfCurve:
    """H_{x,y} from _grid_p_curves: kernel K[m] = p((m + 1/2) h; 0, 0) and rhs
    p(t_{k+1}; 0, r), minus the no-jump term when r = 0."""
    r = canonical_diff(x, y, model.d)
    kern = p[(0,) * model.d][0::2]
    rhs = p[r][1::2]
    if not any(r):
        rhs = rhs - np.exp(-model.a * grid.times[1:])
    warnings = _diagonal_warnings(kern, strict)
    values = np.concatenate([[0.0], np.cumsum(_solve_first_kind(kern, rhs))])
    return CdfCurve(grid=grid, values=values, limit=hitting_limit(model, x, y, cfg),
                    warnings=warnings)


def _diagonal_warnings(kern: np.ndarray, strict: bool) -> tuple[str, ...]:
    dev = abs(kern[0] - 1.0)
    if dev > 0.1:
        msg = f"kernel diagonal p(h/2;y,y) = {kern[0]:.4f} deviates from 1 by {dev:.3f}"
        if strict:
            raise StepTooCoarse(msg)
        return ("step_too_coarse: " + msg,)
    return ()


def _midpoint_kernel(curve_vals: np.ndarray) -> np.ndarray:
    """Curve values at half-grid points by adjacent averaging."""
    return 0.5 * (curve_vals[:-1] + curve_vals[1:])


def taboo_cdf(
    model: WalkModel,
    q: TabooQuery,
    grid: TimeGrid,
    cfg: QuadratureConfig | None = None,
    strict: bool = True,
) -> tuple[CdfCurve, CdfCurve]:
    """(H_{x,y,z}, H_{x,z,y}) solved jointly from the convolution system

        H_{x,y} = H_{x,y,z} + H_{x,z,y} * H_{z,y}
        H_{x,z} = H_{x,z,y} + H_{x,y,z} * H_{y,z}

    with the plain hitting curves as inputs on the same grid.  H_{y,z} has
    the canonical displacement of H_{z,y}, hence the same kernel, rhs and
    limit: one solve serves both.  The sum and the difference of the two
    equations are scalar Toeplitz systems in S = H_{x,y,z} + H_{x,z,y} and
    D = H_{x,y,z} - H_{x,z,y}.  The residual of both identities is
    recomputed and attached to the curves.
    """
    _check_dims(model, q)
    cfg = cfg or default_config(model.d)
    pairs = ((q.x, q.y), (q.x, q.z), (q.z, q.y))
    p = _grid_p_curves(model, [canonical_diff(a, b, model.d) for a, b in pairs], grid, cfg)
    h_xy, h_xz, h_zy = (_hitting_from(model, a, b, grid, cfg, strict, p) for a, b in pairs)
    warnings = tuple(dict.fromkeys(h_xy.warnings + h_xz.warnings + h_zy.warnings))

    n = grid.n_steps
    kern = _midpoint_kernel(h_zy.values)
    rhs1 = h_xy.values[1:]
    rhs2 = h_xz.values[1:]
    # with S = da + db and D = da - db the system splits into two scalar
    # Toeplitz solves on the kernels 1 + K and 1 - K
    s = _solve_first_kind(1.0 + kern, rhs1 + rhs2)
    dd = _solve_first_kind(1.0 - kern, rhs1 - rhs2)
    da, db = 0.5 * (s + dd), 0.5 * (s - dd)
    vals_a = np.concatenate([[0.0], np.cumsum(da)])
    vals_b = np.concatenate([[0.0], np.cumsum(db)])

    # defect of the two defining identities under the same discretization
    res = 0.0
    for vals, dother, rhs in ((vals_a, db, rhs1), (vals_b, da, rhs2)):
        conv = _conv_head(kern, dother, n)
        res = max(res, float(np.max(np.abs(vals[1:] + conv - rhs))))
    return tuple(
        CdfCurve(grid=grid, values=vals, limit=taboo_limit(model, qq, cfg), residual=res,
                 warnings=warnings)
        for vals, qq in ((vals_a, q), (vals_b, q.swapped()))
    )


# ---------------------------------------------------------------------------
# tail-constant extraction from the lambda -> 0 ladder
# ---------------------------------------------------------------------------

_LADDER_KS = range(8, 17)


def tail_extract(
    model: WalkModel,
    q: TabooQuery,
    cfg: QuadratureConfig | None = None,
) -> TailAsymptotic:
    """Estimate the Theorem-1 tail constant from the Laplace deficit transform.

    Evaluates F(lambda) = (H(inf) - LS[H](lambda)) / lambda on the geometric
    ladder lambda_k = a 2^-k, k = 8..16, and removes the known leading
    lambda-order: sqrt(lambda) F / sqrt(pi) -> C_1 in d = 1 and
    -lambda ln(lambda) F -> C_2 in d = 2.  The constant is the intercept of
    a two-term fit (next-order correction sqrt(lambda), resp. 1/ln lambda).
    Only non-simple walks in d <= 2 are supported; d >= 3 would require
    higher Laplace derivatives.
    """
    _check_dims(model, q)
    if is_simple_1d(model):
        raise InvalidQuery("tail_extract requires a non-simple walk")
    if model.d > 2:
        raise InvalidQuery("tail_extract supports d <= 2 only")
    cfg = cfg or default_config(model.d)
    limit = taboo_limit(model, q, cfg)
    lams = model.a * 2.0 ** -np.array(list(_LADDER_KS), dtype=float)
    f_vals = np.array(
        [(limit - laplace_taboo(model, q, lam, cfg)) / lam for lam in lams]
    )
    if model.d == 1:
        raw = np.sqrt(lams) * f_vals / np.sqrt(np.pi)
        regressor = np.sqrt(lams)
        order = TailOrder.INVERSE_SQRT_T
    else:
        raw = -lams * np.log(lams) * f_vals
        regressor = 1.0 / np.log(lams)
        order = TailOrder.INVERSE_LOG_T

    def intercept(m):
        a_mat = np.stack([np.ones(m), regressor[:m]], axis=1)
        coef, *_ = np.linalg.lstsq(a_mat, raw[:m], rcond=None)
        return coef[0]

    fits = np.array([intercept(m) for m in range(5, len(raw) + 1)])
    steps = np.abs(np.diff(fits)) / np.maximum(np.abs(fits[:-1]), ABS_FLOOR)
    if np.max(steps) > 0.10:
        raise ExtrapolationUnstable(
            f"ladder estimates moved by {np.max(steps):.1%} between fits",
            estimates=fits.tolist(),
        )
    return TailAsymptotic(order=order, constant=float(fits[-1]))


# ---------------------------------------------------------------------------
# minus-variant curves
# ---------------------------------------------------------------------------

def minus_from_plus(curve: CdfCurve, model: WalkModel, x: Sequence[int], y: Sequence[int],
                    strict: bool = True) -> CdfCurve:
    """Deconvolve the first holding time: H^-(t) = H(t) + H'(t)/a.

    ``curve`` is a plus curve from x with target y (H_{x,y} or H_{x,y,z}).
    H' uses centered differences inside the grid and second-order one-sided
    ones at the horizon.  At t = 0, H(0) = 0 and H'(0+) = a * minus_atom, so
    the value there is the atom a(y - x)/a exactly.  The limit is unchanged.
    """
    if curve.variant is not Variant.PLUS:
        raise ValueError("minus_from_plus expects a plus-variant curve")
    values = curve.values + np.gradient(curve.values, curve.grid.step, edge_order=2) / model.a
    values[0] = minus_atom(model, x, y)
    warnings = curve.warnings
    noise = float(np.max(np.abs(np.diff(values, 2))))  # TimeGrid has at least 3 points
    if noise > 0.01 * max(curve.limit, 1e-12):
        msg = f"second-difference noise {noise:.3e} exceeds 1% of the limit"
        if strict:
            raise StepTooCoarse(msg)
        warnings = warnings + ("step_too_coarse: " + msg,)
    return CdfCurve(
        grid=curve.grid,
        values=values,
        limit=curve.limit,
        variant=Variant.MINUS,
        residual=curve.residual,
        warnings=warnings,
    )
