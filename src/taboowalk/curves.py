"""Time-domain c.d.f. curves and Laplace-domain evaluators.

The hitting-time c.d.f. solves a first-kind Volterra equation whose kernel
is the return probability p(t; y, y); since p(0; y, y) = 1 the product-
midpoint time-stepping is well conditioned without regularization.  The
taboo c.d.f.s solve the two-equation convolution system tying H_{x,y,z}
and H_{x,z,y} to the four plain hitting curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExtrapolationUnstable, InvalidQuery, NotConverged, StepTooCoarse
from .kernels import QuadratureConfig, _cfg, canonical_diff, green_function
from .limits import TabooQuery, TailAsymptotic, TailOrder, Variant, hitting_limit, taboo_limit
from .model import WalkModel, as_vec, is_simple_1d
from .quadrature import ABS_FLOOR, phi_chunks


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * step, k = 0..n_steps."""

    step: float
    n_steps: int

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be > 0")
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


# ---------------------------------------------------------------------------
# transition-probability curves: every displacement in one pass per chunk
# ---------------------------------------------------------------------------

# Doubles in one block of exp(phi tau) offsets; bounds the peak memory.
_EXP_BLOCK = 1 << 22


def _p_grid_sum(model: WalkModel, rs: tuple, times: np.ndarray, n: int, uniform: bool) -> np.ndarray:
    """Midpoint estimates of p(t; 0, r), one row per r in rs, n points per axis.

    With ``uniform`` (equally spaced times) exp(phi t) = exp(phi t_b) exp(phi tau)
    over blocks of B ~ sqrt(T) offsets tau: one exp table per chunk, then one
    GEMM per block.  Otherwise every time gets a direct exp.
    """
    rv = np.asarray(rs, dtype=float)
    out = np.zeros((len(rs), len(times)))
    for u, ph in phi_chunks(model, np.pi, n):
        w = np.cos(np.pi * (rv @ u.T))
        if not uniform:
            out += w @ np.exp(np.outer(ph, times))
            continue
        b = max(1, min(int(np.ceil(np.sqrt(len(times)))), _EXP_BLOCK // len(ph)))
        e0 = np.exp(np.outer(ph, times[:b] - times[0]))
        for j0 in range(0, len(times), b):
            jb = min(b, len(times) - j0)
            out[:, j0 : j0 + jb] += (w * np.exp(ph * times[j0])) @ e0[:, :jb]
    return 2.0 * out / n**model.d


def _p_curves(model: WalkModel, rs: tuple, times: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """p(t; 0, r) on uniform times, one row per r, refined until rel_tol.

    All rows are checked together against a direct-exp probe at twice the
    grid on 8 probe times, the first and the last among them; raises
    NotConverged when cfg.refinement_limit doublings do not close the gap.
    """
    probe_idx = np.unique(np.linspace(0, len(times) - 1, 8).astype(int))
    n = cfg.points_per_axis
    for _ in range(cfg.refinement_limit + 1):
        vals = _p_grid_sum(model, rs, times, n, uniform=True)
        probe = _p_grid_sum(model, rs, times[probe_idx], 2 * n, uniform=False)
        gap = float(np.max(np.abs(probe - vals[:, probe_idx])))
        if gap <= max(cfg.rel_tol, ABS_FLOOR):
            return np.clip(vals, 0.0, 1.0)
        n *= 2
    raise NotConverged(f"p-curve refinement limit reached: est_error={gap:.3e}",
                       value=np.clip(vals, 0.0, 1.0), est_error=gap)


def _grid_p_curves(model: WalkModel, rs, grid: TimeGrid, cfg: QuadratureConfig) -> dict:
    """p(t; 0, r) for r = 0 and each r in rs on the merged grid t_j = j h/2,
    j = 1..2N: odd j are the kernel's half-grid times, even j the rhs times."""
    rs = tuple(dict.fromkeys(((0,) * model.d,) + tuple(rs)))
    times = np.arange(1, 2 * grid.n_steps + 1) * (0.5 * grid.step)
    return dict(zip(rs, _p_curves(model, rs, times, cfg)))


def _solve_first_kind(kern: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Increments dH from sum_{j<=k} kern[k-j] dH_j = rhs[k] (unit-ish diagonal)."""
    n = len(rhs)
    dh = np.empty(n)
    for k in range(n):
        acc = rhs[k] - (kern[1 : k + 1][::-1] @ dh[:k] if k else 0.0)
        dh[k] = acc / kern[0]
    return dh


def hitting_cdf(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    grid: TimeGrid,
    cfg: QuadratureConfig | None = None,
    strict: bool = True,
) -> CdfCurve:
    """H_{x,y}(t) on the grid by product-midpoint Volterra time-stepping.

    Depends on x, y only through y - x up to sign, which the implementation
    canonicalizes, so the Lemma-level shift/reflection identities hold
    exactly.  Recommended step <= 0.1/a.
    """
    cfg = _cfg(model.d, cfg)
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
    warnings = _check_kernel_diagonal(kern, strict)
    values = np.concatenate([[0.0], np.cumsum(_solve_first_kind(kern, rhs))])
    return CdfCurve(grid=grid, values=values, limit=hitting_limit(model, x, y, cfg),
                    warnings=warnings)


def _check_kernel_diagonal(kern: np.ndarray, strict: bool) -> tuple[str, ...]:
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
    limit: one solve serves both.  The residual of both identities is
    recomputed and attached to the curves.
    """
    if q.d != model.d:
        raise InvalidQuery(f"query dimension {q.d} != model dimension {model.d}")
    cfg = _cfg(model.d, cfg)
    pairs = ((q.x, q.y), (q.x, q.z), (q.z, q.y))
    p = _grid_p_curves(model, [canonical_diff(a, b, model.d) for a, b in pairs], grid, cfg)
    h_xy, h_xz, h_zy = (_hitting_from(model, a, b, grid, cfg, strict, p) for a, b in pairs)
    warnings = tuple(dict.fromkeys(h_xy.warnings + h_xz.warnings + h_zy.warnings))

    n = grid.n_steps
    kern = _midpoint_kernel(h_zy.values)
    rhs1 = h_xy.values[1:]
    rhs2 = h_xz.values[1:]
    da = np.empty(n)
    db = np.empty(n)
    det = 1.0 - kern[0] * kern[0]
    sum_a = sum_b = 0.0  # running sums of da[:k], db[:k]
    for k in range(n):
        conv1 = kern[1 : k + 1][::-1] @ db[:k] if k else 0.0
        conv2 = kern[1 : k + 1][::-1] @ da[:k] if k else 0.0
        r1 = rhs1[k] - sum_a - conv1
        r2 = rhs2[k] - sum_b - conv2
        da[k] = (r1 - kern[0] * r2) / det
        db[k] = (r2 - kern[0] * r1) / det
        sum_a += da[k]
        sum_b += db[k]
    vals_a = np.concatenate([[0.0], np.cumsum(da)])
    vals_b = np.concatenate([[0.0], np.cumsum(db)])

    # defect of the two defining identities under the same discretization
    res = 0.0
    for vals, dother, rhs in ((vals_a, db, rhs1), (vals_b, da, rhs2)):
        conv = np.convolve(kern, dother)[:n]
        res = max(res, float(np.max(np.abs(vals[1:] + conv - rhs))))
    return tuple(
        CdfCurve(grid=grid, values=vals, limit=taboo_limit(model, qq, cfg), residual=res,
                 warnings=warnings)
        for vals, qq in ((vals_a, q), (vals_b, q.swapped()))
    )


# ---------------------------------------------------------------------------
# Laplace-domain evaluators
# ---------------------------------------------------------------------------

def laplace_hitting(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    lam: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Laplace-Stieltjes transform of H_{x,y}: closed form via G_lambda."""
    if not lam > 0.0:
        raise ValueError("lambda must be > 0")
    xv, yv = as_vec(x, model.d), as_vec(y, model.d)
    zero = (0,) * model.d
    g00 = green_function(model, lam, zero, zero, cfg).value
    if xv == yv:
        return 1.0 - 1.0 / ((lam + model.a) * g00)
    return green_function(model, lam, xv, yv, cfg).value / g00


def laplace_taboo(
    model: WalkModel,
    q: TabooQuery,
    lam: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Laplace-Stieltjes transform of H_{x,y,z} from the linear system."""
    if q.d != model.d:
        raise InvalidQuery(f"query dimension {q.d} != model dimension {model.d}")
    h_xy = laplace_hitting(model, q.x, q.y, lam, cfg)
    h_xz = laplace_hitting(model, q.x, q.z, lam, cfg)
    h_zy = laplace_hitting(model, q.z, q.y, lam, cfg)
    h_yz = laplace_hitting(model, q.y, q.z, lam, cfg)
    return (h_xy - h_xz * h_zy) / (1.0 - h_zy * h_yz)


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
    if q.d != model.d:
        raise InvalidQuery(f"query dimension {q.d} != model dimension {model.d}")
    if is_simple_1d(model):
        raise InvalidQuery("tail_extract requires a non-simple walk")
    if model.d > 2:
        raise InvalidQuery("tail_extract supports d <= 2 only")
    cfg = _cfg(model.d, cfg)
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

def minus_from_plus(curve: CdfCurve, model: WalkModel, strict: bool = True) -> CdfCurve:
    """Deconvolve the first holding time: H^-(t) = H(t) + H'(t)/a.

    H' uses centered differences (one-sided at the ends).  The limit is
    unchanged; the value at t = 0 recovers the atom a(x,y)/a.
    """
    if curve.variant is not Variant.PLUS:
        raise ValueError("minus_from_plus expects a plus-variant curve")
    h = curve.grid.step
    deriv = np.gradient(curve.values, h)
    values = curve.values + deriv / model.a
    warnings = curve.warnings
    if len(values) >= 3:
        noise = float(np.max(np.abs(np.diff(values, 2))))
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
