"""Closed-form limits, tail-asymptotic constants and Laplace transforms.

Everything here is a finite arithmetic combination of the potential kernel
rho_d, the spectral scalar gamma_d, and (for d >= 3) Green's-function values;
the nearest-neighbor walk on Z is dispatched to its exact piecewise tails.
Its limits need no dispatch: rho(x) = |x| exactly (Lemma 5), so the rho-ratio
formula gives Theorem 2's rationals, each one correctly rounded division.
The Laplace-Stieltjes transforms of the hitting and taboo c.d.f.s come from
G_lambda.  In d >= 3, G_0 is finite, and the transforms at lambda = 0 are
the limits: hitting_limit and taboo_limit take them from there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidQuery
from .kernels import QuadratureConfig, green_values, rho, rho_values
from .model import Vec, WalkModel, as_vec, is_simple_1d, spectral_scalars


class TailOrder(enum.Enum):
    INVERSE_SQRT_T = "t^-1/2"
    INVERSE_LOG_T = "1/ln t"
    INVERSE_POW_T = "t^-(d/2-1)"
    EXPONENTIAL = "exponential"
    ZERO = "zero"


class Variant(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class TailAsymptotic:
    """Leading term of H(infinity) - H(t) as t -> infinity.

    ``constant`` multiplies the order (1/sqrt(t), 1/ln t, or t^-(d/2-1));
    it is 0 for the EXPONENTIAL and ZERO orders.  EXPONENTIAL carries a
    usable lower bound on the decay rate in ``rate_bound`` (the paper only
    proves existence of some positive rate), and INVERSE_POW_T records the
    exponent d/2 - 1.
    """

    order: TailOrder
    constant: float
    exponent: float | None = None
    rate_bound: float | None = None

    def deficit_at(self, t: float) -> float:
        """Evaluate the leading tail term at time t (bound 0 for EXPONENTIAL)."""
        if self.order is TailOrder.INVERSE_SQRT_T:
            return self.constant / np.sqrt(t)
        if self.order is TailOrder.INVERSE_LOG_T:
            return self.constant / np.log(t)
        if self.order is TailOrder.INVERSE_POW_T:
            return self.constant / t**self.exponent
        return 0.0


@dataclass(frozen=True)
class TabooQuery:
    """Start x, target y, taboo z (y != z, equal dimensions).

    The relative vectors rel_x = x - z, rel_y = y - z and rel_yx = y - x are
    set once here; they are not fields, so eq, hash and repr see x, y, z alone.
    """

    x: Vec
    y: Vec
    z: Vec

    def __init__(self, x: Sequence[int], y: Sequence[int], z: Sequence[int]):
        try:
            xv, yv, zv = as_vec(x), as_vec(y), as_vec(z)
        except ValueError as exc:
            raise InvalidQuery(str(exc)) from exc
        if not len(xv) == len(yv) == len(zv):
            raise InvalidQuery(f"mixed dimensions in query ({xv}, {yv}, {zv})")
        if yv == zv:
            raise InvalidQuery("target y must differ from taboo z")
        object.__setattr__(self, "x", xv)
        object.__setattr__(self, "y", yv)
        object.__setattr__(self, "z", zv)
        object.__setattr__(self, "rel_x", tuple(a - b for a, b in zip(xv, zv)))
        object.__setattr__(self, "rel_y", tuple(a - b for a, b in zip(yv, zv)))
        object.__setattr__(self, "rel_yx", tuple(a - b for a, b in zip(yv, xv)))

    @property
    def d(self) -> int:
        return len(self.x)

    def swapped(self) -> "TabooQuery":
        """Same start, target and taboo exchanged."""
        return TabooQuery(self.x, self.z, self.y)


def _check_dims(model: WalkModel, q: TabooQuery) -> None:
    if q.d != model.d:
        raise InvalidQuery(f"query dimension {q.d} != model dimension {model.d}")


# ---------------------------------------------------------------------------
# plain hitting times (Lemma-1 package)
# ---------------------------------------------------------------------------

def hitting_limit(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    cfg: QuadratureConfig | None = None,
) -> float:
    """P(tau_y < infinity | start x): 1 in d <= 2, laplace_hitting at
    lambda = 0 in d >= 3."""
    xv, yv = as_vec(x, model.d), as_vec(y, model.d)
    return 1.0 if model.d <= 2 else laplace_hitting(model, xv, yv, 0.0, cfg)


def hitting_tail(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    cfg: QuadratureConfig | None = None,
) -> TailAsymptotic:
    """Leading term of H_{x,y}(infinity) - H_{x,y}(t)."""
    xv, yv = as_vec(x, model.d), as_vec(y, model.d)
    a = model.a
    gamma = spectral_scalars(model).gamma_d
    r = tuple(b - c for b, c in zip(yv, xv))
    rho_r = rho(model, r, cfg)
    if model.d == 1:
        return TailAsymptotic(TailOrder.INVERSE_SQRT_T, float(rho_r / (a * gamma * np.pi)))
    if model.d == 2:
        return TailAsymptotic(TailOrder.INVERSE_LOG_T, float(rho_r / (a * gamma)))
    (g00,) = green_values(model, 0.0, ((0,) * model.d,), cfg)
    const = float(2.0 * gamma * rho_r / (a * (model.d - 2) * g00.value**2))
    return TailAsymptotic(TailOrder.INVERSE_POW_T, const, exponent=model.d / 2.0 - 1.0)


# ---------------------------------------------------------------------------
# taboo limits (Theorems 1 and 2)
# ---------------------------------------------------------------------------

def taboo_limit(
    model: WalkModel,
    q: TabooQuery,
    cfg: QuadratureConfig | None = None,
) -> float:
    """H_{x,y,z}(infinity).

    The rho-ratio formula in d <= 2, with rho_d(0) = 1 covering x = z and
    x = y without special cases; on the nearest-neighbor walk on Z it is
    Theorem 2's piecewise rationals.  laplace_taboo at lambda = 0 in d >= 3.
    """
    _check_dims(model, q)
    if model.d >= 3:
        return laplace_taboo(model, q, 0.0, cfg)
    rho_x, rho_y, rho_yx = rho_values(model, (q.rel_x, q.rel_y, q.rel_yx), cfg)
    return (rho_x + rho_y - rho_yx) / (2.0 * rho_y)


# ---------------------------------------------------------------------------
# Laplace-domain evaluators
# ---------------------------------------------------------------------------

def _check_lam(model: WalkModel, lam: float) -> None:
    if not (lam > 0.0 or (lam == 0.0 and model.d >= 3)):
        raise ValueError(f"lambda must be > 0 (>= 0 in d >= 3), got {lam!r}")


def laplace_hitting(
    model: WalkModel,
    x: Sequence[int],
    y: Sequence[int],
    lam: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Laplace-Stieltjes transform of H_{x,y}: closed form via G_lambda.

    lambda = 0 gives P(tau_y < infinity) and needs a finite G_0, so d >= 3.
    """
    _check_lam(model, lam)
    xv, yv = as_vec(x, model.d), as_vec(y, model.d)
    return _hitting_transforms(model, lam, (tuple(b - a for a, b in zip(xv, yv)),), cfg)[0]


def _hitting_transforms(model: WalkModel, lam: float, rs, cfg) -> list:
    """laplace_hitting from x to x + r for every r of rs, from one green_values read."""
    g00, *gs = green_values(model, lam, ((0,) * model.d, *rs), cfg)
    return [g.value / g00.value if any(r) else 1.0 - 1.0 / ((lam + model.a) * g00.value)
            for r, g in zip(rs, gs)]


def laplace_taboo(
    model: WalkModel,
    q: TabooQuery,
    lam: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Laplace-Stieltjes transform of H_{x,y,z} from the two-point system.

    At lambda = 0 in d >= 3, with g = G_0(0), G_v = G_0(v), X = x - z and
    Y = y - z, it is (g G_{Y-X} - G_X G_Y) / (g^2 - G_Y^2): Theorem 1's
    (g rho_Y - g rho_{Y-X} + G_Y rho_X) / (rho_Y (g + G_Y)) with rho_v =
    a (g - G_v).  The return transform 1 - 1/(a g) makes the x = z and
    x = y cases agree with that formula at rho(0) = 1.  The four G_lambda
    values come from one green_values read; the transforms are even in the
    displacement, so those from z to y and from y to z agree.
    """
    _check_dims(model, q)
    _check_lam(model, lam)
    h_xz, h_zy, h_xy = _hitting_transforms(model, lam, (q.rel_x, q.rel_y, q.rel_yx), cfg)
    return (h_xy - h_xz * h_zy) / (1.0 - h_zy * h_zy)


# ---------------------------------------------------------------------------
# taboo tails (Theorem 1 constants C_d, Theorem 2 piecewise)
# ---------------------------------------------------------------------------

def c1_constant(model: WalkModel, X: Vec, Y: Vec, cfg=None) -> float:
    x, y = X[0], Y[0]
    a = model.a
    g1 = spectral_scalars(model).gamma_d
    r_yx, r_x, r_y = rho_values(model, ((y - x,), X, Y), cfg)
    return float(
        (r_yx + r_x - r_y) / (4.0 * a * np.pi * g1)
        + a * np.pi * y * y * g1**3 * (r_yx - r_x - r_y) / r_y**2
        + 2.0 * a * np.pi * x * y * g1**3 / r_y
    )


def c2_constant(model: WalkModel, X: Vec, Y: Vec, cfg=None) -> float:
    a = model.a
    g2 = spectral_scalars(model).gamma_d
    r_yx, r_x, r_y = rho_values(model, (tuple(b - a_ for a_, b in zip(X, Y)), X, Y), cfg)
    return float((r_yx + r_x - r_y) / (4.0 * a * g2))


def cd_constant(model: WalkModel, X: Vec, Y: Vec, cfg=None) -> float:
    a = model.a
    d = model.d
    gd = spectral_scalars(model).gamma_d
    r_y, r_x, r_yx = rho_values(model, (Y, X, tuple(b - a_ for a_, b in zip(X, Y))), cfg)
    # the G_0 values behind those rho values, read back from the cache
    g00, g0y = (g.value for g in green_values(model, 0.0, ((0,) * d, Y), cfg))
    num = 2.0 * gd * (r_yx + r_x - r_y)
    return float(num / (a * (d - 2) * (g00 + g0y) ** 2))


def _strip_rate_bound(model: WalkModel, width: int) -> float:
    """Gambler's-ruin decay-rate bound a (1 - cos(pi/width)) for the
    nearest-neighbor walk confined to a strip of that width (embedded-chain
    spectral radius cos(pi/width) thinned by the Poisson clock)."""
    return model.a * (1.0 - np.cos(np.pi / width))


def taboo_tail(
    model: WalkModel,
    q: TabooQuery,
    cfg: QuadratureConfig | None = None,
) -> TailAsymptotic:
    """Order and constant of H_{x,y,z}(infinity) - H_{x,y,z}(t)."""
    _check_dims(model, q)
    X, Y = q.rel_x, q.rel_y
    if is_simple_1d(model):
        x, y = X[0], Y[0]
        a = model.a
        if x != 0 and x != y and (x > 0) != (y > 0):
            return TailAsymptotic(TailOrder.ZERO, 0.0)
        if x == y:
            return TailAsymptotic(
                TailOrder.INVERSE_SQRT_T, 1.0 / math.sqrt(2.0 * a * math.pi)
            )
        if x != 0 and abs(x) > abs(y):
            const = math.sqrt(2.0) * abs(y - x) / math.sqrt(a * math.pi)
            return TailAsymptotic(TailOrder.INVERSE_SQRT_T, const)
        # x = z, or x strictly between taboo and target: exponential decay
        return TailAsymptotic(
            TailOrder.EXPONENTIAL,
            0.0,
            rate_bound=_strip_rate_bound(model, abs(y)),
        )
    if model.d == 1:
        return TailAsymptotic(TailOrder.INVERSE_SQRT_T, c1_constant(model, X, Y, cfg))
    if model.d == 2:
        return TailAsymptotic(TailOrder.INVERSE_LOG_T, c2_constant(model, X, Y, cfg))
    return TailAsymptotic(
        TailOrder.INVERSE_POW_T,
        cd_constant(model, X, Y, cfg),
        exponent=model.d / 2.0 - 1.0,
    )


# ---------------------------------------------------------------------------
# minus variants (clock started at the first jump; Theorem 3)
# ---------------------------------------------------------------------------

def minus_atom(model: WalkModel, x: Sequence[int], y: Sequence[int]) -> float:
    """Atom at zero of a minus-variant c.d.f. from x to y: a(y - x)/a, the
    chance that the first jump lands on y; 0 when x = y, as a(0) = 0.

    The minus clock adds one exponential(a) holding time to the plus one,
    so the minus limit and tail equal the plus ones; only this atom is new.
    """
    xv, yv = as_vec(x, model.d), as_vec(y, model.d)
    return model.rate(tuple(b - a for a, b in zip(xv, yv))) / model.a
