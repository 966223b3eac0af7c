"""Torus-integral kernels: p(t;x,y), G_lambda(x,y), rho_d(x), K_d(lambda;r).

All four are Fourier integrals over [-pi, pi]^d built from the walk's
characteristic exponent phi.  This module holds their integrands, the
analytic core estimates and bounds of the shell integrals, and the value
caches; quadrature.py sizes and refines every grid.  The heat kernel p,
the d = 1 potential kernel and the Lemma-5 identity are smooth torus
means.  Green's functions and the d = 2 potential kernel are singular or
sharply peaked at theta = 0 and are shell integrals.  In d >= 3 the walk
is transient and rho_d(x) = a (G_0(0) - G_0(x)) (Spitzer, Principles of
Random Walk), taken from the cached G_0 shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as _gamma_fn
from typing import Sequence

import numpy as np

from .errors import DivergentGreenFunction
from .model import WalkModel, as_vec, simple_walk_1d, spectral_scalars
from .quadrature import Integrand, QuadratureConfig, default_config, shell_integral, torus_mean


@dataclass(frozen=True)
class KernelValue:
    value: float
    est_error: float

    def __float__(self) -> float:
        return self.value


def canonical_diff(x: Sequence[int], y: Sequence[int], d: int) -> tuple[int, ...]:
    """y - x up to sign, canonicalized so r and -r map to the same tuple.

    All kernels are even in the displacement, so collapsing the sign makes
    symmetry relations exact (identical integrand, identical float result)
    and doubles cache hits.
    """
    xv = as_vec(x, d)
    yv = as_vec(y, d)
    r = tuple(b - a for a, b in zip(xv, yv))
    neg = tuple(-c for c in r)
    return max(r, neg)


# ---------------------------------------------------------------------------
# transition probability p(t; x, y)
# ---------------------------------------------------------------------------

def transition_probability(
    model: WalkModel,
    t: float,
    x: Sequence[int],
    y: Sequence[int],
    cfg: QuadratureConfig | None = None,
) -> KernelValue:
    """p(t;x,y) = (2 pi)^-d * integral of exp(phi(theta) t) cos(theta, y-x).

    The imaginary part vanishes by symmetry; at t = 0 it is delta_xy exactly.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    r = canonical_diff(x, y, model.d)
    if t == 0:
        return KernelValue(value=0.0 if any(r) else 1.0, est_error=0.0)
    p = Integrand(("p", float(t)), lambda ph: np.exp(ph * t))
    val, err = torus_mean("transition_probability", model, p, r, cfg or default_config(model.d))
    return KernelValue(value=min(1.0, max(0.0, val)), est_error=err)


# ---------------------------------------------------------------------------
# Green's function G_lambda(x, y) and K_d
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _green_cached(model: WalkModel, lam: float, r: tuple, cfg: QuadratureConfig) -> KernelValue:
    d = model.d
    rnorm = float(np.linalg.norm(r))
    sc = spectral_scalars(model)
    eig = np.linalg.eigvalsh(sc.hessian)
    sig_min, sig_max = float(eig[0]), float(eig[-1])

    if lam > 0.0:
        def core_value(half):
            return (2.0 * half) ** d / lam

        def core_bound(half):
            rad2 = d * half * half
            return ((2.0 * half) ** d / lam) * (
                0.5 * sig_max * rad2 / lam + 0.5 * rnorm**2 * rad2
            )
    else:
        omega = 2.0 * np.pi ** (d / 2.0) / _gamma_fn(d / 2.0)

        def core_value(half):
            return 0.0

        def core_bound(half):
            rad = half * np.sqrt(d)
            return (2.0 / sig_min) * omega * rad ** (d - 2) / (d - 2)

    # the unsigned integrand mass is the r = 0 value; seeding the scale with
    # it keeps oscillatory displacements from over-refining the outer shells
    hint = 0.0
    if any(r):
        hint = _green_cached(model, lam, (0,) * d, cfg).value * (2.0 * np.pi) ** d
    value, err = shell_integral(
        "green_function", model, Integrand(("green", lam), lambda ph: 1.0 / (lam - ph)), r,
        cfg.rel_tol, core_value, core_bound, scale_hint=hint,
    )
    return KernelValue(value=value, est_error=err)


def green_function(
    model: WalkModel,
    lam: float,
    x: Sequence[int],
    y: Sequence[int],
    cfg: QuadratureConfig | None = None,
) -> KernelValue:
    """G_lambda(x,y) = (2 pi)^-d * integral of cos(theta, y-x) / (lambda - phi).

    lambda = 0 (the Green's function proper) is finite only for d >= 3;
    requesting it in d <= 2 raises DivergentGreenFunction.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda must be finite and >= 0")
    if lam == 0.0 and model.d <= 2:
        raise DivergentGreenFunction(
            f"G_0 diverges for d = {model.d} (recurrent walk)"
        )
    r = canonical_diff(x, y, model.d)
    return _green_cached(model, float(lam), r, cfg or default_config(model.d))


def k_kernel(
    model: WalkModel,
    lam: float,
    r: Sequence[int],
    cfg: QuadratureConfig | None = None,
) -> float:
    """K_d(lambda; r) = (G_0(0,r) - G_lambda(0,r)) / lambda, d >= 3."""
    if model.d <= 2:
        raise DivergentGreenFunction(f"K_d requires d >= 3, got d = {model.d}")
    if not lam > 0.0:
        raise ValueError("lambda must be > 0")
    zero = (0,) * model.d
    g0 = green_function(model, 0.0, zero, r, cfg).value
    gl = green_function(model, lam, zero, r, cfg).value
    return (g0 - gl) / lam


# ---------------------------------------------------------------------------
# potential kernel rho_d(x)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _rho_cached(model: WalkModel, r: tuple, cfg: QuadratureConfig) -> float:
    a = model.total_rate
    if model.d >= 3:  # transient: a (G_0(0) - G_0(r)) from the cached G_0 shells
        g00 = _green_cached(model, 0.0, (0,) * model.d, cfg).value
        return a * (g00 - _green_cached(model, 0.0, r, cfg).value)
    # a (cos(r.theta) - 1) / phi
    integrand = Integrand(("rho", a), lambda ph: a / ph, lambda ph: -a / ph)
    if model.d == 1:
        # ratio of analytic functions with matching double zeros: smooth
        # and periodic, so the plain midpoint rule is spectrally accurate
        return torus_mean("rho", model, integrand, r, cfg)[0]

    sc = spectral_scalars(model)
    sig_min = float(np.linalg.eigvalsh(sc.hessian)[0])
    rnorm2 = float(np.dot(r, r))

    def core_value(half):
        return 0.0

    def core_bound(half):
        # |1 - cos(x.theta)| / (-phi) <= a |x|^2 / sig_min near 0
        return (2.0 * half) ** model.d * a * rnorm2 / sig_min

    return shell_integral("rho", model, integrand, r, cfg.rel_tol, core_value, core_bound)[0]


def rho(model: WalkModel, x: Sequence[int], cfg: QuadratureConfig | None = None) -> float:
    """Potential-kernel value rho_d(x); rho_d(0) = 1 by definition.

    For x != 0 this is a (2 pi)^-d integral of a (cos(x,theta) - 1)/phi(theta);
    the integrand has a finite limit at theta = 0 which the midpoint grids
    never sample.  In d >= 3 it equals a (G_0(0) - G_0(x)), from the G_0 shells.
    """
    r = canonical_diff((0,) * model.d, x, model.d)
    return _rho_cached(model, r, cfg or default_config(model.d)) if any(r) else 1.0


# ---------------------------------------------------------------------------
# Lemma-5 trigonometric identity
# ---------------------------------------------------------------------------

def trig_identity_check(x: int, cfg: QuadratureConfig | None = None) -> float:
    """Quadrature of integral over [-pi,pi] of (1 - cos(x theta))/(1 - cos theta).

    The exact value is 2 pi x; the integrand is the degree-(x-1) Fejer-type
    trigonometric polynomial, so the periodic midpoint rule is exact up to
    rounding once the grid exceeds the degree.  It is 2 pi rho(x) for the
    simple walk with a = 1, whose phi is cos(theta) - 1.
    """
    if not isinstance(x, (int, np.integer)) or x < 1:
        raise ValueError("x must be a positive integer")
    return rho(simple_walk_1d(1.0), (int(x),), cfg) * 2.0 * np.pi
