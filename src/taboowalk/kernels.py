"""Fourier kernels: p(t;x,y), G_lambda(x,y), rho_d(x).

All three are integrals over [-pi, pi]^d built from the walk's
characteristic exponent phi.  This module holds their integrands, the
core bounds of the shell integrals, and the value caches, keyed by rel_tol alone.
Kernel values are read by set: rho_values and green_values send the uncached
displacements of one request to one ladder, and rho and green_function are
their one-element case; quadrature.py sizes and refines every grid.  The
heat kernel p is a smooth torus mean.  In d <= 2, the theta_d integrals of
G_lambda and rho are sums of residues (Katsura et al., J. Math. Phys. 12,
1971): exact in d = 1, a one-axis theta_1 ladder in d = 2.  In d >= 3 Green's
functions are shell integrals, and the walk is transient: rho_d(x) = a (G_0(0)
- G_0(x)) (Spitzer, Principles of Random Walk), from the cached G_0 shells.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from math import comb, gamma as _gamma_fn, sqrt
from typing import Sequence

import numpy as np

from .errors import DivergentGreenFunction, NotConverged
from .model import WalkModel, as_vec, simple_walk_1d, spectral_scalars
from .quadrature import (_CACHE, RESIDUE_ROUNDING, Integrand, QuadratureConfig, axis_integral,
                         default_config, shell_integral, torus_mean)


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
# Green's function G_lambda(x, y)
# ---------------------------------------------------------------------------

def _batched(compute):
    """Cache compute(*head, rs) by (*head, r) for each r of rs, least recently used
    out past 4096 entries.  The uncached entries go to compute in one call, which returns
    a value or a NotConverged for each; values are stored before a failure is raised."""
    cache, lock = OrderedDict(), threading.Lock()

    @wraps(compute)
    def lookup(*args):
        *head, rs = args
        with lock:
            found = {r: cache[(*head, r)] for r in rs if (*head, r) in cache}
            for r in found:
                cache.move_to_end((*head, r))
        todo = tuple(dict.fromkeys(r for r in rs if r not in found))
        new = dict(zip(todo, compute(*head, todo) if todo else ()))
        with lock:
            cache.update(((*head, r), v) for r, v in new.items() if not isinstance(v, NotConverged))
            while len(cache) > 4096:
                cache.popitem(last=False)
        for v in new.values():
            if isinstance(v, NotConverged):
                raise v
        return [found[r] if r in found else new[r] for r in rs]

    lookup.cache_clear = cache.clear
    return lookup


def _inner_roots(model: WalkModel, lam: float, n: int):
    """(theta_1, w, -1/psi(w)) at the roots of P(w) = w^R (lam - phi) in |w| < 1,
    w = exp(i theta_d), R = max|z_d|, psi = w dphi/dw: a row per midpoint theta_1
    of (0, pi) in d = 2, one row (theta_1 = 0) in d = 1.  R roots lie inside, or
    R - 1 at lam = 0 in d = 1, where -phi has the double root w = 1.  They are
    found as 1 + u from P(1 + u) = sum_k q_k u^k, whose coefficients do not
    cancel near w = 1 (q_0 = q_1 = 0 at that double root are dropped): in closed
    form for two roots, else as companion-matrix eigenvalues.  One Newton step
    in log w polishes each root, with phi = sum 4 a(z) sinh^2(x/2) and psi =
    sum 2 a(z) z_d sinh(x) over the pairs +-z, x = i z_1 theta_1 + z_d log w."""

    def build():
        th = (2 * np.arange(n) + 1) * (np.pi / (2 * n)) if model.d == 2 else np.zeros(1)
        big_r = max(abs(z[-1]) for z, _ in model.jumps)
        binom = np.array([[comb(m, k) for k in range(2 * big_r + 1)] for m in range(2 * big_r + 1)])
        q = lam * binom[big_r] + np.zeros((len(th), 1), complex)
        for z, a in model.jumps:  # w^R (1 - e w^m) = (1 - e) w^R + e (w^R - w^(R + m))
            e, x = np.exp(1j * z[0] * th)[:, None], 0.5 * z[0] * th
            one_minus_e = (2.0 * np.sin(x) ** 2 - 1j * np.sin(2.0 * x))[:, None]
            q += a * (one_minus_e * binom[big_r] + e * (binom[big_r] - binom[big_r + z[-1]]))
        if lam == 0.0 and model.d == 1:  # both 0 by symmetry, so dropped untested
            q = q[:, 2:]
        deg, u = q.shape[1] - 1, np.zeros((len(th), 0), complex)  # no root for deg = 0
        if deg == 2:  # the root of the larger |t| first, then the other as q_0 / t
            s = np.sqrt(q[:, 1] ** 2 - 4.0 * q[:, 0] * q[:, 2])
            t = -0.5 * (q[:, 1] + np.where((q[:, 1].conj() * s).real >= 0.0, s, -s))
            u = np.stack([t / q[:, 2], q[:, 0] / t], axis=1)
        elif deg:
            comp = np.zeros((len(th), deg, deg), complex)
            comp[:, 0], comp[:, 1:, :-1] = -q[:, -2::-1] / q[:, -1:], np.eye(deg - 1)
            u = np.linalg.eigvals(comp)
        u = np.take_along_axis(u, np.argsort(np.abs(1.0 + u), axis=1), axis=1)[:, : deg // 2]
        log_w = 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag**2) + 1j * np.arctan2(u.imag, 1.0 + u.real)
        pairs = [(z[-1], a, 1j * z[0] * th[:, None]) for z, a in model.jumps if z > tuple(-c for c in z)]

        def phi_psi(log_w):
            x = [(m * log_w + phase, a, m) for m, a, phase in pairs]
            return (sum(4.0 * a * np.sinh(0.5 * v) ** 2 for v, a, _ in x),
                    sum(2.0 * a * m * np.sinh(v) for v, a, m in x))

        phi, psi = phi_psi(log_w)
        log_w = log_w + (lam - phi) / psi
        w, ip = np.exp(log_w), -1.0 / phi_psi(log_w)[1]
        for v in (th, w, ip):
            v.setflags(write=False)
        yield th, w, ip

    return _CACHE.get(("residue", model, lam, n), 1, n, build)[0]


def _residue_sums(model: WalkModel, lam: float, n: int, rs) -> list:
    """(J_r, its rounding bound in d = 1, else 0) for each r of rs: the mean over
    the rows of _inner_roots of (2 pi)^-1 * integral over theta_d of
    exp(i r.theta) / (lam - phi), the residue sum exp(+-i r_1 theta_1) sum_k
    w_k^|r_d| / -psi(w_k), the sign that of r_d.  In d = 1 (n = 1) that is exact
    but for rounding: a root error of a few ulps grows |r| times in w^|r| and
    about R times in psi, hence the bound RESIDUE_ROUNDING (|r| + R) sum_k |term_k|."""
    th, w, ip = _inner_roots(model, lam, n)
    big_r, out = max(abs(z[-1]) for z, _ in model.jumps), []
    for r in rs:
        terms = w ** abs(r[-1]) * ip
        col = terms.sum(axis=1)
        if model.d == 2 and r[0]:
            col = col * np.exp(1j * (r[0] if r[-1] >= 0 else -r[0]) * th)
        bound = RESIDUE_ROUNDING * (abs(r[0]) + big_r) * float(np.abs(terms).sum()) if model.d == 1 else 0.0
        out.append((float(np.mean(col.real)), bound))
    return out


@_batched
def _green_cached(model: WalkModel, rel_tol: float, lam: float, rs: tuple) -> list:
    d = model.d
    if d == 1:  # a finite residue sum
        return _residue_sums(model, lam, 1, rs)
    if d == 2:  # even, periodic and analytic in theta_1 for lam > 0: order 0, scaled by J_0
        def means(n, ks):
            (j0, _), *js = _residue_sums(model, lam, n, ((0, 0), *ks))
            return [np.array((j, j0)) for j, _ in js]

        return axis_integral("green_function", means, rs, rel_tol, 0)
    eig = np.linalg.eigvalsh(spectral_scalars(model).hessian)
    sig_min, sig_max = float(eig[0]), float(eig[-1])
    omega = 2.0 * np.pi ** (d / 2.0) / _gamma_fn(d / 2.0)

    def core(half, r):  # the central box's estimate and a bound on its error
        if lam == 0.0:
            return 0.0, (2.0 / sig_min) * omega * (half * np.sqrt(d)) ** (d - 2) / (d - 2)
        rad2, rnorm = d * half * half, sqrt(sum(c * c for c in r))
        box = (2.0 * half) ** d / lam
        return box, box * (0.5 * sig_max * rad2 / lam + 0.5 * rnorm**2 * rad2)

    def shells(ks, hint):
        return shell_integral("green_function", model, Integrand(("green", lam), lambda ph: 1.0 / (lam - ph)),
                              ks, rel_tol, core, scale_hints=[hint] * len(ks))

    # G_lam(0, 0), the unsigned integrand mass, is shelled alone, once, through the
    # cache; seeding the scale of the others with it keeps oscillatory
    # displacements from over-refining the outer shells
    zero = (0,) * d
    if rs == (zero,):
        return shells(rs, 0.0)
    g00 = _green_cached(model, rel_tol, lam, (zero,))[0]
    found = iter(shells([r for r in rs if any(r)], g00[0] * (2.0 * np.pi) ** d))
    return [g00 if r == zero else next(found) for r in rs]


def green_values(model: WalkModel, lam: float, rs, cfg: QuadratureConfig | None = None) -> list:
    """G_lambda(0, r) for every r of rs, as KernelValues, from one cache read.

    The uncached displacements go to one ladder; in d >= 3, G_lambda(0, 0),
    which scales the others, is shelled alone first.  lambda = 0 (the
    Green's function proper) is finite only for d >= 3; requesting it in
    d <= 2 raises DivergentGreenFunction.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda must be finite and >= 0")
    if lam == 0.0 and model.d <= 2:
        raise DivergentGreenFunction(f"G_0 diverges for d = {model.d} (recurrent walk)")
    rel_tol, zero = (cfg or default_config(model.d)).rel_tol, (0,) * model.d
    rs = tuple(canonical_diff(zero, r, model.d) for r in rs)
    return [KernelValue(*v) for v in _green_cached(model, rel_tol, float(lam), rs)]


def green_function(model: WalkModel, lam: float, x: Sequence[int], y: Sequence[int],
                   cfg: QuadratureConfig | None = None) -> KernelValue:
    """G_lambda(x,y) = (2 pi)^-d * integral of cos(theta, y-x) / (lambda - phi)."""
    return green_values(model, lam, (canonical_diff(x, y, model.d),), cfg)[0]


# ---------------------------------------------------------------------------
# potential kernel rho_d(x)
# ---------------------------------------------------------------------------

@_batched
def _rho_cached(model: WalkModel, rel_tol: float, rs: tuple) -> list:
    # a (cos(r.theta) - 1) / phi
    a = model.total_rate
    if model.d == 1:  # |r| a/B, half the residue at w = 1 on the circle, + a (J_0 - J_r)
        slope = a / sum(rate * z[0] ** 2 for z, rate in model.jumps)
        (j0, e0), *js = _residue_sums(model, 0.0, 1, ((0,), *rs))
        return [(abs(r[0]) * slope + a * (j0 - j), RESIDUE_ROUNDING * abs(r[0]) * slope + a * (e0 + e))
                for r, (j, e) in zip(rs, js)]

    def means(n, ks):  # a (J_0 - J_r) at lam = 0, a |theta_1| cusp at 0: order 2
        (j0, _), *js = _residue_sums(model, 0.0, n, ((0, 0), *ks))
        return [a * (j0 - j) for j, _ in js]

    return axis_integral("rho", means, rs, rel_tol, 2)


def rho_values(model: WalkModel, xs, cfg: QuadratureConfig | None = None) -> list:
    """Potential-kernel values rho_d(x) for every x of xs; rho_d(0) = 1 by definition.

    For x != 0 this is a (2 pi)^-d integral of a (cos(x,theta) - 1)/phi(theta).
    In d = 1 it is the residue sum |x| a/B + a (J_0 - J_x), B = sum a(z) z^2,
    so rho(x) = |x| exactly on the nearest-neighbor walk.  The uncached
    nonzero x go to one theta_1 ladder in d = 2.  In d >= 3 it equals
    a (G_0(0) - G_0(x)), from one green_values read.
    """
    zero = (0,) * model.d
    rs = [canonical_diff(zero, x, model.d) for x in xs]
    nonzero = tuple(r for r in rs if any(r))
    found = iter(())
    if model.d <= 2:
        found = iter(v for v, _ in _rho_cached(model, (cfg or default_config(model.d)).rel_tol, nonzero))
    elif nonzero:
        g00, *gs = green_values(model, 0.0, (zero, *nonzero), cfg)
        found = iter(model.total_rate * (g00.value - g.value) for g in gs)
    return [next(found) if any(r) else 1.0 for r in rs]


def rho(model: WalkModel, x: Sequence[int], cfg: QuadratureConfig | None = None) -> float:
    """Potential-kernel value rho_d(x); see rho_values."""
    return rho_values(model, (x,), cfg)[0]


# ---------------------------------------------------------------------------
# Lemma-5 trigonometric identity
# ---------------------------------------------------------------------------

def trig_identity_check(x: int) -> float:
    """Integral over [-pi,pi] of (1 - cos(x theta))/(1 - cos theta), exactly 2 pi x.

    It is 2 pi rho(x) for the simple walk with a = 1, whose phi is
    cos(theta) - 1.  That walk has R = 1, so no root lies inside the circle
    and the residue formula is x a/B = x, exact in floating point.
    """
    if not isinstance(x, (int, np.integer)) or x < 1:
        raise ValueError("x must be a positive integer")
    return rho(simple_walk_1d(1.0), (int(x),)) * 2.0 * np.pi
