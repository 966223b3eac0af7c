"""Fourier kernels: p(t;x,y), G_lambda(x,y), rho_d(x).

All three are integrals over [-pi, pi]^d built from the walk's
characteristic exponent phi.  This module holds the residue sums and every
cache: the value caches, keyed by rel_tol alone, and one LRU cache of the
residue grids and their roots under the byte budget ``CACHE_BYTES``, from
which a grid whose arrays take more than a quarter of the budget is streamed
block by block and never kept.  Block sums are added exactly (math.fsum), so
results repeat bit for bit.  quadrature.py sizes and walks every grid.
Kernel values are read by set: rho_values and green_values send the
uncached displacements of one request to one ladder, and rho and
green_function are their one-element case.  The heat kernel p is a smooth
torus mean, one p-curve of two times.  For G_lambda and rho, lambda - phi is a
Laurent polynomial in w = exp(i theta_d) at fixed theta' = (theta_1, ...,
theta_{d-1}), so the theta_d integral is a sum of residues (Katsura et al.,
J. Math. Phys. 12, 1971): exact in d = 1 but for rounding, whose bound must
meet rel_tol, and a ladder over the theta' grid in d >= 2.  In d >= 3 the walk
is transient: rho_d(x) = a (G_0(0) - G_0(x)) (Spitzer, Principles of Random
Walk), from the cached G_0 values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from math import comb, fsum
from typing import Callable, Sequence

import numpy as np

from .errors import DivergentGreenFunction, NotConverged
from .model import WalkModel, as_vec, simple_walk_1d
from .quadrature import (RESIDUE_ROUNDING, QuadratureConfig, _judged, _residue_grid, _residue_points,
                         axis_integral, default_config, p_curves)

# Bytes of residue grids and roots the grid cache may hold.
CACHE_BYTES = 64 << 20


class _GridCache:
    """Block tuples keyed by grid, least recently used out, under a byte budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, nbytes: int, build: Callable):
        """The blocks build() yields, or a stream of them when their arrays, of
        ``nbytes`` in all, exceed a quarter of the budget."""
        if nbytes > self.budget // 4:
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
            while self.nbytes > self.budget:
                self.nbytes -= self._items.popitem(last=False)[1][1]
        return value


_CACHE = _GridCache(CACHE_BYTES)


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
    For t > 0 it is the p-curve of the times 0 and t, and its est_error is
    absolute: the aliasing bound, at most max(rel_tol, 1e-13), plus rounding.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    r = canonical_diff(x, y, model.d)
    if t == 0:
        return KernelValue(value=0.0 if any(r) else 1.0, est_error=0.0)
    vals, err = p_curves(model, (r,), np.array([0.0, t]), cfg or default_config(model.d))
    return KernelValue(value=float(vals[0, 1]), est_error=err)


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


def _dot(th: np.ndarray, v, unit=1.0) -> np.ndarray:
    """unit * th @ v, one product (unit v_j) theta_j per nonzero v_j: in d = 2
    exactly (unit v_1) theta_1."""
    terms = [(unit * c) * th[:, j] for j, c in enumerate(v) if c]
    return sum(terms[1:], terms[0]) if terms else np.zeros(len(th))


def _inner_roots(model: WalkModel, lam: float, th: np.ndarray, big_r: int):
    """(w, -1/psi(w)) at the roots of P(w) = w^R (lam - phi) in |w| < 1, a row per
    point theta' of th, w = exp(i theta_d), R = max|z_d| (big_r), psi = w dphi/dw.
    R roots lie inside, or R - 1 at lam = 0 in d = 1, where -phi has the double
    root w = 1.  They are found as 1 + u from P(1 + u) = sum_k q_k u^k, whose
    coefficients do not cancel near w = 1 (q_0 = q_1 = 0 at that double root are
    dropped): in closed form for two roots, else as companion-matrix eigenvalues.
    One Newton step in log w polishes each root, with phi = sum 4 a(z)
    sinh^2(x/2) and psi = sum 2 a(z) z_d sinh(x) over the pairs +-z,
    x = i z'.theta' + z_d log w."""
    binom = np.array([[comb(m, k) for k in range(2 * big_r + 1)] for m in range(2 * big_r + 1)])
    q = lam * binom[big_r] + np.zeros((len(th), 1), complex)
    for z, a in model.jumps:  # w^R (1 - e w^m) = (1 - e) w^R + e (w^R - w^(R + m))
        x = _dot(th, z[:-1])
        e, one_minus_e = np.exp(1j * x)[:, None], (2.0 * np.sin(0.5 * x) ** 2 - 1j * np.sin(x))[:, None]
        q += a * (one_minus_e * binom[big_r] + e * (binom[big_r] - binom[big_r + z[-1]]))
    if lam == 0.0 and model.d == 1:  # both 0 by symmetry, so dropped untested
        q = q[:, 2:]
    deg, u = q.shape[1] - 1, np.zeros((len(th), 0), complex)  # no root for deg = 0
    if deg == 2:  # the root of the larger |t|, the other as q_0 / t; the one nearer w = 0 is kept
        s = np.sqrt(q[:, 1] ** 2 - 4.0 * q[:, 0] * q[:, 2])
        t = -0.5 * (q[:, 1] + np.where((q[:, 1].conj() * s).real >= 0.0, s, -s))
        u, other = t / q[:, 2], q[:, 0] / t
        u = np.where(np.abs(1.0 + u) <= np.abs(1.0 + other), u, other)[:, None]
    elif deg:
        comp = np.zeros((len(th), deg, deg), complex)
        comp[:, 0], comp[:, 1:, :-1] = -q[:, -2::-1] / q[:, -1:], np.eye(deg - 1)
        u = np.linalg.eigvals(comp)
        u = np.take_along_axis(u, np.argsort(np.abs(1.0 + u), axis=1), axis=1)[:, : deg // 2]
    log_w = 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag**2) + 1j * np.arctan2(u.imag, 1.0 + u.real)
    pairs = [(z[-1], a, 1j * _dot(th, z[:-1])[:, None]) for z, a in model.jumps if z > tuple(-c for c in z)]

    def psi(log_w):  # pairs with z_d = 0 add 0
        return sum(2.0 * a * m * np.sinh(m * log_w + phase) for m, a, phase in pairs if m)

    phi = sum(4.0 * a * np.sinh(0.5 * (m * log_w + phase)) ** 2 for m, a, phase in pairs)
    log_w = log_w + (lam - phi) / psi(log_w)
    return np.exp(log_w), -1.0 / psi(log_w)


def _residue_sums(model: WalkModel, lam: float, n: int, rs, mapped: bool = False) -> list:
    """(J_r, its rounding bound in d = 1, else 0) for each r of rs: the mean over
    the residue grid of n (quadrature._residue_grid) of (2 pi)^-1 * integral over
    theta_d of exp(i r.theta) / (lam - phi), the residue sum exp(+-i r'.theta')
    sum_k w_k^|r_d| / -psi(w_k), the sign that of r_d.  The grid and its roots
    are kept in the grid cache.  In d = 1 (n = 1) that is exact but for
    rounding: a root error of a few ulps grows |r| times in w^|r| and about R
    times in psi, hence the bound RESIDUE_ROUNDING (|r| + R) sum_k |term_k|."""
    big_r, size = max(abs(z[-1]) for z, _ in model.jumps), _residue_points(model.d, n)

    def build():
        for th, weight in _residue_grid(model.d, n, mapped):
            block = (th, weight, *_inner_roots(model, lam, th, big_r))
            for v in block:
                if v is not None:
                    v.setflags(write=False)
            yield block

    parts, bounds = [[] for _ in rs], [0.0] * len(rs)
    for th, weight, w, ip in _CACHE.get(("residue", model, lam, n, mapped), size * (8 * model.d + 32 * big_r), build):
        for k, r in enumerate(rs):
            terms = w ** abs(r[-1]) * ip
            col = terms.sum(axis=1)
            if any(r[:-1]):  # r_d < 0 reads the roots at -theta': the phase of -r'
                col = col * np.exp(_dot(th, r[:-1], 1j if r[-1] >= 0 else -1j))
            parts[k].append(np.sum(col.real if weight is None else weight * col.real))
            if model.d == 1:
                bounds[k] = RESIDUE_ROUNDING * (abs(r[0]) + big_r) * float(np.abs(terms).sum())
    return [(fsum(part) / size, bound) for part, bound in zip(parts, bounds)]


@_batched
def _green_cached(model: WalkModel, rel_tol: float, lam: float, rs: tuple) -> list:
    d = model.d
    if d == 1:  # a finite residue sum, its rounding bound judged against max(|J_r|, |J_0|)
        todo = tuple(dict.fromkeys(((0,), *rs)))
        sums = dict(zip(todo, _residue_sums(model, lam, 1, todo)))
        j0 = abs(sums[(0,)][0])
        return [_judged("green_function", *sums[r], max(abs(sums[r][0]), j0), rel_tol) for r in rs]
    # on the graded grid.  lam > 0: analytic in theta', with a peak of width
    # sqrt(lam) at 0, last sum (as rho in d = 2); lam = 0 (d >= 3): a
    # |theta'|^-1 singularity at 0, which theta' = u^3 / 6 - u^5 / 120 + ...
    # turns into a midpoint error in h^(3(d-2)), h^(3(d-2)+2).  Each entry's
    # tolerance is scaled by J_0 = G_lam(0, 0) from its own grids.
    order, zero = () if lam > 0.0 else (3 * (d - 2), 3 * (d - 2) + 2), (0,) * d

    def means(n, ks):
        (j0, _), *js = _residue_sums(model, lam, n, (zero, *ks), True)
        return [np.array((j, j0)) for j, _ in js]

    return axis_integral("green_function", means, rs, rel_tol, order)


def green_values(model: WalkModel, lam: float, rs, cfg: QuadratureConfig | None = None) -> list:
    """G_lambda(0, r) for every r of rs, as KernelValues, from one cache read.

    The uncached displacements go to one ladder, each scaled by
    G_lambda(0, 0) on its own grids.  lambda = 0 (the
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
        vals = [(abs(r[0]) * slope + a * (j0 - j), RESIDUE_ROUNDING * abs(r[0]) * slope + a * (e0 + e))
                for r, (j, e) in zip(rs, js)]
        return [_judged("rho", v, e, abs(v), rel_tol) for v, e in vals]

    # a (J_0 - J_r) at lam = 0 has a |theta_1| cusp at 0: |u|^5 on the graded
    # grid, whose gaps fall about 64x per doubling, so the ladder takes the last sum
    def means(n, ks):
        (j0, _), *js = _residue_sums(model, 0.0, n, ((0, 0), *ks), True)
        return [a * (j0 - j) for j, _ in js]

    return axis_integral("rho", means, rs, rel_tol, ())


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
