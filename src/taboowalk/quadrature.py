"""The midpoint-grid engine behind every torus and shell quadrature.

Every kernel is a sum of integrand(phi(theta), cos(r.theta)) over the
midpoint grid of a box [-s, s]^d: the torus (s = pi) for smooth
integrands, or a dyadic shell [-s, s]^d minus [-s/2, s/2]^d for kernels
that are singular or sharply peaked at the origin, with Richardson
extrapolation over grid doublings.

Only the half grid u_0 > 0 is built and summed, then doubled.  The fold is
exact: every integrand is a function of (phi(theta), cos(r.theta)), both
even under theta -> -theta for a symmetric walk, and the midpoint grid with
n even (odd n raises ValueError) is symmetric under u -> -u.

The grid of [-s, s]^d is s times the unit midpoint grid of [-1, 1]^d,
which is partitioned into fixed row blocks of at most ``_CHUNK_POINTS``
points; a shell drops the inner half-box from each block.  One rule,
``CACHE_MAX_POINTS``, decides what is kept: a grid of at most that many
points keeps its unit chunks (keyed by d, n and shell, so never rebuilt
for another s) and the walk's phi on them (keyed by model, s, n and
shell).  Larger grids are rebuilt chunk by chunk on every pass, so memory
stays bounded; the summing code is the same either way.  Chunk sums are
combined with numpy's pairwise summation, so results are bit-identical
from run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import WalkModel, char_exponent_grid

# Soak up rounding noise when an integrand is essentially zero.
ABS_FLOOR = 1e-13

_CHUNK_POINTS = 1 << 19
# Grids of at most this many points (n^d) keep their unit chunks and phi values.
CACHE_MAX_POINTS = 1 << 21


def _axis_offsets(n: int) -> np.ndarray:
    """Midpoint offsets in (-1, 1): -1 + (i + 1/2) * 2/n, i = 0..n-1."""
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


def _outer_flags(n: int) -> np.ndarray:
    """Per-axis flag |offset| > 1/2, computed in exact integer arithmetic."""
    return np.abs(2 * np.arange(n) + 1 - n) * 2 > n


def _build_chunks(d: int, n: int, shell: bool) -> Iterator[np.ndarray]:
    """Unit midpoint points of [-1, 1]^d with u_0 > 0, in fixed blocks of leading-axis rows.

    With ``shell`` the inner box [-1/2, 1/2]^d is dropped; n must then be
    divisible by 4 so the inner boundary falls on cell edges.
    """
    if n % 2:
        raise ValueError("n must be even for the half-grid fold")
    if shell and n % 4:
        raise ValueError("n must be divisible by 4 for shell sums")
    ax = _axis_offsets(n)
    out = _outer_flags(n)
    rows = max(1, _CHUNK_POINTS // n ** (d - 1))
    for i0 in range(n // 2, n, rows):
        mesh = np.meshgrid(ax[i0 : i0 + rows], *([ax] * (d - 1)), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
        if shell:
            fmesh = np.meshgrid(out[i0 : i0 + rows], *([out] * (d - 1)), indexing="ij")
            pts = pts[np.logical_or.reduce([f.reshape(-1) for f in fmesh])]
        pts.setflags(write=False)
        yield pts


@lru_cache(maxsize=32)
def _unit_chunks(d: int, n: int, shell: bool) -> tuple[np.ndarray, ...]:
    return tuple(_build_chunks(d, n, shell))


@lru_cache(maxsize=96)
def _phi_cached(model: WalkModel, s: float, n: int, shell: bool) -> tuple[np.ndarray, ...]:
    out = tuple(char_exponent_grid(model, s * u) for u in _unit_chunks(model.d, n, shell))
    for ph in out:
        ph.setflags(write=False)
    return out


def phi_chunks(
    model: WalkModel, s: float, n: int, shell: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(u, phi(s u)) for each chunk of unit points u of the half grid of [-s, s]^d."""
    if n**model.d <= CACHE_MAX_POINTS:
        return zip(_unit_chunks(model.d, n, shell), _phi_cached(model, float(s), n, shell))
    return (
        (u, char_exponent_grid(model, s * u)) for u in _build_chunks(model.d, n, shell)
    )


def midpoint_sum(
    model: WalkModel,
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    r: Sequence[int],
    s: float,
    n: int,
    shell: bool = False,
) -> float:
    """h^d * sum of integrand(phi, cos(r.theta)) over the midpoint grid of [-s, s]^d.

    h = 2s/n; with ``shell`` the inner box [-s/2, s/2]^d is skipped.
    """
    rv = np.asarray(r, dtype=float)
    sums = [
        np.sum(integrand(ph, np.cos(s * (u @ rv))))
        for u, ph in phi_chunks(model, s, n, shell)
    ]
    return 2.0 * float(np.sum(sums)) * (2.0 * s / n) ** model.d


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
