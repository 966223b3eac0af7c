"""Verification oracles: Monte Carlo paths and embedded-chain absorption solves.

The path sampler draws every random number from a counter-based hash of
(seed, path index, step index), so estimates are bit-identical however the
paths are split into blocks, and a path can be replayed in isolation.
scipy.sparse is imported by the absorption solves only, so that importing
the package does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BracketTooWide, DegenerateSamples, QueryOutsideBox
from .limits import TabooQuery, TailAsymptotic, TailOrder, Variant, _check_dims
from .model import WalkModel, is_simple_1d

_U64 = np.uint64
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)


def _mix64(z):
    """SplitMix64 finalizer; array-safe, wraps mod 2^64."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on exact Python ints (no overflow warnings)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_MASK64 = (1 << 64) - 1


def _path_keys(seed_hash: np.uint64, path_ids: np.ndarray) -> np.ndarray:
    """Per-path stream keys: fixed for the life of a path."""
    return _mix64(path_ids * _GOLDEN + seed_hash)


def _draw(keys: np.ndarray, step: int, sub: int) -> np.ndarray:
    """U[0,1) for draw ``sub`` of jump ``step`` on each key's stream; 53-bit mantissa."""
    # counter mixing in exact Python ints, then wrapped to uint64
    counter = _U64(((2 * step + sub) * 0xD1342543DE82EF95 + 0x9E3779B97F4A7C15) & _MASK64)
    return (_mix64(keys ^ counter) >> _U64(11)).astype(np.float64) * 2.0**-53


def _uniforms(seed_hash: np.uint64, path_ids: np.ndarray, step: int, sub: int) -> np.ndarray:
    """U[0,1) keyed by (seed, path, step, sub)."""
    return _draw(_path_keys(seed_hash, path_ids), step, sub)


# Paths simulated together; bounds the sampler's memory whatever n_paths is.
_BLOCK_PATHS = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    Paths run in fixed-size blocks, so memory does not grow with n_paths;
    the block size never affects the result.
    """

    horizon: float
    n_paths: int
    seed: int
    max_jumps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and > 0")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Binomial estimate with diagnostics.

    ``truncated_paths`` hit the jump cap and are counted as non-hits;
    ``undecided_paths`` (cap or horizon reached without absorption) bound
    the probability mass that could still convert after the horizon.
    """

    probability: float
    std_error: float
    n_paths: int
    seed: int
    truncated_paths: int = 0
    undecided_paths: int = 0


def _hit_blocks(model: WalkModel, q: TabooQuery, sim: SimConfig, minus_clock: bool):
    """Yield (path ids, hit times, truncated, undecided) per block of paths.

    The walk jumps at exponential(a) epochs; hitting and taboo are checked
    at jump epochs, which is exact for piecewise-constant paths.  With
    ``minus_clock`` the first holding time does not count toward the clock.
    Only paths that hit y before z and by the horizon are listed.  The
    state of the paths still running is kept compacted: a path that
    passes the horizon or reaches y or z leaves every column at once.
    """
    _check_dims(model, q)
    a = model.total_rate
    axis_jumps = [np.ascontiguousarray(col) for col in model.support.T]
    # u < 1 = jump_cdf[-1], so the jump index is the number of cuts <= u
    cuts = model.jump_cdf[:-1]
    seed_hash = _U64(_mix64_int(sim.seed + 0x9E3779B97F4A7C15))

    for lo in range(0, sim.n_paths, _BLOCK_PATHS):
        ids = np.arange(lo, min(lo + _BLOCK_PATHS, sim.n_paths), dtype=np.uint64)
        keys = _path_keys(seed_hash, ids)
        clock = np.zeros(ids.size)
        pos = [np.full(ids.size, c, dtype=np.int64) for c in q.x]
        hit_ids, hit_times = [], []
        truncated = undecided = 0
        step = 0
        while ids.size:
            if step >= sim.max_jumps:
                truncated = ids.size
                undecided += ids.size
                break
            if not (minus_clock and step == 0):
                clock += -np.log1p(-_draw(keys, step, 0)) / a
            over = clock > sim.horizon
            u = _draw(keys, step, 1)
            jump = np.zeros(ids.size, dtype=np.intp)
            for c in cuts:
                jump += u >= c
            for p, col in zip(pos, axis_jumps):
                p += col[jump]
            at_y = np.logical_and.reduce([p == c for p, c in zip(pos, q.y)])
            at_z = np.logical_and.reduce([p == c for p, c in zip(pos, q.z)])
            stay = ~(over | at_y | at_z)
            hit = at_y & ~over
            undecided += int(np.count_nonzero(over))
            if hit.any():
                hit_ids.append(ids[hit])
                hit_times.append(clock[hit])
            if not stay.all():
                ids, keys, clock = ids[stay], keys[stay], clock[stay]
                pos = [p[stay] for p in pos]
            step += 1
        yield (
            np.concatenate(hit_ids or [ids[:0]]),
            np.concatenate(hit_times or [clock[:0]]),
            truncated,
            undecided,
        )


def _simulate_hit_times(
    model: WalkModel, q: TabooQuery, sim: SimConfig, minus_clock: bool
) -> tuple[np.ndarray, int, int]:
    """Per-path taboo-hitting times (inf when the event fails by the horizon),
    for replaying paths one by one; holds one float per path."""
    hit_times = np.full(sim.n_paths, np.inf)
    truncated = undecided = 0
    for ids, times, trunc, und in _hit_blocks(model, q, sim, minus_clock):
        hit_times[ids.astype(np.int64)] = times
        truncated += trunc
        undecided += und
    return hit_times, truncated, undecided


def _estimate_at(hits: int, sim: SimConfig, truncated: int, undecided: int) -> McEstimate:
    n = sim.n_paths
    p = hits / n
    return McEstimate(
        probability=p,
        std_error=float(np.sqrt(p * (1.0 - p) / n)),
        n_paths=n,
        seed=sim.seed,
        truncated_paths=truncated,
        undecided_paths=undecided,
    )


def estimate_taboo_curve(
    model: WalkModel,
    q: TabooQuery,
    t_list: Sequence[float],
    sim: SimConfig,
    variant: Variant = Variant.PLUS,
) -> list[McEstimate]:
    """Monte Carlo estimates of H_{x,y,z}(t) at each t in t_list (t <= sim.horizon).

    All times share one set of paths, counted block by block, so the
    estimates are monotone in t.  Variant.MINUS estimates H^-_{x,y,z}(t),
    whose clock starts at the first jump.
    """
    for t in t_list:
        if not 0.0 <= t <= sim.horizon:
            raise ValueError(f"t = {t} outside [0, horizon = {sim.horizon}]")
    hits = [0] * len(t_list)
    truncated = undecided = 0
    for _, times, trunc, und in _hit_blocks(model, q, sim, variant is Variant.MINUS):
        hits = [h + int(np.count_nonzero(times <= t)) for h, t in zip(hits, t_list)]
        truncated += trunc
        undecided += und
    return [_estimate_at(h, sim, truncated, undecided) for h in hits]


# ---------------------------------------------------------------------------
# embedded-chain absorption oracle
# ---------------------------------------------------------------------------

def _simple_1d_bracket(model: WalkModel, q: TabooQuery) -> tuple[float, float]:
    """Exact value for the nearest-neighbor walk: with unit steps a path on
    the far side of z must hit z before y (and vice versa), so only the
    open strip between the absorbers needs a linear solve."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    y, z = q.y[0], q.z[0]
    lo_pt, hi_pt = min(y, z), max(y, z)
    interior = np.arange(lo_pt + 1, hi_pt)

    def value_at(w: int, strip: np.ndarray) -> float:
        if w <= lo_pt:
            return 1.0 if y == lo_pt else 0.0
        if w >= hi_pt:
            return 1.0 if y == hi_pt else 0.0
        return float(strip[w - lo_pt - 1])

    if interior.size:
        n = interior.size
        mat = sp.identity(n, format="lil")
        b = np.zeros(n)
        for i, w in enumerate(interior):
            for nb in (w - 1, w + 1):
                if nb == y:
                    b[i] += 0.5
                elif nb == z:
                    pass
                elif lo_pt < nb < hi_pt:
                    mat[i, nb - lo_pt - 1] -= 0.5
        strip = spla.spsolve(mat.tocsc(), b)
    else:
        strip = np.empty(0)

    val = 0.0
    for s, p in zip(model.support[:, 0], model.rates / model.total_rate):
        w = q.x[0] + int(s)
        val += p * (1.0 if w == y else 0.0 if w == z else value_at(w, strip))
    return val, val


def _solve_spd(system, rhs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Solve the sparse I - P (symmetric for a symmetric walk, positive
    definite by absorption) by CG; a solution with residual above
    1e-12 ||b|| is replaced by a sparse-LU solve, so the bracket is never
    silently wrong."""
    import scipy.sparse.linalg as spla

    lu = None
    out = []
    for b in rhs:
        u, _ = spla.cg(system, b, rtol=1e-13, atol=0.0)
        if np.linalg.norm(b - system @ u) > 1e-12 * np.linalg.norm(b):
            lu = lu if lu is not None else spla.splu(system.tocsc())
            u = lu.solve(b)
        out.append(u)
    return out


def absorption_limit_bracket(
    model: WalkModel, q: TabooQuery, box_radius: int
) -> tuple[float, float]:
    """Bracket for H_{x,y,z}(infinity) from the embedded-chain linear system.

    The reach-y-before-z system is solved on the sup-norm box of the given
    radius.  Probability mass escaping through the boundary is bracketed:

    * nearest-neighbor walk on Z: no bracketing needed, the far sides of
      the absorbers are exactly 0 / 1 (unit steps cannot jump over);
    * d = 2: escaped mass converts to success at 1/2 +- beta with
      beta = min(1/2, 1.25 (sep + range)/radius), sep = |y - z|_inf: a
      heuristic allowance, not a proven bound.  A symmetric recurrent walk
      far from the pair {y, z} is absorbed by it a.s. and forgets which
      point comes first at rate 1/R; the factor 1.25 is not derived;
    * otherwise (d = 1 non-simple, d >= 3): escape counts as failure in
      the lower bound and success in the upper bound.
    """
    _check_dims(model, q)
    d, r = model.d, int(box_radius)
    for point in (q.x, q.y, q.z):
        if any(abs(c) > r for c in point):
            raise QueryOutsideBox(f"{point} outside box of radius {r}")
    if is_simple_1d(model):
        return _simple_1d_bracket(model, q)
    import scipy.sparse as sp

    shape = (2 * r + 1,) * d
    n_states = (2 * r + 1) ** d

    def index_of(points: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index((points + r).T, shape)

    coords = np.stack(
        np.meshgrid(*[np.arange(-r, r + 1)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    iy = int(index_of(np.asarray([q.y]))[0])
    iz = int(index_of(np.asarray([q.z]))[0])

    probs = model.rates / model.total_rate
    rows, cols, vals = [], [], []
    b_hit = np.zeros(n_states)
    b_esc = np.zeros(n_states)
    for s, p in zip(model.support, probs):
        dest = coords + s
        inside = np.all(np.abs(dest) <= r, axis=1)
        src_in = np.nonzero(inside)[0]
        dst = index_of(dest[inside])
        to_y = dst == iy
        b_hit[src_in[to_y]] += p
        keep = ~to_y & (dst != iz)
        rows.append(src_in[keep])
        cols.append(dst[keep])
        vals.append(np.full(int(keep.sum()), p))
        b_esc[np.nonzero(~inside)[0]] += p
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # y and z are absorbing: drop their outgoing rows
    interior = np.ones(n_states, dtype=bool)
    interior[[iy, iz]] = False
    keep = interior[rows]
    mat = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n_states, n_states)
    )
    system = sp.identity(n_states, format="csr") - mat
    b_hit[~interior] = 0.0
    b_esc[~interior] = 0.0
    # P(absorbed at y inside the box), P(escape through the boundary)
    u_hit, u_esc = _solve_spd(system, (b_hit, b_esc))
    u_hit[iy] = 1.0
    u_hit[iz] = 0.0
    u_esc[[iy, iz]] = 0.0

    if d == 2:
        jump_range = int(np.max(np.abs(model.support)))
        sep = max(abs(a - b) for a, b in zip(q.y, q.z))
        beta = min(0.5, 1.25 * (sep + jump_range) / r)
        esc_lo, esc_hi = 0.5 - beta, 0.5 + beta
    else:
        esc_lo, esc_hi = 0.0, 1.0

    lo = hi = 0.0
    xv = np.asarray(q.x, dtype=np.int64)
    for s, p in zip(model.support, probs):
        dest = xv + s
        if np.all(np.abs(dest) <= r):
            j = int(index_of(np.asarray([dest]))[0])
            lo += p * (u_hit[j] + esc_lo * u_esc[j])
            hi += p * (u_hit[j] + esc_hi * u_esc[j])
        else:
            lo += p * esc_lo
            hi += p * esc_hi
    return float(lo), float(hi)


def absorption_limit_oracle(
    model: WalkModel,
    q: TabooQuery,
    box_radius: int,
    tol: float | None = None,
) -> float:
    """Bracket midpoint; raises BracketTooWide when tol is given and missed."""
    lo, hi = absorption_limit_bracket(model, q, box_radius)
    if tol is not None and hi - lo > tol:
        raise BracketTooWide(
            f"bracket width {hi - lo:.3e} > tol {tol:.3e}; raise box_radius",
            bracket=(lo, hi),
        )
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# empirical tail-order fit
# ---------------------------------------------------------------------------

def fit_tail_order(
    samples: Sequence[tuple[float, float]],
    pow_exponent: float | None = None,
) -> TailAsymptotic:
    """Classify (t, deficit) samples by decay law and fit the constant.

    Candidate classes: C/sqrt(t), C/ln(t), C/t^p (p given), C e^{-rt}.
    Each is fit to log(deficit) by least squares; the class with the
    smallest mean squared residual wins.
    """
    pts = [(float(t), float(dv)) for t, dv in samples]
    if len(pts) < 5:
        raise DegenerateSamples(f"need >= 5 samples, got {len(pts)}")
    if any(t <= 0 for t, _ in pts) or any(dv <= 0 for _, dv in pts):
        raise DegenerateSamples("times and deficits must be > 0")
    t = np.array([p[0] for p in pts])
    logd = np.log([p[1] for p in pts])

    candidates: list[tuple[float, TailAsymptotic]] = []

    def one_param(shift, order, exponent=None):
        c = float(np.mean(logd + shift))
        resid = float(np.mean((logd + shift - c) ** 2))
        candidates.append(
            (resid, TailAsymptotic(order, float(np.exp(c)), exponent=exponent))
        )

    one_param(0.5 * np.log(t), TailOrder.INVERSE_SQRT_T)
    if np.all(t > 1.5):
        one_param(np.log(np.log(t)), TailOrder.INVERSE_LOG_T)
    if pow_exponent is not None:
        one_param(pow_exponent * np.log(t), TailOrder.INVERSE_POW_T, exponent=pow_exponent)
    # exponential: logd = c - r t with r > 0
    a_mat = np.stack([np.ones_like(t), -t], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, logd, rcond=None)
    if coef[1] > 0:
        resid = float(np.mean((a_mat @ coef - logd) ** 2))
        candidates.append(
            (
                resid,
                TailAsymptotic(
                    TailOrder.EXPONENTIAL, 0.0, rate_bound=float(coef[1])
                ),
            )
        )
    if not candidates:
        raise DegenerateSamples("no admissible decay class fits the samples")
    return min(candidates, key=lambda c: c[0])[1]
