"""Verification oracles: Monte Carlo paths and embedded-chain absorption solves.

The path sampler draws every random number from a counter-based hash of
(seed, path index, step index), so estimates are bit-identical however the
paths are split into blocks or over worker threads, and a path can be
replayed in isolation.  A block's paths run on up to one thread per CPU the
process may use, each thread on a contiguous range of path ids; numpy
releases the GIL inside the step loop's ufuncs.  A path's position is kept
as offsets from its start packed into int64 words, so a jump adds one table
value per word and the y/z test is one compare per word.
The absorption bracket solves its box system for one vector, the expected
visits after the first jump from x, which give both the hit and the escape
probability; it runs a matrix-free conjugate gradient in numpy on a padded
flat layout of the box.  For a walk in d >= 2 whose rates are even in each
axis the CG is preconditioned by the box's sine transform, which solves the
walk's box Dirichlet problem exactly when its range is 1; other walks, and
d = 1, run plain CG.  scipy.sparse is imported only by the sparse-LU
fallback, which runs when the CG residual misses its bound.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSamples, QueryOutsideBox
from .limits import TabooQuery, TailAsymptotic, TailOrder, Variant, _check_dims
from .model import WalkModel, is_simple_1d

_U64 = np.uint64
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_STEPS = ((_U64(30), _MIX1), (_U64(27), _MIX2), (_U64(31), None))
_SHIFT53 = _U64(11)  # keeps the top 53 bits


def _mix64(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array z; wraps mod 2^64.
    ``shifted`` is uint64 scratch shaped like z."""
    for shift, mult in _MIX_STEPS:
        np.right_shift(z, shift, shifted)
        z ^= shifted
        if mult is not None:
            z *= mult
    return z


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on exact Python ints (no overflow warnings)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_MASK64 = (1 << 64) - 1


def _path_keys(seed_hash: np.uint64, path_ids: np.ndarray) -> np.ndarray:
    """Per-path stream keys: fixed for the life of a path."""
    z = path_ids * _GOLDEN + seed_hash
    return _mix64(z, np.empty_like(z))


def _counter(step: int, sub: int) -> int:
    """Stream counter of draw ``sub`` of jump ``step``, mixed in exact Python ints."""
    return ((2 * step + sub) * 0xD1342543DE82EF95 + 0x9E3779B97F4A7C15) & _MASK64


def _draw(keys: np.ndarray, step: int, sub: int) -> np.ndarray:
    """U[0,1) for draw ``sub`` of jump ``step`` on each key's stream; 53-bit mantissa."""
    z = keys ^ _U64(_counter(step, sub))
    return (_mix64(z, np.empty_like(z)) >> _U64(11)) * 2.0**-53


# Paths simulated together; bounds the sampler's memory whatever n_paths is.
_BLOCK_PATHS = 1 << 18
# Fewest paths of a block worth a worker thread of their own.
_WORKER_PATHS = 1 << 15
# The step loop drops finished paths from its columns once the live share
# of them falls below this.
_LIVE_SHARE = 7 / 8
# Most jump cuts compared in one broadcast compare: bounds its scratch array.
_COMPARED_CUTS = 32
# A position offset must fit in a field of at most this many bits.
_MAX_FIELD_BITS = 63


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sampler_workers(n_paths: int) -> int:
    """Worker threads the sampler runs a block of min(n_paths, _BLOCK_PATHS)
    paths on: one per CPU the process may use, each with at least
    _WORKER_PATHS paths."""
    return max(1, min(_cpus(), min(n_paths, _BLOCK_PATHS) // _WORKER_PATHS))


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    Paths run in fixed-size blocks, so memory does not grow with n_paths,
    and a block's paths are split over worker threads; neither the block
    size nor the thread count ever affects the result.  ``max_jumps`` caps
    each path's jumps; a cap that could carry a path out of exact int64
    positions is rejected when the walk is sampled.
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
        if self.max_jumps < 1:
            raise ValueError("max_jumps must be >= 1")


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


class _Packing:
    """Lattice displacements packed into int64 words, ``bits`` bits per axis.

    ``reach`` bounds |p_j - x_j| and |p_j - t_j| (t = y, z) for every
    position p a path takes in max_jumps jumps of range R:
    reach = max_jumps R + max_j |x_j - t_j|.  A field of ``bits`` =
    bit length of 2 reach holds any |v| <= reach < 2^bits / 2, so a word
    sum_f v_f 2^(bits f) over at most 63 // bits fields lies within int64,
    and two codes are equal exactly when the displacements are.
    """

    def __init__(self, model: WalkModel, q: TabooQuery, max_jumps: int):
        jump_range = int(np.max(np.abs(model.support)))
        reach = max_jumps * jump_range + max(
            abs(xj - tj) for t in (q.y, q.z) for xj, tj in zip(q.x, t)
        )
        self.bits = (2 * reach).bit_length()
        if self.bits > _MAX_FIELD_BITS:
            raise ValueError(
                f"max_jumps = {max_jumps} with jump range {jump_range} needs {self.bits}-bit "
                f"position fields; exact int64 positions allow {_MAX_FIELD_BITS}"
            )
        self.fields = _MAX_FIELD_BITS // self.bits
        self.n_words = -(-model.d // self.fields)

    def encode(self, vecs) -> np.ndarray:
        """Codes of the displacement rows of ``vecs``, shape (n_words, len(vecs));
        axis j is field j % fields of word j // fields."""
        k = self.fields
        return np.array(
            [[sum(int(c) << (self.bits * f) for f, c in enumerate(v[w * k:(w + 1) * k])) for v in vecs]
             for w in range(self.n_words)],
            dtype=np.int64,
        ).reshape(self.n_words, len(vecs))


def _equal_codes(words: np.ndarray, code: np.ndarray, out: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """out = whether each column of ``words`` equals ``code``; flag is scratch."""
    np.equal(words[0], code[0], out)
    for col, c in zip(words[1:], code[1:]):
        np.equal(col, c, flag)
        out &= flag
    return out


def _in_threads(fn, spans: list[tuple[int, int]]) -> list:
    """[fn(*span) for span in spans], the first on this thread and each other
    on a thread of its own; the first exception raised is raised here."""
    results: list = [None] * len(spans)
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            results[i] = fn(*spans[i])
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(spans))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _hit_blocks(model: WalkModel, q: TabooQuery, sim: SimConfig, minus_clock: bool):
    """Yield (path ids, hit times, truncated, undecided) per block of paths.

    The walk jumps at exponential(a) epochs; hitting and taboo are checked
    at jump epochs, which is exact for piecewise-constant paths.  With
    ``minus_clock`` the first holding time does not count toward the clock.
    Only paths that hit y before z and by the horizon are listed.  Each
    block is split into contiguous id ranges, one per worker thread.
    """
    _check_dims(model, q)
    packing = _Packing(model, q, sim.max_jumps)
    table = packing.encode(model.support)
    y_code, z_code = packing.encode([np.subtract(t, q.x) for t in (q.y, q.z)]).T
    # u < 1 = jump_cdf[-1], so the jump index is the number of cuts <= u,
    # counted by one broadcast compare per group of cuts
    cuts = model.jump_cdf[:-1, None]
    groups = [cuts[g:g + _COMPARED_CUTS] for g in range(0, len(cuts), _COMPARED_CUTS)]
    below_rows = len(groups[0])
    seed_hash = _U64(_mix64_int(sim.seed + 0x9E3779B97F4A7C15))
    neg_a = -model.total_rate

    def walk(lo: int, hi: int):
        """(hit ids, hit times, truncated, undecided) of paths lo .. hi - 1.

        Columns hold every path not yet dropped; ``alive`` marks those still
        running.  A path that passes the horizon or reaches y or z leaves
        ``alive`` at once, and the columns are compacted once the live share
        falls below _LIVE_SHARE.  Scratch arrays are allocated once and
        viewed at the column length.  Ufunc outputs are passed by position:
        a keyword makes each call hold the GIL, which the workers share,
        longer.
        """
        ids = np.arange(lo, hi, dtype=np.uint64)
        keys = _path_keys(seed_hash, ids)
        clock = np.zeros(ids.size)
        words = np.zeros((packing.n_words, ids.size), dtype=np.int64)
        flat = [np.empty(ids.size, dtype=dt)
                for dt in (_U64, np.float64, np.uint8, np.intp, np.int64, bool, bool, bool, bool)]
        below_flat = np.empty(below_rows * ids.size, dtype=bool)

        def scratch(m: int) -> list[np.ndarray]:
            """The scratch arrays at column length m, each contiguous."""
            return [b[:m] for b in flat] + [below_flat[: below_rows * m].reshape(below_rows, m)]

        work, u, count, jump, moved, over, at, flag, alive, below = scratch(ids.size)
        alive.fill(True)

        def uniform(step: int, sub: int, scale: float) -> None:
            """u = scale * 2^53 * _draw(keys, step, sub), hashed in place."""
            np.bitwise_xor(keys, _U64(_counter(step, sub)), work)
            np.right_shift(_mix64(work, u.view(_U64)), _SHIFT53, work)
            np.multiply(work.view(np.int64), scale, u)  # < 2^53: the same value, a faster cast

        hit_ids, hit_times = [], []
        live = ids.size
        undecided = 0
        step = 0
        while live:
            if step >= sim.max_jumps:
                return hit_ids, hit_times, live, undecided + live
            if not (minus_clock and step == 0):
                # -u exactly, so that log1p(-u) / -a rounds as -log1p(-u) / a
                uniform(step, 0, -(2.0**-53))
                np.log1p(u, u)
                u /= neg_a
                clock += u
            np.greater(clock, sim.horizon, over)
            over &= alive
            undecided += int(np.count_nonzero(over))
            uniform(step, 1, 2.0**-53)
            for g, group in enumerate(groups):
                rows = below[: len(group)]
                np.greater_equal(u, group, rows)
                np.add.reduce(rows.view(np.uint8), 0, None, count)
                if g:
                    jump += count
                else:
                    np.copyto(jump, count)
            for row, col in zip(table, words):
                row.take(jump, None, moved, "clip")
                col += moved
            np.greater(_equal_codes(words, y_code, at, flag), over, flag)  # at y by the horizon
            flag &= alive
            idx = flag.nonzero()[0]
            if idx.size:
                hit_ids.append(ids[idx])
                hit_times.append(clock[idx])
            over |= at
            over |= _equal_codes(words, z_code, at, flag)
            np.greater(alive, over, alive)  # alive and not ended
            live = int(np.count_nonzero(alive))
            if live < _LIVE_SHARE * ids.size:
                keep = np.flatnonzero(alive)
                ids, keys, clock, words = ids[keep], keys[keep], clock[keep], words[:, keep]
                work, u, count, jump, moved, over, at, flag, alive, below = scratch(live)
                alive.fill(True)
            step += 1
        return hit_ids, hit_times, 0, undecided

    for lo in range(0, sim.n_paths, _BLOCK_PATHS):
        hi = min(lo + _BLOCK_PATHS, sim.n_paths)
        n_workers = sampler_workers(hi - lo)
        ends = [lo + (hi - lo) * i // n_workers for i in range(n_workers + 1)]
        parts = _in_threads(walk, list(zip(ends[:-1], ends[1:])))
        yield (
            np.concatenate([a for p in parts for a in p[0]] or [np.zeros(0, dtype=np.uint64)]),
            np.concatenate([a for p in parts for a in p[1]] or [np.zeros(0)]),
            sum(p[2] for p in parts),
            sum(p[3] for p in parts),
        )


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
    """Exact value for the nearest-neighbor walk: unit steps cannot jump over
    an absorber, so from w the walk reaches y before z with probability
    (w - z)/(y - z) on the open strip between them, 1 on y's far side and
    0 on z's (gambler's ruin); no linear solve is needed."""
    y, z = q.y[0], q.z[0]
    val = 0.0
    for s, p in zip(model.support[:, 0], model.rates / model.total_rate):
        val += p * min(1.0, max(0.0, (q.x[0] + int(s) - z) / (y - z)))
    return val, val


def _solve_spd(step, b: np.ndarray, maxiter: int, assemble, precondition) -> np.ndarray:
    """Solve (I - M P M) u = b by preconditioned conjugate gradients
    (Hestenes & Stiefel 1952).

    ``step(u, out)`` writes M P u into ``out``, an array that is zero off
    the box: the chain's one-step operator P killed by the 0/1 mask M.
    P is symmetric for a symmetric walk, so I - M P M is positive definite
    on the mask.  ``precondition(r)`` returns C^-1 r for an SPD C, zero off
    the mask; None is C = I, scipy.sparse.linalg.cg's recurrence.  The
    iteration stops once ||r|| <= 1e-13 ||b||, once its last r.C^-1 r was
    not positive (C is not positive definite), or after ``maxiter``
    iterations.  If the true residual then exceeds 1e-12 ||b||, u is solved
    again by sparse LU of the matrix ``assemble()`` returns, so the bracket
    is never silently wrong; only this fallback imports scipy.
    """
    bnorm = np.linalg.norm(b)
    x, r, p, ap = np.zeros_like(b), b.copy(), np.zeros_like(b), np.zeros_like(b)
    rho_prev = 1.0
    for _ in range(maxiter):
        rr = r @ r
        if np.sqrt(rr) <= 1e-13 * bnorm or not rho_prev > 0:
            break
        if precondition is None:
            z, rho = r, rr
        else:
            z = precondition(r)
            rho = r @ z
        p *= rho / rho_prev
        p += z
        np.subtract(p, step(p, ap), out=ap)
        alpha = rho / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rho_prev = rho
    # a NaN residual fails too
    if not np.linalg.norm(b - x + step(x, np.zeros_like(x))) <= 1e-12 * bnorm:
        import scipy.sparse.linalg as spla

        x = spla.splu(assemble()).solve(b)
    return x


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

    No matrix is built: states are laid out flat in C order on the box
    padded by a halo as wide as the longest jump, so every jump from a box
    state is one constant flat offset with no wrap-around, and a step of
    the chain is a few shifted slice adds.

    One solve serves both probabilities.  Let ``first`` be the law of the
    first jump from x and g = (I - M P M)^-1 M first the killed chain's
    expected visits after that jump (M is 0 at y, z and on the halo).
    I - M P M is symmetric, so by reciprocity P(absorbed at y) = first[y]
    + sum_s p_s g[y + s] and P(escape) = first . 1_out + g . (M P 1_out).

    A walk in d >= 2 whose rates are even in each axis (a(z) is unchanged
    when any one coordinate of z changes sign) has the symbol
    f(theta) = sum_s p_s (1 - prod_j cos(s_j theta_j)), and its CG is
    preconditioned by the box Dirichlet problem of f, solved exactly by the
    orthonormal sine transform (DST-I) of the (2r + 1)^d box, one product
    with the n x n sine matrix per axis: the tau preconditioner of Chan &
    Ng, SIAM Rev. 38 (1996).  f > 0 on the grid theta_k = pi k / (n + 1),
    k = 1 .. n, because the support generates Z^d.  For range 1 this is
    the box operator itself, and the solve ends after 3 iterations (y and z
    change it by rank 2), so it is capped at 10 (2r + 1) iterations and a
    stalled solve reaches the LU fallback quickly.  Longer jumps leave the
    preconditioner inexact, and the count may grow with the radius (a knight
    walk with axis rates 1e-3: 30, 31, 34 steps at r = 15, 30, 60), so
    those solves keep the cap 10 (2r + 1)^d.  Walks that are not axis-even
    run plain CG under that cap: the sine transform misses the
    sin(s_j theta_j) products of their symbol, and for walks far from
    axis-even it was measured to cost more time than it saves.  d = 1 runs
    plain CG too: there the n x n sine matrix would outgrow the n-state box.
    """
    _check_dims(model, q)
    d, r = model.d, int(box_radius)
    for point in (q.x, q.y, q.z):
        if any(abs(c) > r for c in point):
            raise QueryOutsideBox(f"{point} outside box of radius {r}")
    if is_simple_1d(model):
        return _simple_1d_bracket(model, q)

    halo = int(np.max(np.abs(model.support)))  # the jump range
    side = 2 * (r + halo) + 1
    strides = side ** np.arange(d - 1, -1, -1)
    ix, iy, iz = (int(np.dot(np.add(pt, r + halo), strides)) for pt in (q.x, q.y, q.z))
    probs = model.rates / model.total_rate
    offsets = model.support @ strides
    # every box state lies in the flat range [lo, lo + span)
    lo, span = halo * int(strides.sum()), 2 * r * int(strides.sum()) + 1
    core = slice(lo, lo + span)
    box = np.zeros((side,) * d)
    box[(slice(halo, side - halo),) * d] = 1.0
    box = box.ravel()
    mask = box.copy()  # y, z and the halo are absorbing
    mask[[iy, iz]] = 0.0
    # jumps of equal rate share one multiply; they come in +- pairs
    groups = [(p * mask[core], offsets[probs == p]) for p in sorted(set(probs.tolist()))]
    part = np.empty(span)

    def step(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """M P u into out's range [lo, lo + span); out is zero elsewhere."""
        acc = out[core]
        for g, (weight, offs) in enumerate(groups):
            dst = part if g else acc
            shifted = [u[lo + o:lo + o + span] for o in offs]
            np.add(shifted[0], shifted[1], out=dst)
            for v in shifted[2:]:
                dst += v
            dst *= weight
            if g:
                acc += dst
        return out

    def assemble():
        import scipy.sparse as sp

        n, m = side**d, sp.diags(mask)
        return (sp.identity(n) - m @ sp.diags(probs, offsets, shape=(n, n)) @ m).tocsc()

    precondition = None
    axis_even = all(
        model.rate(z[:j] + (-z[j],) + z[j + 1:]) == p for z, p in model.jumps for j in range(d)
    )
    if d > 1 and axis_even:
        n = 2 * r + 1
        k = np.arange(1, n + 1)
        sine = np.sqrt(2 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))  # symmetric, its own inverse
        cosines = np.cos(np.multiply.outer(model.support, np.pi * k / (n + 1)))
        symbol = 1.0 - sum(p * functools.reduce(np.multiply.outer, c) for p, c in zip(probs, cosines))
        interior = (slice(halo, side - halo),) * d
        inner = mask.reshape((side,) * d)[interior]

        def sine_transform(v: np.ndarray) -> np.ndarray:
            """DST-I along every axis of v, shape (n, ..., n): per axis, one
            batch of products with the sine matrix on the C-order layout,
            with no transpose."""
            for j in range(1, d):
                v = np.matmul(sine, v.reshape(-1, n, n ** (d - j)))
            return (v.reshape(-1, n) @ sine).reshape((n,) * d)

        def precondition(res: np.ndarray) -> np.ndarray:
            """C^-1 res on the mask, zero elsewhere: masked, transformed,
            divided by f, transformed back and masked again."""
            out = np.zeros_like(res)
            v = res.reshape((side,) * d)[interior] * inner
            out.reshape((side,) * d)[interior] = sine_transform(sine_transform(v) / symbol) * inner
            return out

    # the law of the first jump from x, and the expected visits after it
    first = np.zeros_like(box)
    first[ix + offsets] = probs
    exact = precondition is not None and halo == 1
    maxiter = 10 * (2 * r + 1) ** (1 if exact else d)
    visits = _solve_spd(step, first * mask, maxiter, assemble, precondition)

    if d == 2:
        sep = max(abs(a - b) for a, b in zip(q.y, q.z))
        beta = min(0.5, 1.25 * (sep + halo) / r)
        esc_lo, esc_hi = 0.5 - beta, 0.5 + beta
    else:
        esc_lo, esc_hi = 0.0, 1.0
    # P(absorbed at y inside the box), P(escape through the boundary)
    hit = first[iy] + visits[iy + offsets] @ probs
    esc = first @ (1.0 - box) + visits @ step(1.0 - box, np.zeros_like(box))
    return float(hit + esc_lo * esc), float(hit + esc_hi * esc)


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
