"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from taboowalk import (
    SimConfig,
    TabooQuery,
    TailOrder,
    TimeGrid,
    Variant,
    absorption_limit_bracket,
    estimate_taboo_curve,
    fit_tail_order,
    hitting_cdf,
    hitting_limit,
    laplace_hitting,
    laplace_taboo,
    minus_atom,
    minus_from_plus,
    nearest_neighbor_walk,
    rho,
    simple_walk_1d,
    taboo_cdf,
    taboo_limit,
    taboo_tail,
    tail_extract,
    trig_identity_check,
    validate_model,
)
from taboowalk.limits import c1_constant, c2_constant

THEOREM2_TABLE = [
    ((2,), (5,), (0,), 0.4),
    ((0,), (3,), (0,), 1.0 / 6.0),
    ((3,), (3,), (0,), 5.0 / 6.0),
    ((-1,), (2,), (0,), 0.0),
    ((7,), (5,), (0,), 1.0),
]

# curves solved anywhere in this module, checked wholesale by criterion 12
_SOLVED_CURVES = []


def _taboo_curves(model, q, grid):
    pair = taboo_cdf(model, q, grid)
    _SOLVED_CURVES.extend(pair)
    return pair


class _Check:
    """Collects assertions for one criterion and prints a summary line."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.failures = []

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def expect(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} FAIL {self.title} [{elapsed:.1f}s] raised {exc}")
            return False
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds budget {self.budget:.0f}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {status} {self.title} [{elapsed:.1f}s]")
        for f in self.failures:
            print(f"    - {f}")
        assert not self.failures
        return False


@pytest.fixture(scope="module")
def simple():
    return simple_walk_1d(1.0)


@pytest.fixture(scope="module")
def nonsimple():
    return validate_model(1, {(1,): 0.4, (2,): 0.1})


@pytest.fixture(scope="module")
def lattice2d():
    return nearest_neighbor_walk(2)


@pytest.fixture(scope="module")
def lattice3d():
    return nearest_neighbor_walk(3)


def test_criterion_01_trig_identity():
    with _Check(1, "Lemma-5 trig identity, x = 1..10, rel 1e-8", 1.0) as c:
        for x in range(1, 11):
            want = 2.0 * math.pi * x
            got = trig_identity_check(x)
            c.expect(abs(got - want) <= 1e-8 * want, f"x={x}: {got} vs {want}")


def test_criterion_02_rho_simple_walk(simple):
    with _Check(2, "rho(x) = |x| for the simple walk, |x| <= 10, 1e-6", 1.0) as c:
        for x in range(-10, 11):
            want = float(abs(x)) if x else 1.0
            got = rho(simple, (x,))
            c.expect(abs(got - want) <= 1e-6, f"x={x}: {got}")


def test_criterion_03_theorem2_table(simple):
    with _Check(3, "Theorem-2 limit table: dispatch, oracle, Monte Carlo", 120.0) as c:
        horizon = 200.0 / simple.a
        for x, y, z, want in THEOREM2_TABLE:
            q = TabooQuery(x, y, z)
            got = taboo_limit(simple, q)
            c.expect(got == want, f"dispatch {x+y+z}: {got} != {want}")

            lo, hi = absorption_limit_bracket(simple, q, 100)
            c.expect(hi - lo <= 1e-3, f"oracle width {hi - lo:.2e} at {x+y+z}")
            c.expect(lo - 1e-12 <= want <= hi + 1e-12, f"oracle bracket misses at {x+y+z}")

            # the MC estimate sees H(200), i.e. the limit minus the known tail;
            # a 5% allowance on the predicted deficit absorbs the next order
            tail = taboo_tail(simple, q)
            deficit = tail.deficit_at(horizon)
            est = estimate_taboo_curve(
                simple, q, [horizon], SimConfig(horizon=horizon, n_paths=1_000_000, seed=42)
            )[0]
            sigma = math.hypot(est.std_error, 0.05 * deficit)
            diff = abs(est.probability - (want - deficit))
            c.expect(
                diff <= 3 * sigma + 1e-12,
                f"MC at {x+y+z}: est {est.probability:.5f} vs {want - deficit:.5f} "
                f"(3 sigma = {3 * sigma:.2e})",
            )


def test_criterion_04_theorem1_d2_limit(lattice2d):
    with _Check(4, "Theorem-1 d=2 limit vs absorption bracket (radius 60)", 60.0) as c:
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        val = taboo_limit(lattice2d, q)
        c.expect(0.0 < val < 1.0, f"limit {val} not in (0,1)")
        c.expect(abs(val - (1 - 2 / math.pi)) < 1e-7, f"limit {val} vs 1 - 2/pi")
        lo, hi = absorption_limit_bracket(lattice2d, q, 60)
        c.expect(hi - lo <= 0.02, f"bracket width {hi - lo:.4f} > 0.02")
        c.expect(lo <= val <= hi, f"bracket [{lo:.4f}, {hi:.4f}] misses {val:.4f}")


def test_criterion_05_theorem1_d3_limit(lattice3d):
    with _Check(5, "Theorem-1 d=3 limit vs Monte Carlo with escape allowance", 180.0) as c:
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        val = taboo_limit(lattice3d, q)
        hit = hitting_limit(lattice3d, q.x, q.y)
        c.expect(0.0 < val <= hit, f"taboo limit {val} vs hitting limit {hit}")
        horizon = 200.0 / lattice3d.a
        est = estimate_taboo_curve(
            lattice3d, q, [horizon], SimConfig(horizon=horizon, n_paths=400_000, seed=7)
        )[0]
        escape = est.undecided_paths / est.n_paths
        c.expect(
            est.probability - 3 * est.std_error
            <= val
            <= est.probability + escape + 3 * est.std_error,
            f"limit {val:.5f} outside [est - 3s, est + escape + 3s] = "
            f"[{est.probability - 3 * est.std_error:.5f}, "
            f"{est.probability + escape + 3 * est.std_error:.5f}]",
        )


def test_criterion_06_laplace_consistency(simple, nonsimple):
    with _Check(6, "Laplace-Stieltjes transforms of curves match closed forms, 1e-3", 60.0) as c:
        grid = TimeGrid(step=0.02, n_steps=2000)

        def ls(curve, lam):
            thalf = (np.arange(curve.grid.n_steps) + 0.5) * curve.grid.step
            return float(np.exp(-lam * thalf) @ np.diff(curve.values))

        hit_curve = hitting_cdf(simple, (0,), (1,), grid)
        _SOLVED_CURVES.append(hit_curve)
        for model, q in ((simple, TabooQuery((2,), (5,), (0,))),
                         (nonsimple, TabooQuery((1,), (3,), (0,)))):
            cur, _ = _taboo_curves(model, q, grid)
            for lam in (0.5 * model.a, model.a, 2.0 * model.a):
                diff = abs(ls(cur, lam) - laplace_taboo(model, q, lam))
                c.expect(diff <= 1e-3, f"taboo LS mismatch {diff:.2e} at lam={lam}")
        for lam in (0.5, 1.0, 2.0):
            diff = abs(ls(hit_curve, lam) - laplace_hitting(simple, (0,), (1,), lam))
            c.expect(diff <= 1e-3, f"hitting LS mismatch {diff:.2e} at lam={lam}")


def test_criterion_07_tail_extraction_d1(nonsimple):
    with _Check(7, "tail-constant extraction d=1 within 5% (incl. x=y, x=z)", 120.0) as c:
        for x, y, z in [((1,), (3,), (0,)), ((0,), (3,), (0,)), ((3,), (3,), (0,))]:
            q = TabooQuery(x, y, z)
            est = tail_extract(nonsimple, q)
            closed = c1_constant(nonsimple, q.rel_x, q.rel_y)
            rel = abs(est.constant - closed) / closed
            c.expect(rel <= 0.05, f"{x+y+z}: extracted {est.constant:.6f} vs {closed:.6f} ({rel:.1%})")
            c.expect(est.order is TailOrder.INVERSE_SQRT_T, f"wrong order {est.order}")


def test_criterion_08_tail_extraction_d2(lattice2d):
    with _Check(8, "tail-constant extraction d=2 within 10%", 180.0) as c:
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        est = tail_extract(lattice2d, q)
        closed = c2_constant(lattice2d, q.rel_x, q.rel_y)
        rel = abs(est.constant - closed) / closed
        c.expect(rel <= 0.10, f"extracted {est.constant:.6f} vs {closed:.6f} ({rel:.1%})")
        c.expect(est.order is TailOrder.INVERSE_LOG_T, f"wrong order {est.order}")


def test_criterion_09_exponential_tail_fit(simple):
    with _Check(9, "simulated (2,5,0) deficits classify as exponential, rate > 0.05a", 60.0) as c:
        # sample times span 4/a..20/a: five or more points as fit_tail_order
        # requires, placed where the deficit still clears Monte Carlo noise
        q = TabooQuery((2,), (5,), (0,))
        ts = [4.0, 6.0, 8.0, 10.0, 14.0, 20.0]
        ests = estimate_taboo_curve(
            simple, q, ts, SimConfig(horizon=max(ts), n_paths=1_000_000, seed=99)
        )
        limit = taboo_limit(simple, q)
        samples = [(t, limit - e.probability) for t, e in zip(ts, ests)]
        c.expect(all(dv > 0 for _, dv in samples), f"nonpositive deficits: {samples}")
        fit = fit_tail_order(samples)
        c.expect(fit.order is TailOrder.EXPONENTIAL, f"classified {fit.order}")
        c.expect(
            fit.rate_bound is not None and fit.rate_bound > 0.05 * simple.a,
            f"fitted rate {fit.rate_bound}",
        )


def test_criterion_10_minus_variants(simple):
    with _Check(10, "minus variants: limits exact, atom 1e-2, MC 3 sigma", 120.0) as c:
        q = TabooQuery((4,), (5,), (0,))
        limit, atom = taboo_limit(simple, q), minus_atom(simple, q.x, q.y)
        c.expect(atom == 0.5, f"atom {atom} != 0.5")

        grid = TimeGrid(step=0.02, n_steps=1500)
        plus, _ = _taboo_curves(simple, q, grid)
        minus = minus_from_plus(plus, simple, q.x, q.y)
        c.expect(minus.limit == plus.limit, "curve limit changed")
        c.expect(abs(minus.values[0] - 0.5) <= 1e-2, f"curve atom {minus.values[0]:.4f}")

        atom_est = estimate_taboo_curve(
            simple, q, [0.0], SimConfig(horizon=1.0, n_paths=400_000, seed=17), Variant.MINUS,
        )[0]
        c.expect(
            abs(atom_est.probability - 0.5) <= 3 * atom_est.std_error,
            f"MC atom {atom_est.probability:.5f}",
        )
        lim_est = estimate_taboo_curve(
            simple, q, [200.0], SimConfig(horizon=200.0, n_paths=400_000, seed=18),
            Variant.MINUS,
        )[0]
        c.expect(
            abs(lim_est.probability - limit) <= 3 * lim_est.std_error,
            f"MC minus limit {lim_est.probability:.5f} vs {limit}",
        )


def test_criterion_11_invariance_suite(simple, nonsimple, lattice2d):
    with _Check(11, "shift/reflection invariance: 20 draws exact, curves 1e-8", 120.0) as c:
        import random

        rng = random.Random(20240817)
        draws = 0
        while draws < 20:
            d_model = rng.choice([(simple, 1), (nonsimple, 1), (lattice2d, 2)])
            model, d = d_model
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(3)]
            if pts[1] == pts[2]:
                continue
            r = tuple(rng.randint(-15, 15) for _ in range(d))
            q = TabooQuery(*pts)
            q_shift = TabooQuery(*[tuple(c0 + s for c0, s in zip(p, r)) for p in pts])
            q_refl = TabooQuery(*[tuple(-c0 for c0 in p) for p in pts])
            c.expect(
                taboo_limit(model, q) == taboo_limit(model, q_shift)
                and taboo_limit(model, q) == taboo_limit(model, q_refl),
                f"limit invariance broken for {pts} + {r}",
            )
            c.expect(
                taboo_tail(model, q) == taboo_tail(model, q_shift)
                and taboo_tail(model, q) == taboo_tail(model, q_refl),
                f"tail invariance broken for {pts}",
            )
            draws += 1

        # step small enough that even the structurally-zero curve of the
        # (0,2,4) query keeps its O(h^3) drift inside the 1e-9 monotonicity
        # tolerance checked by criterion 12
        grid = TimeGrid(step=0.005, n_steps=2000)
        for pts, r in [
            (((1,), (3,), (0,)), (5,)),
            (((0,), (2,), (4,)), (-7,)),
            (((2,), (5,), (0,)), (3,)),
        ]:
            q = TabooQuery(*pts)
            q_shift = TabooQuery(*[tuple(c0 + s for c0, s in zip(p, r)) for p in pts])
            q_refl = TabooQuery(*[tuple(-c0 for c0 in p) for p in pts])
            base, _ = _taboo_curves(simple, q, grid)
            for other_q in (q_shift, q_refl):
                other, _ = _taboo_curves(simple, other_q, grid)
                c.expect(
                    float(np.max(np.abs(other.values - base.values))) <= 1e-8,
                    f"curve invariance broken for {pts}",
                )


def test_criterion_12_time_domain_self_consistency(simple, nonsimple):
    with _Check(12, "Lemma-2 residual <= 1e-8, curves monotone, H(0) = 0", 60.0) as c:
        # two more solves beyond everything accumulated above
        grid = TimeGrid(step=0.05, n_steps=600)
        _taboo_curves(simple, TabooQuery((0,), (3,), (0,)), grid)
        _taboo_curves(nonsimple, TabooQuery((-2,), (1,), (3,)), grid)
        c.expect(len(_SOLVED_CURVES) >= 10, "curve registry unexpectedly small")
        for idx, cur in enumerate(_SOLVED_CURVES):
            if cur.residual is not None:
                c.expect(cur.residual <= 1e-8, f"curve {idx}: residual {cur.residual:.2e}")
            c.expect(cur.values[0] == 0.0, f"curve {idx}: H(0) = {cur.values[0]}")
            min_inc = float(np.min(np.diff(cur.values)))
            c.expect(min_inc >= -1e-9, f"curve {idx}: increment {min_inc:.2e}")
            c.expect(
                float(np.max(cur.values)) <= cur.limit + 1e-6,
                f"curve {idx}: exceeds limit",
            )
