import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from taboowalk import (
    BracketTooWide,
    DegenerateSamples,
    InvalidQuery,
    QueryOutsideBox,
    SimConfig,
    TabooQuery,
    TailOrder,
    absorption_limit_bracket,
    absorption_limit_oracle,
    estimate_minus_cdf,
    estimate_taboo_cdf,
    fit_tail_order,
    taboo_limit,
    taboo_tail,
)
import taboowalk
from taboowalk import simulate
from taboowalk.simulate import _mix64_int, _simulate_hit_times, _uniforms, estimate_taboo_curve


class TestRngStream:
    def test_uniform_moments(self):
        ids = np.arange(200_000, dtype=np.uint64)
        seed_hash = np.uint64(_mix64_int(123 + 0x9E3779B97F4A7C15))
        u = _uniforms(seed_hash, ids, 17, 1)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_streams_differ_by_key(self):
        ids = np.arange(1000, dtype=np.uint64)
        seed_hash = np.uint64(_mix64_int(1 + 0x9E3779B97F4A7C15))
        a = _uniforms(seed_hash, ids, 0, 0)
        b = _uniforms(seed_hash, ids, 0, 1)
        c = _uniforms(seed_hash, ids, 1, 0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTabooEstimates:
    def test_structurally_impossible_query(self, simple1d):
        q = TabooQuery((-1,), (2,), (0,))
        est = estimate_taboo_cdf(simple1d, q, 50.0, SimConfig(horizon=50.0, n_paths=5000, seed=1))
        assert est.probability == 0.0
        assert est.std_error == 0.0

    def test_gambler_limit(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        sim = SimConfig(horizon=200.0, n_paths=200_000, seed=11)
        est = estimate_taboo_cdf(simple1d, q, 200.0, sim)
        assert abs(est.probability - 0.4) <= 3 * est.std_error

    def test_shard_invariance_bitwise(self, simple1d, monkeypatch):
        q = TabooQuery((0,), (3,), (0,))
        sim = SimConfig(horizon=30.0, n_paths=30_000, seed=99)
        results = []
        for block in (1000, 7000, sim.n_paths):
            monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
            results.append(estimate_taboo_cdf(simple1d, q, 30.0, sim))
        assert results[0] == results[1] == results[2]

    def test_memory_flat_in_path_count(self, walk3d, monkeypatch):
        # the traced peak is set by the block size, not by n_paths
        block = 2000
        monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        peaks = []
        for n_blocks in (4, 16):
            sim = SimConfig(horizon=5.0, n_paths=n_blocks * block, seed=3)
            tracemalloc.start()
            try:
                estimate_taboo_curve(walk3d, q, [2.0, 5.0], sim)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_monotone_in_t_shared_paths(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        sim = SimConfig(horizon=40.0, n_paths=20_000, seed=5)
        ests = estimate_taboo_curve(simple1d, q, [5.0, 10.0, 20.0, 40.0], sim)
        probs = [e.probability for e in ests]
        assert probs == sorted(probs)

    def test_epoch_checks_match_reference(self, simple1d):
        # replay 1000 paths in a direct per-path loop with the same RNG and
        # compare outcome-by-outcome with the vectorized kernel (times only
        # to 1e-12: scalar and array libm calls differ in the last ulp)
        q = TabooQuery((1,), (3,), (0,))
        sim = SimConfig(horizon=25.0, n_paths=1000, seed=77)
        hit, _, _ = _simulate_reference(simple1d, q, sim)
        from taboowalk.simulate import _simulate_hit_times

        got, _, _ = _simulate_hit_times(simple1d, q, sim, minus_clock=False)
        assert np.array_equal(np.isinf(hit), np.isinf(got))
        finite = np.isfinite(hit)
        assert np.allclose(hit[finite], got[finite], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "walk, minus_clock",
        [("walk2d", False), ("walk3d", False), ("walk3d", True), ("simple1d", True)],
    )
    def test_blocked_kernel_matches_reference(self, walk, minus_clock, request, monkeypatch):
        # several blocks with a short last one; outcomes exact, times to 1e-12
        model = request.getfixturevalue(walk)
        monkeypatch.setattr(simulate, "_BLOCK_PATHS", 300)
        q = {
            1: TabooQuery((1,), (3,), (0,)),
            2: TabooQuery((1, 0), (0, 1), (0, 0)),
            3: TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        }[model.d]
        sim = SimConfig(horizon=12.0, n_paths=1000, seed=77, max_jumps=8)
        want = _simulate_reference(model, q, sim, minus_clock)
        got = _simulate_hit_times(model, q, sim, minus_clock)
        assert got[1:] == want[1:]
        assert want[1] > 0 and np.isfinite(want[0]).any()
        assert np.array_equal(np.isinf(want[0]), np.isinf(got[0]))
        finite = np.isfinite(want[0])
        assert np.allclose(want[0][finite], got[0][finite], rtol=1e-12, atol=0.0)

    def test_query_dimension_must_match(self, walk2d):
        with pytest.raises(InvalidQuery):
            estimate_taboo_cdf(
                walk2d, TabooQuery((1,), (2,), (0,)), 1.0, SimConfig(horizon=1.0, n_paths=10, seed=0)
            )

    def test_epoch_checks_equal_dense_monitoring(self, simple1d):
        # reconstruct full trajectories for 10^3 paths and monitor the taboo
        # on a dense time grid: for piecewise-constant paths both protocols
        # must classify every path identically
        q = TabooQuery((1,), (3,), (0,))
        sim = SimConfig(horizon=15.0, n_paths=1000, seed=4321)
        from taboowalk.simulate import _simulate_hit_times

        epoch_times, _, _ = _simulate_hit_times(simple1d, q, sim, minus_clock=False)
        dt = 0.01
        for i in range(sim.n_paths):
            jumps, states = _trajectory(simple1d, q, sim, i)
            dense_hit = _dense_monitor(jumps, states, q, sim.horizon, dt=dt)
            if math.isinf(epoch_times[i]):
                assert math.isinf(dense_hit)
            elif epoch_times[i] <= sim.horizon - dt:
                assert dense_hit == epoch_times[i]

    def test_rejects_time_beyond_horizon(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        with pytest.raises(ValueError):
            estimate_taboo_cdf(simple1d, q, 60.0, SimConfig(horizon=50.0, n_paths=10, seed=0))

    def test_unbiased_against_absorption_truth(self, simple1d):
        # mean over many independent seeds vs the exact gambler's-ruin value
        q = TabooQuery((2,), (5,), (0,))
        truth = absorption_limit_oracle(simple1d, q, 10)
        n_seeds, n_paths = 100, 4000
        probs = []
        for seed in range(n_seeds):
            sim = SimConfig(horizon=120.0, n_paths=n_paths, seed=seed)
            probs.append(estimate_taboo_cdf(simple1d, q, 120.0, sim).probability)
        mean = float(np.mean(probs))
        combined_se = math.sqrt(truth * (1 - truth) / (n_seeds * n_paths))
        assert abs(mean - truth) <= 4 * combined_se


def _trajectory(model, q, sim, path_id, max_steps=100_000):
    """Jump epochs and visited states of one path, same RNG as the kernel."""
    from taboowalk.simulate import _mix64_int, _uniforms

    a = model.total_rate
    support = [tuple(s) for s in model.support]
    cdf = model.jump_cdf
    seed_hash = np.uint64(_mix64_int(sim.seed + 0x9E3779B97F4A7C15))
    pos = q.x
    clock = 0.0
    jumps, states = [0.0], [pos]
    pid = np.array([path_id], dtype=np.uint64)
    for step in range(max_steps):
        u1 = float(_uniforms(seed_hash, pid, step, 0)[0])
        u2 = float(_uniforms(seed_hash, pid, step, 1)[0])
        clock += -np.log1p(-u1) / a
        if clock > sim.horizon:
            break
        k = int(np.searchsorted(cdf, u2, side="right"))
        pos = tuple(p + s for p, s in zip(pos, support[k]))
        jumps.append(clock)
        states.append(pos)
        if pos == q.y or pos == q.z:
            break
    return jumps, states


def _dense_monitor(jumps, states, q, horizon, dt):
    """First dense-grid time at y with no z occupancy since the first jump."""
    ts = np.arange(1, int(horizon / dt) + 1) * dt
    idx = np.searchsorted(np.asarray(jumps), ts, side="right") - 1
    for j in idx:
        if j >= 1:  # taboo active from the first jump on
            if states[j] == q.z:
                return math.inf
            if states[j] == q.y:
                # the state is constant since the last jump, so the hit
                # happened exactly at that jump epoch
                return jumps[j]
    return math.inf


def _simulate_reference(model, q, sim, minus_clock=False):
    """Straight-line per-path reference implementation (same RNG keys)."""
    from taboowalk.simulate import _mix64_int, _uniforms

    a = model.total_rate
    support = [tuple(s) for s in model.support]
    cdf = model.jump_cdf
    seed_hash = np.uint64(_mix64_int(sim.seed + 0x9E3779B97F4A7C15))
    hit = np.full(sim.n_paths, np.inf)
    trunc = und = 0
    for i in range(sim.n_paths):
        pos = q.x
        clock = 0.0
        step = 0
        while True:
            if step >= sim.max_jumps:
                trunc += 1
                und += 1
                break
            pid = np.array([i], dtype=np.uint64)
            u1 = float(_uniforms(seed_hash, pid, step, 0)[0])
            u2 = float(_uniforms(seed_hash, pid, step, 1)[0])
            if not (minus_clock and step == 0):
                clock += -math.log1p(-u1) / a
            if clock > sim.horizon:
                und += 1
                break
            k = int(np.searchsorted(cdf, u2, side="right"))
            pos = tuple(p + s for p, s in zip(pos, support[k]))
            if pos == q.y:
                hit[i] = clock
                break
            if pos == q.z:
                break
            step += 1
        else:
            continue
    return hit, trunc, und


class TestMinusEstimates:
    def test_atom_at_zero(self, simple1d):
        q = TabooQuery((4,), (5,), (0,))
        sim = SimConfig(horizon=1.0, n_paths=100_000, seed=21)
        est = estimate_minus_cdf(simple1d, q, 0.0, sim)
        assert abs(est.probability - 0.5) <= 3 * est.std_error

    def test_zero_case(self, simple1d):
        q = TabooQuery((-1,), (2,), (0,))
        est = estimate_minus_cdf(simple1d, q, 20.0, SimConfig(horizon=20.0, n_paths=5000, seed=2))
        assert est.probability == 0.0

    def test_limits_agree_with_plus(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        sim = SimConfig(horizon=200.0, n_paths=100_000, seed=31)
        plus = estimate_taboo_cdf(simple1d, q, 200.0, sim)
        minus = estimate_minus_cdf(simple1d, q, 200.0, sim)
        combined = math.hypot(plus.std_error, minus.std_error)
        assert abs(plus.probability - minus.probability) <= 3 * combined + 1e-12


class TestAbsorptionOracle:
    def test_gambler_exact(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        lo, hi = absorption_limit_bracket(simple1d, q, 5)
        assert lo == hi == pytest.approx(0.4, abs=1e-12)

    def test_origin_start(self, simple1d):
        q = TabooQuery((0,), (3,), (0,))
        lo, hi = absorption_limit_bracket(simple1d, q, 50)
        assert hi - lo <= 1e-3
        assert lo - 1e-12 <= 1.0 / 6.0 <= hi + 1e-12

    def test_d2_bracket(self, walk2d):
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        lo, hi = absorption_limit_bracket(walk2d, q, 60)
        assert hi - lo <= 0.02
        assert lo <= 1 - 2 / math.pi <= hi

    def test_d1_nonsimple_bracket(self, nonsimple1d):
        q = TabooQuery((1,), (3,), (0,))
        lo, hi = absorption_limit_bracket(nonsimple1d, q, 400)
        assert lo <= taboo_limit(nonsimple1d, q) <= hi
        assert hi - lo < 0.01

    def test_d3_bracket_bounds_limit(self, walk3d):
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        lo, hi = absorption_limit_bracket(walk3d, q, 12)
        assert lo <= taboo_limit(walk3d, q) <= hi

    def test_query_outside_box(self, simple1d):
        with pytest.raises(QueryOutsideBox):
            absorption_limit_bracket(simple1d, TabooQuery((200,), (5,), (0,)), 100)

    def test_bracket_too_wide(self, walk3d):
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        with pytest.raises(BracketTooWide):
            absorption_limit_oracle(walk3d, q, 6, tol=1e-3)

    @pytest.mark.parametrize("walk, radius", [("walk2d", 10), ("walk3d", 5)])
    def test_cg_matches_splu_reference(self, walk, radius, request, monkeypatch):
        model = request.getfixturevalue(walk)
        d = model.d
        q = TabooQuery((1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * d)
        got = absorption_limit_bracket(model, q, radius)
        monkeypatch.setattr(spla, "cg", lambda a, b, **kw: (spla.splu(a.tocsc()).solve(b), 0))
        want = absorption_limit_bracket(model, q, radius)
        assert got == pytest.approx(want, abs=1e-10)

    def test_failed_cg_falls_back_to_splu(self, walk2d, monkeypatch):
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        want = absorption_limit_bracket(walk2d, q, 10)
        factorised = []
        splu = spla.splu
        monkeypatch.setattr(spla, "cg", lambda a, b, **kw: (np.zeros_like(b), 1))
        monkeypatch.setattr(spla, "splu", lambda a: factorised.append(a) or splu(a))
        assert absorption_limit_bracket(walk2d, q, 10) == pytest.approx(want, abs=1e-10)
        assert len(factorised) == 1


class TestFitTailOrder:
    def test_sqrt_class(self):
        ts = np.array([25.0, 50.0, 100.0, 200.0, 400.0])
        fit = fit_tail_order(list(zip(ts, 2.39 / np.sqrt(ts))))
        assert fit.order is TailOrder.INVERSE_SQRT_T
        assert fit.constant == pytest.approx(2.39, rel=0.02)

    def test_exponential_class(self):
        ts = np.array([5.0, 10.0, 15.0, 20.0, 30.0])
        fit = fit_tail_order(list(zip(ts, 3.0 * np.exp(-0.3 * ts))))
        assert fit.order is TailOrder.EXPONENTIAL
        assert fit.rate_bound == pytest.approx(0.3, rel=1e-6)

    def test_power_class_with_exponent(self):
        ts = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        fit = fit_tail_order(list(zip(ts, 0.7 / np.sqrt(ts) ** 3)), pow_exponent=1.5)
        assert fit.order is TailOrder.INVERSE_POW_T
        assert fit.constant == pytest.approx(0.7, rel=0.02)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSamples):
            fit_tail_order([(1.0, 0.5), (2.0, 0.4)])
        with pytest.raises(DegenerateSamples):
            fit_tail_order([(t, -0.1) for t in (2.0, 3.0, 4.0, 5.0, 6.0)])

    def test_simulated_sqrt_tail(self, simple1d):
        # x < y < z: deficit ~ sqrt(2)|y-x| / sqrt(a pi t)
        q = TabooQuery((1,), (4,), (6,))
        ts = [25.0, 50.0, 100.0, 200.0, 400.0]
        sim = SimConfig(horizon=400.0, n_paths=150_000, seed=13)
        ests = estimate_taboo_curve(simple1d, q, ts, sim)
        limit = taboo_limit(simple1d, q)
        samples = [(t, limit - e.probability) for t, e in zip(ts, ests)]
        fit = fit_tail_order(samples)
        assert fit.order is TailOrder.INVERSE_SQRT_T
        want = taboo_tail(simple1d, q).constant
        assert abs(fit.constant - want) <= 0.25 * want


def test_import_leaves_out_scipy_sparse():
    src = str(Path(taboowalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, taboowalk; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
