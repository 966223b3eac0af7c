import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from taboowalk import (
    DegenerateSamples,
    InvalidQuery,
    QueryOutsideBox,
    SimConfig,
    TabooQuery,
    TailOrder,
    Variant,
    absorption_limit_bracket,
    fit_tail_order,
    nearest_neighbor_walk,
    save_model,
    support_generates_lattice,
    taboo_limit,
    taboo_tail,
    validate_model,
)
import taboowalk
from taboowalk import simulate
from taboowalk.simulate import (
    _Packing,
    _draw,
    _mix64_int,
    _path_keys,
    estimate_taboo_curve,
    sampler_workers,
)


def _simulate_hit_times(model, q, sim, minus_clock):
    """Per-path taboo-hitting times (inf when the event fails by the horizon),
    for replaying paths one by one; holds one float per path."""
    hit_times = np.full(sim.n_paths, np.inf)
    truncated = undecided = 0
    for ids, times, trunc, und in simulate._hit_blocks(model, q, sim, minus_clock):
        hit_times[ids.astype(np.int64)] = times
        truncated += trunc
        undecided += und
    return hit_times, truncated, undecided


class TestRngStream:
    def test_uniform_moments(self):
        ids = np.arange(200_000, dtype=np.uint64)
        seed_hash = np.uint64(_mix64_int(123 + 0x9E3779B97F4A7C15))
        u = _draw(_path_keys(seed_hash, ids), 17, 1)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_streams_differ_by_key(self):
        ids = np.arange(1000, dtype=np.uint64)
        seed_hash = np.uint64(_mix64_int(1 + 0x9E3779B97F4A7C15))
        a = _draw(_path_keys(seed_hash, ids), 0, 0)
        b = _draw(_path_keys(seed_hash, ids), 0, 1)
        c = _draw(_path_keys(seed_hash, ids), 1, 0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTabooEstimates:
    def test_structurally_impossible_query(self, simple1d):
        q = TabooQuery((-1,), (2,), (0,))
        sim = SimConfig(horizon=50.0, n_paths=5000, seed=1)
        est = estimate_taboo_curve(simple1d, q, [50.0], sim)[0]
        assert est.probability == 0.0
        assert est.std_error == 0.0

    def test_gambler_limit(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        sim = SimConfig(horizon=200.0, n_paths=200_000, seed=11)
        est = estimate_taboo_curve(simple1d, q, [200.0], sim)[0]
        assert abs(est.probability - 0.4) <= 3 * est.std_error

    def test_shard_invariance_bitwise(self, simple1d, monkeypatch):
        q = TabooQuery((0,), (3,), (0,))
        sim = SimConfig(horizon=30.0, n_paths=30_000, seed=99)
        results = []
        for block in (1000, 7000, sim.n_paths):
            monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
            results.append(estimate_taboo_curve(simple1d, q, [30.0], sim)[0])
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
            estimate_taboo_curve(
                walk2d, TabooQuery((1,), (2,), (0,)), [1.0], SimConfig(horizon=1.0, n_paths=10, seed=0)
            )

    def test_epoch_checks_equal_dense_monitoring(self, simple1d):
        # reconstruct full trajectories for 10^3 paths and monitor the taboo
        # on a dense time grid: for piecewise-constant paths both protocols
        # must classify every path identically
        q = TabooQuery((1,), (3,), (0,))
        sim = SimConfig(horizon=15.0, n_paths=1000, seed=4321)
        epoch_times, _, _ = _simulate_hit_times(simple1d, q, sim, minus_clock=False)
        dt = 0.01
        for i in range(sim.n_paths):
            jumps, states = _trajectory(simple1d, q, sim, i)
            dense_hit = _dense_monitor(jumps, states, q, sim.horizon, dt=dt)
            if math.isinf(epoch_times[i]):
                assert math.isinf(dense_hit)
            elif epoch_times[i] <= sim.horizon - dt:
                assert dense_hit == epoch_times[i]

    def test_rejects_nan_time(self, simple1d):
        # nan fails every comparison, so a one-sided check lets it through
        q = TabooQuery((2,), (5,), (0,))
        with pytest.raises(ValueError):
            estimate_taboo_curve(simple1d, q, [math.nan], SimConfig(horizon=50.0, n_paths=10, seed=0))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_nonfinite_horizon(self, horizon):
        with pytest.raises(ValueError):
            SimConfig(horizon=horizon, n_paths=10, seed=0)

    def test_rejects_time_beyond_horizon(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        with pytest.raises(ValueError):
            estimate_taboo_curve(simple1d, q, [60.0], SimConfig(horizon=50.0, n_paths=10, seed=0))

    def test_unbiased_against_absorption_truth(self, simple1d):
        # mean over many independent seeds vs the exact gambler's-ruin value
        q = TabooQuery((2,), (5,), (0,))
        truth = 0.5 * sum(absorption_limit_bracket(simple1d, q, 10))
        n_seeds, n_paths = 100, 4000
        probs = []
        for seed in range(n_seeds):
            sim = SimConfig(horizon=120.0, n_paths=n_paths, seed=seed)
            probs.append(estimate_taboo_curve(simple1d, q, [120.0], sim)[0].probability)
        mean = float(np.mean(probs))
        combined_se = math.sqrt(truth * (1 - truth) / (n_seeds * n_paths))
        assert abs(mean - truth) <= 4 * combined_se


_QUERIES = {
    1: TabooQuery((1,), (3,), (0,)),
    2: TabooQuery((1, 0), (0, 1), (0, 0)),
    3: TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0)),
    4: TabooQuery((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)),
}
# range 2 in d = 3: 22-bit fields at the default cap, two to a word
_RANGE2_3D = {(1, 0, 0): 0.1, (0, 1, 0): 0.1, (0, 0, 1): 0.1, (0, 0, 2): 0.05}


class TestSplitInvariance:
    """Hit times, truncated and undecided counts do not depend on how the
    paths are split into blocks and over worker threads."""

    @pytest.mark.parametrize("walk", ["simple1d", "walk2d", "walk3d"])
    @pytest.mark.parametrize("minus_clock", [False, True])
    def test_bitwise_across_workers_and_blocks(self, walk, minus_clock, request, monkeypatch):
        model = request.getfixturevalue(walk)
        sim = SimConfig(horizon=15.0, n_paths=3000, seed=8)
        want = _simulate_hit_times(model, _QUERIES[model.d], sim, minus_clock)
        assert np.isfinite(want[0]).any() and want[2] > 0
        monkeypatch.setattr(simulate, "_WORKER_PATHS", 1)
        for workers, block in itertools.product((1, 2, 3), (3000, 1100, 257)):
            monkeypatch.setattr(simulate, "_cpus", lambda: workers)
            monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
            assert sampler_workers(sim.n_paths) == workers
            got = _simulate_hit_times(model, _QUERIES[model.d], sim, minus_clock)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], (workers, block)

    def test_bitwise_with_truncation(self, walk3d, monkeypatch):
        sim = SimConfig(horizon=15.0, n_paths=2000, seed=8, max_jumps=6)
        want = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        assert want[1] > 0
        monkeypatch.setattr(simulate, "_WORKER_PATHS", 1)
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
        got = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_cut_groups_match_one_compare(self, walk3d, monkeypatch):
        sim = SimConfig(horizon=15.0, n_paths=2000, seed=8)
        want = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        monkeypatch.setattr(simulate, "_COMPARED_CUTS", 2)  # five cuts in groups of 2, 2, 1
        got = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_more_workers_than_cpus_under_fast_switching(self, walk3d, monkeypatch):
        # each worker writes only its own result slot; a lost or crossed
        # result would change the hit times or the counts
        sim = SimConfig(horizon=10.0, n_paths=4000, seed=21)
        want = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        monkeypatch.setattr(simulate, "_WORKER_PATHS", 1)
        monkeypatch.setattr(simulate, "_cpus", lambda: 5)  # more workers than a small test runner has CPUs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _simulate_hit_times(walk3d, _QUERIES[3], sim, False)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_workers_capped_by_cpus_and_path_floor(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpus", lambda: 4)
        floor = simulate._WORKER_PATHS
        assert sampler_workers(1) == sampler_workers(2 * floor - 1) == 1
        assert sampler_workers(2 * floor) == 2
        assert sampler_workers(10**9) == min(4, simulate._BLOCK_PATHS // floor)

    def test_worker_exception_reaches_caller(self, walk3d, monkeypatch):
        keys = simulate._path_keys

        def failing(seed_hash, ids):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return keys(seed_hash, ids)

        monkeypatch.setattr(simulate, "_WORKER_PATHS", 1)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "_path_keys", failing)
        sim = SimConfig(horizon=5.0, n_paths=100, seed=1)
        with pytest.raises(RuntimeError, match="worker failed"):
            estimate_taboo_curve(walk3d, _QUERIES[3], [5.0], sim)


class TestPackedPositions:
    @pytest.mark.parametrize(
        "jumps, d", [(_RANGE2_3D, 3), (None, 4)], ids=["range2-d3", "nn-d4"]
    )
    def test_multi_word_walk_matches_reference(self, jumps, d):
        model = validate_model(d, jumps) if jumps else nearest_neighbor_walk(d)
        q = _QUERIES[d]
        sim = SimConfig(horizon=8.0, n_paths=600, seed=12)
        assert _Packing(model, q, sim.max_jumps).n_words == 2
        want = _simulate_reference(model, q, sim)
        got = _simulate_hit_times(model, q, sim, minus_clock=False)
        assert got[1:] == want[1:]
        assert np.isfinite(want[0]).any()
        assert np.array_equal(np.isinf(want[0]), np.isinf(got[0]))
        finite = np.isfinite(want[0])
        assert np.allclose(want[0][finite], got[0][finite], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "jumps, d, max_jumps",
        [(_RANGE2_3D, 3, 1_000_000), (None, 2, 1_000_000), (None, 3, 7), (None, 1, 2**61)],
        ids=["range2-d3", "nn-d2", "nn-d3-small-cap", "nn-d1-63-bits"],
    )
    def test_extreme_displacements_have_distinct_codes(self, jumps, d, max_jumps):
        model = validate_model(d, jumps) if jumps else nearest_neighbor_walk(d)
        packing = _Packing(model, _QUERIES[d], max_jumps)
        edge = (1 << packing.bits) // 2 - 1  # every reachable |p_j - t_j| is at most this
        vecs = list(itertools.product((-edge, -1, 0, 1, edge), repeat=d))
        codes = packing.encode(vecs)
        assert codes.shape == (packing.n_words, len(vecs))
        assert len({tuple(c) for c in codes.T}) == len(vecs)
        # the codes are exact: each field decodes back to its axis
        k, half = packing.fields, 1 << (packing.bits - 1)
        for v, c in zip(vecs, codes.T):
            got = []
            for word in c.tolist():
                for _ in range(min(k, d - len(got))):
                    field = (word + half) % (1 << packing.bits) - half
                    got.append(field)
                    word = (word - field) >> packing.bits
            assert tuple(got) == v

    def test_rejects_cap_beyond_exact_positions(self, nonsimple1d):
        q = TabooQuery((1,), (3,), (0,))
        # range 2: max_jumps 2^61 needs 64-bit fields
        with pytest.raises(ValueError, match="exact int64 positions"):
            estimate_taboo_curve(nonsimple1d, q, [1.0], SimConfig(horizon=1.0, n_paths=10, seed=0, max_jumps=2**61))
        # the largest cap that fits samples as the default cap does
        big = estimate_taboo_curve(nonsimple1d, q, [1.0], SimConfig(horizon=1.0, n_paths=500, seed=0, max_jumps=2**60))
        assert big == estimate_taboo_curve(nonsimple1d, q, [1.0], SimConfig(horizon=1.0, n_paths=500, seed=0))

    @pytest.mark.parametrize("max_jumps", [0, -3])
    def test_rejects_cap_below_one(self, max_jumps):
        with pytest.raises(ValueError, match="max_jumps"):
            SimConfig(horizon=1.0, n_paths=10, seed=0, max_jumps=max_jumps)


def _trajectory(model, q, sim, path_id, max_steps=100_000):
    """Jump epochs and visited states of one path, same RNG as the kernel."""
    from taboowalk.simulate import _draw, _mix64_int, _path_keys

    a = model.total_rate
    support = [tuple(s) for s in model.support]
    cdf = model.jump_cdf
    seed_hash = np.uint64(_mix64_int(sim.seed + 0x9E3779B97F4A7C15))
    pos = q.x
    clock = 0.0
    jumps, states = [0.0], [pos]
    pid = np.array([path_id], dtype=np.uint64)
    for step in range(max_steps):
        u1 = float(_draw(_path_keys(seed_hash, pid), step, 0)[0])
        u2 = float(_draw(_path_keys(seed_hash, pid), step, 1)[0])
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
    from taboowalk.simulate import _draw, _mix64_int, _path_keys

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
            u1 = float(_draw(_path_keys(seed_hash, pid), step, 0)[0])
            u2 = float(_draw(_path_keys(seed_hash, pid), step, 1)[0])
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
        est = estimate_taboo_curve(simple1d, q, [0.0], sim, Variant.MINUS)[0]
        assert abs(est.probability - 0.5) <= 3 * est.std_error

    def test_zero_case(self, simple1d):
        q = TabooQuery((-1,), (2,), (0,))
        sim = SimConfig(horizon=20.0, n_paths=5000, seed=2)
        est = estimate_taboo_curve(simple1d, q, [20.0], sim, Variant.MINUS)[0]
        assert est.probability == 0.0

    def test_limits_agree_with_plus(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        sim = SimConfig(horizon=200.0, n_paths=100_000, seed=31)
        plus = estimate_taboo_curve(simple1d, q, [200.0], sim)[0]
        minus = estimate_taboo_curve(simple1d, q, [200.0], sim, Variant.MINUS)[0]
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

    def test_query_dimension_is_invalid_query(self, walk2d):
        with pytest.raises(InvalidQuery):
            absorption_limit_bracket(walk2d, TabooQuery((1,), (2,), (0,)), 10)

    @pytest.mark.parametrize(
        "x, y, want",
        [((2,), (5,), Fraction(2, 5)), ((0,), (3,), Fraction(1, 6)), ((3,), (3,), Fraction(5, 6)),
         ((-1,), (2,), Fraction(0)), ((7,), (5,), Fraction(1))],
    )
    def test_simple_walk_closed_form(self, simple1d, x, y, want):
        lo, hi = absorption_limit_bracket(simple1d, TabooQuery(x, y, (0,)), 100)
        assert lo == hi
        assert abs(Fraction(lo) - want) <= 1e-15

    # skewed3d and long2d are not axis-even (plain CG); knight2d and long3d
    # are, with range 2, so the sine transform preconditions them inexactly;
    # r5 runs plain CG in d = 1
    @pytest.mark.parametrize(
        "walk, radius",
        [("walk2d", 10), ("walk3d", 5), ("skewed3d", 8), ("long2d", 10), ("knight2d", 10), ("long3d", 8),
         ("r5", 100)],
    )
    def test_cg_matches_splu_reference(self, walk, radius, request):
        model = request.getfixturevalue(walk)
        d = model.d
        if d == 1:
            q = TabooQuery((2,), (5,), (0,))
        else:
            q = TabooQuery((1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * d)
        got = absorption_limit_bracket(model, q, radius)
        want = _splu_bracket(model, q, radius)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize(
        "walk, radius, x, y, z",
        [
            pytest.param("nonsimple1d", 30, (1,), (3,), (0,), id="nonsimple1d"),
            pytest.param("nonsimple1d", 30, (30,), (3,), (0,), id="nonsimple1d-x-on-edge"),
            pytest.param("nonsimple1d", 30, (-29,), (30,), (-30,), id="nonsimple1d-yz-on-edges"),
            pytest.param("diagonal2d", 10, (1, 0), (0, 1), (0, 0), id="diagonal2d"),
            pytest.param("diagonal2d", 10, (10, -3), (0, 1), (0, 0), id="diagonal2d-x-on-edge"),
            pytest.param("diagonal2d", 10, (0, 1), (0, 1), (0, 0), id="diagonal2d-x-is-y"),
            pytest.param("diagonal2d", 10, (0, 0), (0, 1), (0, 0), id="diagonal2d-x-is-z"),
            pytest.param("diagonal2d", 10, (2, 2), (-10, -10), (10, 10), id="diagonal2d-yz-corners"),
            pytest.param("walk3d", 5, (0, 5, 0), (0, 1, 0), (0, 0, 0), id="walk3d-x-on-edge"),
            pytest.param("walk3d", 5, (0, 1, 0), (0, 1, 0), (0, 0, 0), id="walk3d-x-is-y"),
            pytest.param("walk3d", 5, (0, 0, 0), (0, 1, 0), (0, 0, 0), id="walk3d-x-is-z"),
        ],
    )
    def test_matches_splu_reference_at_edges(self, walk, radius, x, y, z, request):
        model = request.getfixturevalue(walk)
        q = TabooQuery(x, y, z)
        got = absorption_limit_bracket(model, q, radius)
        assert got == pytest.approx(_splu_bracket(model, q, radius), abs=1e-10)

    def test_failed_cg_falls_back_to_splu(self, walk2d, monkeypatch):
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        want = absorption_limit_bracket(walk2d, q, 10)
        factorised = []
        splu, solve = spla.splu, simulate._solve_spd
        # an iteration cap of 0 leaves the CG at u = 0, whose residual is ||b||
        monkeypatch.setattr(
            simulate,
            "_solve_spd",
            lambda step, b, maxiter, assemble, precondition: solve(step, b, 0, assemble, precondition),
        )
        monkeypatch.setattr(spla, "splu", lambda a: factorised.append(a) or splu(a))
        assert absorption_limit_bracket(walk2d, q, 10) == pytest.approx(want, abs=1e-10)
        assert len(factorised) == 1

    def test_indefinite_preconditioner_falls_back_to_splu(self, walk2d, monkeypatch):
        # CG with -C^-1 takes the same steps as with C^-1, so only the r.z <= 0
        # stop keeps it from passing for a solve by an indefinite preconditioner
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        want = _splu_bracket(walk2d, q, 10)
        factorised = []
        splu, solve = spla.splu, simulate._solve_spd
        monkeypatch.setattr(
            simulate,
            "_solve_spd",
            lambda step, b, maxiter, assemble, precondition: solve(
                step, b, maxiter, assemble, lambda r: -precondition(r)
            ),
        )
        monkeypatch.setattr(spla, "splu", lambda a: factorised.append(a) or splu(a))
        assert absorption_limit_bracket(walk2d, q, 10) == pytest.approx(want, abs=1e-10)
        assert len(factorised) == 1

    @pytest.mark.parametrize(
        "walk, radius",
        [("walk3d", 12), ("walk3d", 15), ("walk2d", 60), ("diagonal2d", 60), ("crossed2d", 30), (4, 6)],
    )
    def test_exact_preconditioner_needs_few_steps(self, walk, radius, request):
        # range 1 and rates even in each axis: the sine transform solves the
        # box operator exactly, and y, z perturb it by rank 2
        model = nearest_neighbor_walk(walk) if walk == 4 else request.getfixturevalue(walk)
        d = model.d
        q = TabooQuery((1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * d)
        steps, maxiter, preconditioned = _solve_steps(model, q, radius)
        assert preconditioned and maxiter == 10 * (2 * radius + 1)
        assert steps <= 5

    @pytest.mark.parametrize("walk, radii", [("knight2d", (15, 60)), ("long3d", (8, 15))])
    def test_inexact_preconditioner_steps_on_range2_walks(self, walk, radii, request):
        model = request.getfixturevalue(walk)
        d = model.d
        q = TabooQuery((1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * d)
        (small, _, pre), (large, maxiter, _) = (_solve_steps(model, q, r) for r in radii)
        assert pre and maxiter == 10 * (2 * radii[1] + 1) ** d
        assert max(small, large) <= 20
        assert abs(small - large) <= 2

    @pytest.mark.parametrize("walk, radii", [("weakaxes2d", (15, 30)), ("weakaxes3d", (8, 15))])
    def test_walks_far_from_axis_even_run_plain_cg_under_their_cap(self, walk, radii, request, monkeypatch):
        # the sine transform slowed these walks down.  Plain CG takes 242, 526
        # steps (2-D) and 140, 246 (3-D), close to 10 (2r + 1), so they keep
        # the cap 10 (2r + 1)^d; reaching it would show as an LU factorisation
        model = request.getfixturevalue(walk)
        d = model.d
        q = TabooQuery((1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * d)
        factorised = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda a: factorised.append(a) or splu(a))
        for r in radii:
            _, maxiter, preconditioned = _solve_steps(model, q, r)
            assert not preconditioned and maxiter == 10 * (2 * r + 1) ** d
        assert not factorised

    def test_d1_runs_plain_cg(self, nonsimple1d, monkeypatch):
        seen = []
        solve = simulate._solve_spd
        monkeypatch.setattr(
            simulate,
            "_solve_spd",
            lambda step, b, maxiter, assemble, precondition: seen.append(precondition)
            or solve(step, b, maxiter, assemble, precondition),
        )
        absorption_limit_bracket(nonsimple1d, TabooQuery((1,), (3,), (0,)), 30)
        assert seen == [None]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]), radius=st.integers(1, 6), even=st.booleans())
    def test_random_walks_match_splu(self, data, d, radius, even):
        # one rate per +- pair; fewer than d pairs never generate Z^d
        pairs = data.draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(-2, 2)] * d).filter(any), st.floats(0.01, 1.0)),
                min_size=d,
                max_size=4,
                unique_by=lambda jump: max(jump[0], tuple(-c for c in jump[0])),
            ).filter(lambda pairs: support_generates_lattice([s for s, _ in pairs], d))
        )
        rates = {}
        for s, p in pairs:
            # an axis-even walk gives every sign flip of s the rate of s
            for signs in itertools.product((1, -1), repeat=d) if even else [(1,) * d]:
                flip = tuple(c * g for c, g in zip(s, signs))
                rates[max(flip, tuple(-c for c in flip))] = p
        model = validate_model(d, rates)
        point = st.tuples(*[st.integers(-radius, radius)] * d)
        x, y = data.draw(point), data.draw(point)
        q = TabooQuery(x, y, data.draw(point.filter(lambda z: z != y)))
        n = 2 * radius + 1
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        grid = np.stack(np.meshgrid(*[theta] * d, indexing="ij"), axis=-1)
        f = sum(
            p * (1.0 - np.prod(np.cos(grid * s), axis=-1))
            for s, p in zip(model.support, model.rates / model.total_rate)
        )
        assert f.min() > 0.0
        factorised = []
        splu = spla.splu
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spla, "splu", lambda a: factorised.append(a) or splu(a))
            got = absorption_limit_bracket(model, q, radius)
        assert not factorised
        assert got == pytest.approx(_splu_bracket(model, q, radius), abs=1e-10)

    @pytest.mark.parametrize("seed", range(30))
    def test_swapping_y_and_z_completes_the_bracket(self, seed):
        # the chain ends at y, at z or outside the box, and the d = 2
        # allowance has esc_lo + esc_hi = 1, so lo(q) + hi(q.swapped()) is
        # P(y) + P(z) + P(escape) = 1; each of the three is read from the
        # solve by its own gather, so a term missing from one of them shows
        rng = np.random.default_rng(seed)
        d, even = seed % 3 + 1, seed % 2 == 0
        model = _random_walk(rng, d, even)
        radius = int(rng.integers(1, 5))
        x, y, z = (tuple(int(c) for c in rng.integers(-radius, radius + 1, size=d)) for _ in range(3))
        if y == z:
            z = tuple(-c for c in y) if any(y) else (radius,) + y[1:]
        q = TabooQuery(x, y, z)
        lo, _ = absorption_limit_bracket(model, q, radius)
        _, hi = absorption_limit_bracket(model, q.swapped(), radius)
        assert lo + hi == pytest.approx(1.0, abs=1e-10)


def _random_walk(rng, d, even):
    """A symmetric walk from 1 to 4 drawn jumps in [-2, 2]^d that generates
    Z^d; with ``even`` every sign flip of a drawn jump gets its rate."""
    while True:
        rates = {}
        for _ in range(int(rng.integers(1, 5))):
            s = tuple(int(c) for c in rng.integers(-2, 3, size=d))
            p = float(rng.uniform(0.01, 1.0))
            for signs in itertools.product((1, -1), repeat=d) if even else [(1,) * d]:
                flip = tuple(c * g for c, g in zip(s, signs))
                rates[max(flip, tuple(-c for c in flip))] = p
        rates.pop((0,) * d, None)
        if rates and support_generates_lattice(list(rates), d):
            return validate_model(d, rates)


def _solve_steps(model, q, radius):
    """Applications of the chain's step inside the bracket's solve, the
    solve's iteration cap, and whether it had a preconditioner."""
    calls, seen = [], []
    solve = simulate._solve_spd

    def counted(step, b, maxiter, assemble, precondition):
        def spy(u, out):
            calls.append(None)
            return step(u, out)

        seen.append((maxiter, precondition is not None))
        return solve(spy, b, maxiter, assemble, precondition)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_solve_spd", counted)
        absorption_limit_bracket(model, q, radius)
    [(maxiter, preconditioned)] = seen
    return len(calls), maxiter, preconditioned


def _splu_bracket(model, q, radius):
    """Reference bracket: the box system assembled entry by entry in COO
    form over the unpadded box and solved by sparse LU."""
    d, r = model.d, radius
    shape = (2 * r + 1,) * d
    coords = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    n = len(coords)
    iy, iz = np.ravel_multi_index((np.array([q.y, q.z]) + r).T, shape)
    probs = model.rates / model.total_rate
    rows, cols, vals = [], [], []
    b = np.zeros((2, n))  # reach y inside the box, leave the box
    for s, p in zip(model.support, probs):
        dest = coords + s
        inside = np.all(np.abs(dest) <= r, axis=1)
        src = np.flatnonzero(inside)
        dst = np.ravel_multi_index((dest[inside] + r).T, shape)
        b[0, src[dst == iy]] += p
        b[1, ~inside] += p
        keep = (dst != iy) & (dst != iz)
        rows.append(src[keep])
        cols.append(dst[keep])
        vals.append(np.full(int(keep.sum()), p))
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    live = (rows != iy) & (rows != iz)
    mat = sp.identity(n, format="csc") - sp.csc_matrix(
        (vals[live], (rows[live], cols[live])), shape=(n, n)
    )
    b[:, [iy, iz]] = 0.0
    lu = spla.splu(mat)
    u_hit, u_esc = lu.solve(b[0]), lu.solve(b[1])
    u_hit[iy] = 1.0
    if d == 2:
        sep = max(abs(a - c) for a, c in zip(q.y, q.z))
        beta = min(0.5, 1.25 * (sep + int(np.max(np.abs(model.support)))) / r)
        esc_lo, esc_hi = 0.5 - beta, 0.5 + beta
    else:
        esc_lo, esc_hi = 0.0, 1.0
    lo = hi = 0.0
    for s, p in zip(model.support, probs):
        dest = np.add(q.x, s)
        if np.all(np.abs(dest) <= r):
            j = np.ravel_multi_index(tuple(dest + r), shape)
            lo += p * (u_hit[j] + esc_lo * u_esc[j])
            hi += p * (u_hit[j] + esc_hi * u_esc[j])
        else:
            lo += p * esc_lo
            hi += p * esc_hi
    return lo, hi


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


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(taboowalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_import_leaves_out_scipy_sparse():
    out = _run_python("import sys, taboowalk; print('scipy.sparse' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_cli_oracles_leave_out_scipy(walk3d, tmp_path):
    walk = str(tmp_path / "walk3d.json")
    save_model(walk3d, walk)
    limit = ["limit", walk, "--x", "1,0,0", "--y", "0,1,0", "--z", "0,0,0", "--verify", "--paths", "2000"]
    out = _run_python(
        "import sys\n"
        "from taboowalk import cli\n"
        f"assert cli.main({['verify', walk]!r}) == 0\n"
        f"assert cli.main({limit!r}) == 0\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert out.stderr.splitlines()[-1] == "[]"
