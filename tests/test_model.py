import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import taboowalk
from taboowalk import (
    AsymmetricRates,
    EmptySupport,
    ModelError,
    NonpositiveRate,
    NotIrreducible,
    ZeroJumpInSupport,
    char_exponent,
    is_simple_1d,
    load_model,
    model_from_dict,
    save_model,
    simple_walk_1d,
    spectral_scalars,
    support_generates_lattice,
    tilde_gamma,
    validate_model,
)


class TestValidateModel:
    def test_simple_walk_valid(self):
        m = validate_model(1, {(1,): 0.5, (-1,): 0.5})
        assert m.total_rate == 1.0
        assert m.d == 1
        assert set(z for z, _ in m.jumps) == {(1,), (-1,)}

    def test_one_sided_table_implies_mirror(self):
        m = validate_model(1, {(1,): 0.5})
        assert m.rate((-1,)) == 0.5
        assert m.total_rate == 1.0

    def test_gcd_two_not_irreducible(self):
        with pytest.raises(NotIrreducible):
            validate_model(1, {(2,): 0.5, (-2,): 0.5})

    def test_asymmetric_rates(self):
        with pytest.raises(AsymmetricRates):
            validate_model(1, {(1,): 0.6, (-1,): 0.4})

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            validate_model(1, {})

    def test_zero_jump(self):
        with pytest.raises(ZeroJumpInSupport):
            validate_model(2, {(0, 0): 0.3, (1, 0): 0.2})

    def test_nonpositive_rate(self):
        with pytest.raises(NonpositiveRate):
            validate_model(1, {(1,): -0.5, (-1,): -0.5})
        with pytest.raises(NonpositiveRate):
            validate_model(1, {(1,): 0.0, (-1,): 0.0})

    def test_checkerboard_2d_not_irreducible(self):
        # diagonal steps only reach the even sublattice
        with pytest.raises(NotIrreducible):
            validate_model(2, {(1, 1): 0.25, (1, -1): 0.25})

    def test_skew_2d_basis_irreducible(self):
        m = validate_model(2, {(1, 0): 0.25, (1, 1): 0.25})
        assert m.d == 2

    def test_lattice_check_direct(self):
        assert support_generates_lattice([(1,), (-1,)], 1)
        assert not support_generates_lattice([(2,), (-2,)], 1)
        assert support_generates_lattice([(2,), (3,)], 1)
        assert not support_generates_lattice([(1, 0)], 2)


def _bfs_reaches_box(d, support, box_half=2, pad=30, max_steps=100_000):
    """Brute-force reachability of the (2*box_half+1)^d box from the origin."""
    from collections import deque

    targets = set()
    ranges = [range(-box_half, box_half + 1)] * d
    from itertools import product

    targets = set(product(*ranges))
    seen = {(0,) * d}
    frontier = deque([(0,) * d])
    found = {(0,) * d} & targets
    steps = 0
    while frontier and len(found) < len(targets) and steps < max_steps:
        v = frontier.popleft()
        steps += 1
        for s in support:
            w = tuple(a + b for a, b in zip(v, s))
            if max(abs(c) for c in w) > pad or w in seen:
                continue
            seen.add(w)
            if w in targets:
                found.add(w)
            frontier.append(w)
    return len(found) == len(targets)


@pytest.mark.parametrize(
    "d,jumps,valid",
    [
        (1, {(1,): 0.5}, True),
        (1, {(2,): 0.5}, False),
        (1, {(2,): 0.3, (3,): 0.2}, True),
        (2, {(1, 0): 0.25, (0, 1): 0.25}, True),
        (2, {(1, 1): 0.25, (1, -1): 0.25}, False),
        (3, {(1, 0, 0): 0.2, (0, 1, 0): 0.2, (0, 0, 1): 0.2}, True),
    ],
)
def test_validation_matches_reachability(d, jumps, valid):
    # validate_model accepts a table iff the embedded chain reaches a 5^d box
    full = {}
    for z, r in jumps.items():
        full[z] = r
        full[tuple(-c for c in z)] = r
    assert _bfs_reaches_box(d, list(full)) == valid
    if valid:
        validate_model(d, jumps)
    else:
        with pytest.raises(NotIrreducible):
            validate_model(d, jumps)


class TestCharExponent:
    def test_simple_walk_values(self, simple1d):
        # phi(theta) = a (cos theta - 1) for the nearest-neighbor walk
        assert char_exponent(simple1d, [0.0]) == 0.0
        assert char_exponent(simple1d, [np.pi]) == pytest.approx(-2.0, abs=1e-14)
        assert char_exponent(simple1d, [np.pi / 2]) == pytest.approx(-1.0, abs=1e-14)

    def test_dimension_mismatch(self, simple1d):
        with pytest.raises(ValueError):
            char_exponent(simple1d, [0.1, 0.2])

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2),
        rates=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=2),
    )
    def test_even_and_nonpositive(self, theta, rates):
        m = validate_model(2, {(1, 0): rates[0], (0, 1): rates[1]})
        v = char_exponent(m, theta)
        assert v <= 0.0
        assert v == char_exponent(m, [-t for t in theta])


class TestSpectralScalars:
    def test_gamma1_simple(self):
        for a in (1.0, 2.0):
            sc = spectral_scalars(simple_walk_1d(a))
            assert sc.gamma_d == pytest.approx(1.0 / math.sqrt(2 * a * math.pi), rel=1e-14)

    def test_gamma2_four_neighbor(self, walk2d):
        sc = spectral_scalars(walk2d)
        assert np.allclose(sc.hessian, np.diag([0.5, 0.5]))
        assert sc.gamma_d == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("model_name", ["simple1d", "nonsimple1d", "walk2d", "walk3d"])
    def test_hessian_matches_finite_differences(self, model_name, request):
        model = request.getfixturevalue(model_name)
        b = spectral_scalars(model).hessian
        h = 1e-4
        d = model.d
        fd = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                ei = np.eye(d)[i] * h
                ej = np.eye(d)[j] * h
                fd[i, j] = -(
                    char_exponent(model, ei + ej)
                    - char_exponent(model, ei - ej)
                    - char_exponent(model, -ei + ej)
                    + char_exponent(model, -ei - ej)
                ) / (4 * h * h)
        assert np.max(np.abs(fd - b)) <= 1e-6 * np.max(np.abs(b))


class TestTildeGamma:
    def test_simple_walk_closed_form(self, simple1d):
        g1 = spectral_scalars(simple1d).gamma_d
        assert tilde_gamma(simple1d, [2]) == pytest.approx(np.pi * 4 * g1**3, rel=1e-14)

    def test_zero_vector(self, walk2d):
        assert tilde_gamma(walk2d, [0, 0]) == 0.0

    def test_four_neighbor_unit(self, walk2d):
        assert tilde_gamma(walk2d, [1, 0]) == pytest.approx(1.0 / np.pi, rel=1e-14)

    @pytest.mark.parametrize(
        "model_name,zs",
        [
            ("simple1d", [(1,), (2,), (3,)]),
            ("nonsimple1d", [(1,), (3,)]),
            ("walk2d", [(1, 0), (1, 1), (2, -1)]),
        ],
    )
    def test_matches_gaussian_quadrature(self, model_name, zs, request):
        # numerical evaluation of the defining integral
        #   (1/(2 (2 pi)^d)) * int (v, z)^2 exp(-(B v, v)/2) dv
        model = request.getfixturevalue(model_name)
        b = spectral_scalars(model).hessian
        d = model.d
        sig_min = np.linalg.eigvalsh(b).min()
        half_width = 12.0 / np.sqrt(sig_min)
        nodes, weights = np.polynomial.legendre.leggauss(160)
        nodes = nodes * half_width
        weights = weights * half_width
        grids = np.meshgrid(*([nodes] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.ones(len(pts))
        for axis_w in np.meshgrid(*([weights] * d), indexing="ij"):
            w = w * axis_w.ravel()
        quad_form = np.einsum("ni,ij,nj->n", pts, b, pts)
        for z in zs:
            zv = np.asarray(z, dtype=float)
            integral = np.sum(w * (pts @ zv) ** 2 * np.exp(-0.5 * quad_form))
            expected = integral / (2.0 * (2.0 * np.pi) ** d)
            assert tilde_gamma(model, z) == pytest.approx(expected, rel=1e-6)


class TestIsSimple:
    def test_cases(self, simple1d, nonsimple1d, walk2d):
        assert is_simple_1d(simple1d)
        assert is_simple_1d(simple_walk_1d(3.7))
        assert not is_simple_1d(nonsimple1d)
        assert not is_simple_1d(walk2d)


class TestModelFiles:
    def test_round_trip(self, tmp_path, nonsimple1d):
        path = tmp_path / "m.json"
        save_model(nonsimple1d, path)
        again = load_model(path)
        assert again == nonsimple1d

    def test_one_sided_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 1, "jumps": [{"z": [1], "rate": 0.5}]}))
        m = load_model(path)
        assert m.rate((-1,)) == 0.5

    def test_both_sides_mismatch(self):
        with pytest.raises(AsymmetricRates):
            model_from_dict(
                {"d": 1, "jumps": [{"z": [1], "rate": 0.5}, {"z": [-1], "rate": 0.4}]}
            )

    def test_malformed(self):
        with pytest.raises(ValueError):
            model_from_dict({"jumps": []})

    MODEL_SCHEMA = json.loads((Path(taboowalk.__file__).parent / "schemas" / "model.schema.json").read_text())
    ONE_JUMP = {"z": [1], "rate": 0.5}

    @pytest.mark.parametrize(
        "obj",
        [
            {"d": 1, "jumps": [ONE_JUMP]},
            {"d": 1.0, "jumps": [{"z": [1.0], "rate": 1}]},  # integral numbers are integers in JSON
            {"d": 2, "jumps": [{"z": [1, 0], "rate": 0.2}, {"z": [0, -1], "rate": 0.3}]},
            {"d": True, "jumps": [{"z": [True], "rate": True}]},
            {"d": True, "jumps": [ONE_JUMP]},
            {"d": 1, "jumps": [{"z": [True], "rate": 0.5}]},
            {"d": 1, "jumps": [{"z": [1], "rate": True}]},
            {"d": "1", "jumps": [ONE_JUMP]},
            {"d": 1, "jumps": [{"z": ["1"], "rate": 0.5}]},
            {"d": 1, "jumps": [{"z": "1", "rate": 0.5}]},
            {"d": 1, "jumps": [{"z": [1], "rate": "0.5"}]},
            {"d": 1, "jumps": [{"z": [1], "rate": None}]},
            {"d": 1, "jumps": [{"z": [1.5], "rate": 0.5}]},
            {"d": 1.5, "jumps": [ONE_JUMP]},
            {"d": 0, "jumps": [ONE_JUMP]},
            {"d": 1, "jumps": []},
            {"d": 1, "jumps": [{"z": [], "rate": 0.5}]},
            {"d": 1, "jumps": [{"z": [1], "rate": 0}]},
            {"d": 1, "jumps": [{"z": [1]}]},
            {"d": 1, "jumps": [{"z": [1], "rate": 0.5, "note": "x"}]},
            {"d": 1, "jumps": [ONE_JUMP], "name": "simple"},
            {"d": 1, "jumps": ONE_JUMP},
            {"d": 1, "jumps": [[1, 0.5]]},
            {"jumps": [ONE_JUMP]},
            [ONE_JUMP],
        ],
    )
    def test_load_rejects_what_the_schema_rejects(self, tmp_path, obj):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        if Draft7Validator(self.MODEL_SCHEMA).is_valid(obj):
            load_model(path)
        else:
            with pytest.raises(ModelError):
                load_model(path)
