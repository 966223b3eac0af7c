import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taboowalk import (
    InvalidQuery,
    QuadratureConfig,
    TabooQuery,
    TailOrder,
    hitting_limit,
    hitting_tail,
    laplace_hitting,
    laplace_taboo,
    minus_atom,
    rho,
    simple_walk_1d,
    spectral_scalars,
    taboo_limit,
    taboo_tail,
)
from taboowalk.limits import c1_constant, cd_constant

WATSON = 1.5163860591528040

THEOREM2_TABLE = [
    ((2,), (5,), (0,), 0.4),
    ((0,), (3,), (0,), 1.0 / 6.0),
    ((3,), (3,), (0,), 5.0 / 6.0),
    ((-1,), (2,), (0,), 0.0),
    ((7,), (5,), (0,), 1.0),
]


class TestTabooQuery:
    def test_rejects_equal_target_taboo(self):
        with pytest.raises(InvalidQuery):
            TabooQuery((1,), (2,), (2,))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidQuery):
            TabooQuery((1, 0), (2,), (0,))

    def test_model_dimension_checked(self, walk2d):
        with pytest.raises(InvalidQuery):
            taboo_limit(walk2d, TabooQuery((1,), (2,), (0,)))

    def test_swapped(self):
        q = TabooQuery((1,), (4,), (0,))
        assert q.swapped() == TabooQuery((1,), (0,), (4,))

    def test_relative_vectors_leave_eq_hash_and_repr_alone(self):
        q = TabooQuery([0, -3], (-2, -3), (np.int64(-1), 5.0))
        assert (q.rel_x, q.rel_y, q.rel_yx) == ((1, -8), (-1, -8), (-2, 0))
        assert [f.name for f in dataclasses.fields(q)] == ["x", "y", "z"]
        assert q == TabooQuery((0, -3), (-2, -3), (-1, 5))
        assert q != TabooQuery((0, -3), (-2, -3), (-1, 4))
        assert hash(q) == hash(((0, -3), (-2, -3), (-1, 5)))
        assert repr(q) == "TabooQuery(x=(0, -3), y=(-2, -3), z=(-1, 5))"
        s = q.swapped()
        assert (s.rel_x, s.rel_y, s.rel_yx) == ((2, 0), (1, 8), (-1, 8))


class TestHittingLimit:
    def test_recurrent_dimensions(self, simple1d, nonsimple1d, walk2d):
        assert hitting_limit(simple1d, [5], [0]) == 1.0
        assert hitting_limit(nonsimple1d, [0], [0]) == 1.0
        assert hitting_limit(walk2d, [2, 1], [0, 0]) == 1.0

    def test_3d_return_probability(self, walk3d):
        want = 1.0 - 1.0 / WATSON
        assert hitting_limit(walk3d, [0, 0, 0], [0, 0, 0]) == pytest.approx(want, abs=1e-5)

    def test_3d_neighbor_equals_return(self, walk3d):
        # aG_0(0,e1) = aG_0(0,0) - 1 for the 6-neighbor walk makes these equal
        ret = hitting_limit(walk3d, [0, 0, 0], [0, 0, 0])
        nb = hitting_limit(walk3d, [0, 0, 0], [1, 0, 0])
        assert nb == pytest.approx(ret, abs=1e-5)


class TestGreenRoute:
    """In d >= 3 the limits are the Laplace transforms at lambda = 0."""

    QUERIES = [
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 1, 0), (0, 1, 0), (0, 0, 0)),
        ((1, 1, 0), (2, 0, 1), (1, 0, 0)),
    ]

    def test_limits_are_transforms_at_zero(self, walk3d):
        for x, y, z in self.QUERIES:
            q = TabooQuery(x, y, z)
            assert taboo_limit(walk3d, q) == laplace_taboo(walk3d, q, 0.0)
            assert hitting_limit(walk3d, x, y) == laplace_hitting(walk3d, x, y, 0.0)

    def test_d3_sums_no_rho_integrand(self, walk3d, monkeypatch):
        import taboowalk.kernels as kernels

        keys = []
        ladder = kernels.axis_integral

        def spy(name, *args):
            keys.append(name)
            return ladder(name, *args)

        monkeypatch.setattr(kernels, "axis_integral", spy)
        # a rel_tol no other test uses, so no cached kernel value hides a quadrature
        cfg = QuadratureConfig(rel_tol=2e-6)
        for x, y, z in self.QUERIES:
            q = TabooQuery(x, y, z)
            taboo_limit(walk3d, q, cfg)
            taboo_tail(walk3d, q, cfg)
            hitting_tail(walk3d, x, y, cfg)
        assert keys and "rho" not in keys


class TestHittingTail:
    def test_d1_example(self, simple1d):
        tail = hitting_tail(simple1d, [0], [2])
        assert tail.order is TailOrder.INVERSE_SQRT_T
        assert tail.constant == pytest.approx(2 * math.sqrt(2 * math.pi) / math.pi, rel=1e-10)

    def test_d1_return_uses_rho_zero(self, simple1d):
        gamma1 = spectral_scalars(simple1d).gamma_d
        tail = hitting_tail(simple1d, [4], [4])
        assert tail.constant == pytest.approx(1.0 / (gamma1 * math.pi), rel=1e-12)

    def test_d2_order(self, walk2d):
        tail = hitting_tail(walk2d, [0, 0], [1, 1])
        assert tail.order is TailOrder.INVERSE_LOG_T
        gamma2 = spectral_scalars(walk2d).gamma_d
        assert tail.constant == pytest.approx((4 / math.pi) / gamma2, rel=1e-7)

    def test_d3_return(self, walk3d):
        tail = hitting_tail(walk3d, [1, 1, 1], [1, 1, 1])
        assert tail.order is TailOrder.INVERSE_POW_T
        assert tail.exponent == 0.5
        gamma3 = spectral_scalars(walk3d).gamma_d
        want = 2 * gamma3 / (1.0 * 1.0 * WATSON**2)
        assert tail.constant == pytest.approx(want, rel=1e-5)


class TestTabooLimitSimple:
    @pytest.mark.parametrize("x,y,z,want", THEOREM2_TABLE)
    def test_theorem2_table_exact(self, simple1d, x, y, z, want):
        assert taboo_limit(simple1d, TabooQuery(x, y, z)) == want

    def test_shifted_and_reflected_table(self, simple1d):
        # invariance carries the z=0 table to arbitrary taboo points
        for x, y, z, want in THEOREM2_TABLE:
            for r in (-4, 9):
                q = TabooQuery((x[0] + r,), (y[0] + r,), (z[0] + r,))
                assert taboo_limit(simple1d, q) == want
            qr = TabooQuery((-x[0],), (-y[0],), (-z[0],))
            assert taboo_limit(simple1d, qr) == want


def theorem2_limit(X: int, Y: int) -> Fraction:
    """Theorem 2's limit for the nearest-neighbor walk on Z, z = 0, as a rational."""
    if X == 0:
        return Fraction(1, 2 * abs(Y))
    if X == Y:
        return 1 - Fraction(1, 2 * abs(Y))
    if (X > 0) != (Y > 0):
        return Fraction(0)  # taboo strictly between start and target
    if abs(X) < abs(Y):
        return Fraction(X, Y)  # start strictly between taboo and target
    return Fraction(1)  # target strictly between taboo and start


@pytest.mark.parametrize("a", [1.0, 0.37, 2.7, 1e-3])
def test_simple_walk_limits_are_theorem2_rationals(a):
    # rho(x) = |x| exactly, so the rho-ratio formula is one correctly rounded division
    model = simple_walk_1d(a)
    for X in range(-40, 41):
        for Y in [*range(-40, 0), *range(1, 41)]:
            got = taboo_limit(model, TabooQuery((X,), (Y,), (0,)))
            assert got == float(theorem2_limit(X, Y)), (X, Y)


class TestTabooLimitGeneral:
    def test_open_interval_d1(self, nonsimple1d):
        for q in [
            TabooQuery((1,), (3,), (0,)),
            TabooQuery((-2,), (4,), (0,)),
            TabooQuery((5,), (2,), (0,)),
        ]:
            v = taboo_limit(nonsimple1d, q)
            assert 0.0 < v < 1.0

    def test_d2_value(self, walk2d):
        q = TabooQuery((1, 0), (0, 1), (0, 0))
        assert taboo_limit(walk2d, q) == pytest.approx(1 - 2 / math.pi, rel=1e-8)

    def test_complementarity_d_le_2(self, nonsimple1d, walk2d):
        for model, q in (
            (nonsimple1d, TabooQuery((1,), (3,), (0,))),
            (nonsimple1d, TabooQuery((-2,), (1,), (4,))),
            (walk2d, TabooQuery((1, 1), (2, 0), (0, 0))),
        ):
            assert taboo_limit(model, q) + taboo_limit(model, q.swapped()) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_convention_consistency(self, nonsimple1d):
        # x = z and x = y reproduce 1/(2 rho(Y)) and 1 - 1/(2 rho(Y))
        rho3 = rho(nonsimple1d, [3])
        assert taboo_limit(nonsimple1d, TabooQuery((0,), (3,), (0,))) == pytest.approx(
            1 / (2 * rho3), rel=1e-10
        )
        assert taboo_limit(nonsimple1d, TabooQuery((3,), (3,), (0,))) == pytest.approx(
            1 - 1 / (2 * rho3), rel=1e-10
        )

    def test_d3_below_hitting_limit(self, walk3d):
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        assert 0.0 < taboo_limit(walk3d, q) <= hitting_limit(walk3d, (1, 0, 0), (0, 1, 0))

    def test_shift_reflection_exact(self, nonsimple1d, walk2d):
        rng = random.Random(7)
        for _ in range(10):
            r = rng.randint(-20, 20)
            x, y, z = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            if y == z:
                continue
            q = TabooQuery((x,), (y,), (z,))
            shifted = TabooQuery((x + r,), (y + r,), (z + r,))
            reflected = TabooQuery((-x,), (-y,), (-z,))
            assert taboo_limit(nonsimple1d, q) == taboo_limit(nonsimple1d, shifted)
            assert taboo_limit(nonsimple1d, q) == taboo_limit(nonsimple1d, reflected)
            assert taboo_tail(nonsimple1d, q) == taboo_tail(nonsimple1d, shifted)
            assert taboo_tail(nonsimple1d, q) == taboo_tail(nonsimple1d, reflected)
        for _ in range(5):
            r = (rng.randint(-10, 10), rng.randint(-10, 10))
            pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
            if pts[1] == pts[2]:
                continue
            q = TabooQuery(*pts)
            shifted = TabooQuery(*[tuple(c + s for c, s in zip(p, r)) for p in pts])
            reflected = TabooQuery(*[tuple(-c for c in p) for p in pts])
            assert taboo_limit(walk2d, q) == taboo_limit(walk2d, shifted)
            assert taboo_limit(walk2d, q) == taboo_limit(walk2d, reflected)


class TestTabooTail:
    def test_simple_squeezed_target(self, simple1d):
        tail = taboo_tail(simple1d, TabooQuery((1,), (4,), (6,)))
        assert tail.order is TailOrder.INVERSE_SQRT_T
        assert tail.constant == pytest.approx(math.sqrt(2) * 3 / math.sqrt(math.pi), rel=1e-12)

    def test_simple_return(self, simple1d):
        tail = taboo_tail(simple1d, TabooQuery((3,), (3,), (0,)))
        assert tail.constant == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_simple_zero_case(self, simple1d):
        tail = taboo_tail(simple1d, TabooQuery((-2,), (3,), (0,)))
        assert tail.order is TailOrder.ZERO
        assert tail.constant == 0.0

    def test_simple_exponential_cases(self, simple1d):
        for q in (TabooQuery((0,), (3,), (0,)), TabooQuery((2,), (5,), (0,))):
            tail = taboo_tail(simple1d, q)
            assert tail.order is TailOrder.EXPONENTIAL
            assert tail.rate_bound is not None and tail.rate_bound > 0
        # strip of width 3: a (1 - cos(pi/3)) = a/2
        assert taboo_tail(simple1d, TabooQuery((0,), (3,), (0,))).rate_bound == pytest.approx(0.5)

    def test_nonsimple_positive_constants(self, nonsimple1d):
        for q in [
            TabooQuery((1,), (3,), (0,)),
            TabooQuery((0,), (3,), (0,)),
            TabooQuery((3,), (3,), (0,)),
            TabooQuery((-1,), (2,), (0,)),
        ]:
            tail = taboo_tail(nonsimple1d, q)
            assert tail.order is TailOrder.INVERSE_SQRT_T
            assert tail.constant > 0

    def test_d2_canonical_constant(self, walk2d):
        # rho(1,0) = rho(0,1) = 1 and rho(1,1) = 4/pi make C_2 exactly 1
        tail = taboo_tail(walk2d, TabooQuery((1, 0), (0, 1), (0, 0)))
        assert tail.order is TailOrder.INVERSE_LOG_T
        assert tail.constant == pytest.approx(1.0, rel=1e-7)

    def test_d3_tail(self, walk3d):
        q = TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))
        tail = taboo_tail(walk3d, q)
        assert tail.order is TailOrder.INVERSE_POW_T
        assert tail.exponent == 0.5
        assert tail.constant > 0

    def test_cd_special_cases_match(self, walk3d):
        # x = z and x = y give the same constant in d >= 3 (numerator rho(0) = 1)
        y = (1, 0, 0)
        zero = (0, 0, 0)
        c_xz = cd_constant(walk3d, zero, y)
        c_xy = cd_constant(walk3d, y, y)
        assert c_xz == pytest.approx(c_xy, rel=1e-12)

    @pytest.mark.parametrize(
        "walk, q",
        [
            ("simple1d", TabooQuery((1,), (4,), (6,))),
            ("nonsimple1d", TabooQuery((1,), (3,), (0,))),
            ("walk2d", TabooQuery((1, 0), (0, 1), (0, 0))),
            ("walk3d", TabooQuery((1, 0, 0), (0, 1, 0), (0, 0, 0))),
        ],
    )
    def test_constant_is_python_float(self, walk, q, request):
        model = request.getfixturevalue(walk)
        assert type(taboo_tail(model, q).constant) is float
        assert type(hitting_tail(model, q.x, q.y).constant) is float


class TestC1AgainstTheorem2:
    def test_c1_reproduces_simple_walk_constants(self, simple1d):
        # the general d=1 constant, evaluated on the nearest-neighbor walk,
        # collapses to the piecewise Theorem-2 values
        a = simple1d.a
        assert c1_constant(simple1d, (7,), (5,)) == pytest.approx(
            math.sqrt(2) * 2 / math.sqrt(a * math.pi), rel=1e-9
        )
        assert c1_constant(simple1d, (3,), (3,)) == pytest.approx(
            1 / math.sqrt(2 * a * math.pi), rel=1e-9
        )
        for X, Y in [((0,), (3,)), ((2,), (5,)), ((-1,), (2,))]:
            assert c1_constant(simple1d, X, Y) == pytest.approx(0.0, abs=1e-9)


class TestMinusVariants:
    """The minus limit is the plus limit; minus_atom is the atom at t = 0."""

    def test_atom_with_direct_jump(self, simple1d):
        q = TabooQuery((4,), (5,), (0,))
        assert taboo_limit(simple1d, q) == 0.8
        assert minus_atom(simple1d, q.x, q.y) == 0.5

    def test_no_direct_jump(self, simple1d):
        q = TabooQuery((2,), (5,), (0,))
        assert taboo_limit(simple1d, q) == 0.4
        assert minus_atom(simple1d, q.x, q.y) == 0.0

    def test_return_has_no_atom(self, nonsimple1d):
        assert minus_atom(nonsimple1d, (3,), (3,)) == 0.0


NEAR_2D = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
FAR_2D = st.tuples(*[st.integers(-100, 100)] * 2).filter(lambda v: max(map(abs, v)) >= 20)


class TestFarQueries2d:
    """Far d = 2 starts or targets, |x - z|_inf or |y - z|_inf in [20, 100]: no
    NotConverged, and limits that are probabilities of disjoint events."""

    @settings(max_examples=10, deadline=None)
    @given(far=FAR_2D, near=NEAR_2D, z=NEAR_2D, far_x=st.booleans())
    def test_limits_are_probabilities(self, diagonal2d, far, near, z, far_x):
        far = tuple(a + b for a, b in zip(far, z))
        x, y = (far, near) if far_x else (near, far)
        if y == z:
            return
        q = TabooQuery(x, y, z)
        h_xyz, h_xzy = taboo_limit(diagonal2d, q), taboo_limit(diagonal2d, q.swapped())
        assert 0.0 <= h_xyz <= 1.0 and 0.0 <= h_xzy <= 1.0
        assert h_xyz + h_xzy <= 1.0 + 1e-12
