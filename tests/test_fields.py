import numpy as np
import pytest

from endochart import expr as ex
from endochart.expr import Box, is_zero_on_box
from endochart.fields import (EndoField, NonCommutingError, VectorField,
                              apply_endo, coordinate_field, endo_power,
                              lie_bracket, nijenhuis, nprime, prop22_residual,
                              torsion_S)

BOX4 = Box.cube(4, 1.0)


def field_37() -> EndoField:
    """4d field with vanishing torsion but non-involutive kernel."""
    z = ex.const(0.0)
    rows = [
        [z, z, ex.exp(ex.var(2)), ex.const(1.0)],
        [z, z, z, z],
        [z, z, z, z],
        [z, z, z, z],
    ]
    return EndoField(tuple(tuple(r) for r in rows))


def field_38() -> EndoField:
    """4d field with nonvanishing torsion but involutive kernel."""
    z = ex.const(0.0)
    rows = [
        [z, z, ex.exp(ex.var(2)), z],
        [z, z, z, ex.const(1.0)],
        [z, z, z, z],
        [z, z, z, z],
    ]
    return EndoField(tuple(tuple(r) for r in rows))


def assert_zero_field(V: VectorField, box: Box, tol=1e-12):
    for c in V.components:
        r = is_zero_on_box(c, box, samples=60, tol=tol, seed=5)
        assert r.passed, f"component residual {r.max_abs}"


class TestApplyEndo:
    def test_exp_column(self):
        A = field_37()
        img = apply_endo(A, coordinate_field(4, 3))
        expect = ex.exp(ex.var(2))
        p = (0.3, -0.7, 0.1, 0.9)
        assert ex.evaluate(img.components[0], p) == pytest.approx(
            ex.evaluate(expect, p), rel=1e-14)
        for c in img.components[1:]:
            assert ex.evaluate(c, p) == 0.0

    def test_identity(self):
        A = EndoField.identity(4)
        X = VectorField(tuple(ex.mul(ex.var(i + 1), ex.var(1)) for i in range(4)))
        assert_zero_field(apply_endo(A, X) - X, BOX4)

    def test_zero(self):
        A = EndoField.zero(3)
        X = VectorField(tuple(ex.exp(ex.var(1)) for _ in range(3)))
        assert_zero_field(apply_endo(A, X), Box.cube(3, 1.0))


class TestEndoPower:
    def test_37_squares_to_zero(self):
        A2 = endo_power(field_37(), 2)
        for row in A2.entries:
            for e in row:
                assert is_zero_on_box(e, BOX4, samples=40, tol=1e-13, seed=2).passed

    def test_power_zero_is_identity(self):
        A0 = endo_power(field_38(), 0)
        assert np.allclose(A0((0.1, 0.2, 0.3, 0.4)), np.eye(4))


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        b = lie_bracket(coordinate_field(3, 1), coordinate_field(3, 2))
        assert_zero_field(b, Box.cube(3, 1.0))

    def test_exp_bracket(self):
        # [exp(x2) d1, d2] = -exp(x2) d1
        X = VectorField((ex.exp(ex.var(2)), ex.const(0.0)))
        Y = coordinate_field(2, 2)
        b = lie_bracket(X, Y)
        p = (0.4, -0.3)
        assert b(p)[0] == pytest.approx(-np.exp(-0.3), rel=1e-13)
        assert b(p)[1] == 0.0

    def test_linear_bracket(self):
        # [x1 d1, d1] = -d1
        X = VectorField((ex.var(1),))
        Y = coordinate_field(1, 1)
        b = lie_bracket(X, Y)
        assert b((2.0,))[0] == pytest.approx(-1.0)


class TestNijenhuis:
    def test_constant_matrix_vanishes(self):
        rng = np.random.default_rng(0)
        A = EndoField.from_constant(rng.normal(size=(3, 3)))
        for i in range(1, 4):
            for j in range(1, 4):
                N = nijenhuis(A, coordinate_field(3, i), coordinate_field(3, j))
                assert_zero_field(N, Box.cube(3, 1.0))

    def test_38_value(self):
        N = nijenhuis(field_38(), coordinate_field(4, 3), coordinate_field(4, 4))
        p = (0.2, 0.5, -0.1, 0.7)
        expect = np.array([-np.exp(0.5), 0, 0, 0])
        assert np.allclose(N(p), expect, atol=1e-13)

    def test_37_vanishes_on_box(self):
        A = field_37()
        for i in range(1, 5):
            for j in range(1, 5):
                N = nijenhuis(A, coordinate_field(4, i), coordinate_field(4, j))
                assert_zero_field(N, BOX4, tol=1e-10)

    def test_tensoriality(self):
        A = field_38()
        f = ex.add(ex.exp(ex.var(1)), ex.mul(ex.var(3), ex.var(4)))
        rng = np.random.default_rng(11)
        X = coordinate_field(4, 3)
        Y = coordinate_field(4, 4)
        lhs = nijenhuis(A, X.scaled(f), Y)
        rhs_field = nijenhuis(A, X, Y)
        for _ in range(20):
            p = rng.uniform(-1, 1, size=4)
            fv = ex.evaluate(f, p)
            assert np.max(np.abs(lhs(p) - fv * rhs_field(p))) <= 1e-9

    def test_antisymmetry(self):
        A = field_38()
        rng = np.random.default_rng(12)
        for i, j in [(1, 2), (3, 4), (2, 3)]:
            N1 = nijenhuis(A, coordinate_field(4, i), coordinate_field(4, j))
            N2 = nijenhuis(A, coordinate_field(4, j), coordinate_field(4, i))
            for _ in range(10):
                p = rng.uniform(-1, 1, size=4)
                assert np.max(np.abs(N1(p) + N2(p))) <= 1e-12


class TestNPrime:
    def test_b_equals_a_reduces_to_nijenhuis(self):
        A = field_38()
        for i, j in [(3, 4), (2, 3), (1, 4)]:
            X, Y = coordinate_field(4, i), coordinate_field(4, j)
            diff = nprime(A, A, X, Y, box=BOX4) - nijenhuis(A, X, Y)
            assert_zero_field(diff, BOX4, tol=1e-10)

    def test_noncommuting_rejected(self):
        A = field_38()
        z = ex.const(0.0)
        B = EndoField((
            (z, ex.var(1), z, z),
            (z, z, z, z),
            (z, z, z, z),
            (ex.const(1.0), z, z, z),
        ))
        with pytest.raises(NonCommutingError):
            nprime(A, B, coordinate_field(4, 1), coordinate_field(4, 2), box=BOX4)

    def test_swap_identity(self):
        # N'_{A, A^q}(X, Y) + N'_{A^q, A}(Y, X) = 0
        from endochart.fields import _nprime_raw
        A = field_38()
        Aq = endo_power(A, 1)
        rng = np.random.default_rng(4)
        for i, j in [(3, 4), (2, 4), (1, 3)]:
            X, Y = coordinate_field(4, i), coordinate_field(4, j)
            s = _nprime_raw(A, Aq, X, Y) + _nprime_raw(Aq, A, Y, X)
            for _ in range(10):
                p = rng.uniform(-1, 1, size=4)
                assert np.max(np.abs(s(p))) <= 1e-12


class TestTorsionS:
    def test_saa_is_twice_nijenhuis(self):
        A = field_38()
        X, Y = coordinate_field(4, 3), coordinate_field(4, 4)
        diff = torsion_S(A, A, X, Y) - nijenhuis(A, X, Y).scaled(ex.const(2.0))
        assert_zero_field(diff, BOX4, tol=1e-10)

    def test_symmetric_in_pair(self):
        A = field_38()
        z = ex.const(0.0)
        B = EndoField((
            (ex.var(1), z, z, z),
            (z, ex.var(2), z, z),
            (z, z, z, z),
            (z, z, z, ex.const(2.0)),
        ))
        X, Y = coordinate_field(4, 2), coordinate_field(4, 4)
        diff = torsion_S(A, B, X, Y) - torsion_S(B, A, X, Y)
        assert_zero_field(diff, BOX4, tol=1e-10)

    def test_identity_endo_gives_zero(self):
        Id = EndoField.identity(4)
        z = ex.const(0.0)
        B = EndoField((
            (ex.exp(ex.var(1)), z, z, z),
            (z, ex.var(2), ex.var(3), z),
            (z, z, z, z),
            (ex.var(4), z, z, ex.const(2.0)),
        ))
        rng = np.random.default_rng(8)
        for i, j in [(1, 2), (2, 4), (3, 4)]:
            S = torsion_S(Id, B, coordinate_field(4, i), coordinate_field(4, j))
            for _ in range(10):
                p = rng.uniform(-1, 1, size=4)
                assert np.max(np.abs(S(p))) <= 1e-10


class TestProp22:
    def test_trivial_at_p1(self):
        r = prop22_residual(field_37(), 1, 1, BOX4, samples=30, seed=3)
        assert r.max_residual_ii <= 1e-12

    def test_38_identity_holds_despite_torsion(self):
        r = prop22_residual(field_38(), 2, 1, BOX4, samples=100, seed=3)
        assert r.max_residual <= 1e-10

    def test_37_power_torsion_vanishes(self):
        # torsion vanishes, so N_{A^p} vanishes too
        A = field_37()
        r = prop22_residual(A, 1, 1, BOX4, samples=50, seed=3)
        assert r.max_residual <= 1e-10
        Np = nijenhuis(endo_power(A, 1), coordinate_field(4, 3),
                       coordinate_field(4, 2))
        assert_zero_field(Np, BOX4, tol=1e-10)
