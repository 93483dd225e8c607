import numpy as np
import pytest

from endochart import expr as ex
from endochart.charts import validate_adapted_chart
from endochart.expr import Box, sample_box
from endochart.corpus import (CORPUS, CompatibilityError, Example35Spec,
                              PositivityError, UnsupportedMultiplicitiesError,
                              build_corpus_field, conjugated_constant,
                              constant_jordan, example35_P,
                              example35_compat_residual, example35_field,
                              example35_solve, example37_field,
                              example38_field, theta_expr)
from endochart.fields import coordinate_field, nijenhuis
from endochart.structure import (nijenhuis_residual, rank_profile,
                                 theorem13_report, torsion_tol)


class TestCounterexamplePair:
    def test_example37_verdicts(self):
        box = Box.cube(4, 1.0)
        rep = theorem13_report(example37_field(), box, samples=100, seed=1)
        assert rep.condition_flags() == (True, True, False)

    def test_example38_torsion_value(self):
        A = example38_field()
        N = nijenhuis(A, coordinate_field(4, 3), coordinate_field(4, 4))
        p = (0.1, -0.6, 0.2, 0.9)
        assert np.allclose(N(p), [-np.exp(-0.6), 0, 0, 0], atol=1e-13)

    def test_rank_profiles(self):
        assert rank_profile(example37_field(), (0.1, 0.2, 0.3, 0.4)).ranks == (4, 1, 0)
        assert rank_profile(example38_field(), (0.1, 0.2, 0.3, 0.4)).ranks == (4, 2, 0)


class TestExample35Field:
    def test_column_structure(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        p = (0.1, 0.2, 0.25)
        M = A(p)
        # column 2 is e_1; column 1 vanishes
        assert np.allclose(M[:, 0], 0)
        assert np.allclose(M[:, 1], [1, 0, 0])
        a1 = ex.evaluate(spec.alphas[0], p)
        a2 = ex.evaluate(spec.alphas[1], p)
        assert np.allclose(M[:, 2], [a1, a2, 0])
        assert chart.multiplicities == (0, 0, 1)

    def test_n2_constant_alpha(self):
        spec = Example35Spec.constant(2, [1.0])
        A, _ = example35_field(spec)
        assert np.allclose(A((0.0, 0.0)), [[0, 1], [0, 0]])

    def test_positivity_failure(self):
        spec = Example35Spec(2, (ex.var(2),), Box.cube(2, 0.5))
        with pytest.raises(PositivityError):
            example35_field(spec)

    def test_theta_matches_effective_form(self):
        spec = Example35Spec.from_theta(2, r=3)
        # alpha_1 = 1/(1 + x_1 * x_2^4)
        p = (0.2, 0.5)
        assert ex.evaluate(spec.alphas[0], p) == pytest.approx(
            1.0 / (1.0 + 0.2 * 0.5 ** 4), rel=1e-14)


class TestCompatibility:
    def test_constants_vanish(self):
        spec = Example35Spec.constant(4, [0.5, -0.3, 1.0])
        assert example35_compat_residual(spec) == 0.0

    def test_xn_only_vanishes(self):
        box = Box.cube(3, 0.4)
        alphas = (ex.mul(ex.const(0.5), ex.var(3)),
                  ex.add(ex.const(1.0), ex.mul(ex.const(0.4), ex.var(3))))
        spec = Example35Spec(3, alphas, box)
        assert example35_compat_residual(spec) <= 1e-15

    def test_theta_family_vanishes(self):
        for n in (2, 3):
            spec = Example35Spec.from_theta(n)
            assert example35_compat_residual(spec) <= 1e-15

    def test_x1_dependent_tail_breaks_both(self):
        # alpha_2 = 1 + x_1 violates the system and produces nonzero torsion
        box = Box.cube(3, 0.4)
        spec = Example35Spec(3, (ex.const(0.0), ex.add(ex.const(1.0), ex.var(1))), box)
        resid = example35_compat_residual(spec)
        A, _ = example35_field(spec)
        torsion = nijenhuis_residual(A, sample_box(box, 60, 3).T,
                                     torsion_tol(A, box, 3))
        assert resid > 0.1
        assert not torsion.passed and torsion.max_residual > 0.1

    def test_alpha1_x2_has_zero_torsion(self):
        # the defect system is exactly the tensor's coordinate components:
        # alpha_1 = x_2 satisfies it, and the torsion indeed vanishes
        box = Box.cube(3, 0.4)
        spec = Example35Spec(3, (ex.var(2), ex.const(1.0)), box)
        assert example35_compat_residual(spec) == 0.0
        A, _ = example35_field(spec)
        torsion = nijenhuis_residual(A, sample_box(box, 60, 3).T,
                                     torsion_tol(A, box, 3))
        assert torsion.max_residual <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: Example35Spec.constant(3, [0.2, 1.0]),
        lambda: Example35Spec.from_theta(3),
        lambda: Example35Spec(3, (ex.var(2), ex.const(1.0)), Box.cube(3, 0.4)),
        lambda: Example35Spec(3, (ex.mul(ex.var(1), ex.var(3)),
                                  ex.const(1.0)), Box.cube(3, 0.4)),
    ])
    def test_zero_iff_torsion_zero(self, make):
        spec = make()
        resid = example35_compat_residual(spec)
        A, _ = example35_field(spec) if ex.evaluate(spec.alphas[-1], spec.box.center) > 0 \
            else (None, None)
        if A is None:
            return
        torsion = nijenhuis_residual(A, sample_box(spec.box, 60, 4).T,
                                     torsion_tol(A, spec.box, 4))
        assert (resid <= 1e-12) == (torsion.max_residual <= 1e-10)


class TestPFractions:
    def test_p1_is_reciprocal(self):
        spec = Example35Spec.from_theta(3)
        P = example35_P(spec)
        p = (0.1, 0.15, 0.2)
        assert ex.evaluate(P[0], p) == pytest.approx(
            1.0 / ex.evaluate(spec.alphas[1], p), rel=1e-13)

    def test_n2_single_fraction(self):
        spec = Example35Spec.from_theta(2)
        assert len(example35_P(spec)) == 1

    def test_n3_second_fraction(self):
        spec = Example35Spec.from_theta(3)
        P = example35_P(spec)
        p = (0.1, -0.2, 0.3)
        a1 = ex.evaluate(spec.alphas[0], p)
        a2 = ex.evaluate(spec.alphas[1], p)
        expect = -(a1 / a2) * (1.0 / a2)
        assert ex.evaluate(P[1], p) == pytest.approx(expect, rel=1e-12)


def oracle_jordan_deviation(spec, panels=256, pts=None, h=1e-4):
    """Conjugate A by the oracle chart differential and compare with the
    cyclic Jordan matrix (finite-difference jacobian of the oracle)."""
    A, _ = example35_field(spec)
    oracle = example35_solve(spec, panels=panels)
    n = spec.n
    J = np.zeros((n, n))
    for m in range(2, n + 1):
        J[m - 2, m - 1] = 1.0
    rng = np.random.default_rng(7)
    if pts is None:
        lo = np.array([b[0] for b in spec.box.bounds]) * 0.6
        hi = np.array([b[1] for b in spec.box.bounds]) * 0.6
        pts = rng.uniform(lo, hi, size=(5, n))
    worst = 0.0
    for p in pts:
        Dy = np.empty((n, n))
        for j in range(n):
            up, dn = p.copy(), p.copy()
            up[j] += h
            dn[j] -= h
            Dy[:, j] = (oracle(up) - oracle(dn)) / (2 * h)
        mat = Dy @ A(p) @ np.linalg.inv(Dy)
        worst = max(worst, float(np.max(np.abs(mat - J))))
    return worst


class TestOracleChart:
    def test_n2_theta_closed_form(self):
        # dy_1/dx_1 = 1/alpha_1 = 1 + x_1 theta(x_2) integrates to
        # x_1 + x_1^2 theta(x_2) / 2 with the section normalisation
        spec = Example35Spec.from_theta(2, r=3)
        oracle = example35_solve(spec, panels=128)
        for (x1, x2) in [(0.2, 0.3), (-0.25, 0.1), (0.3, -0.2)]:
            theta = x2 ** 4
            y = oracle((x1, x2))
            assert y[1] == pytest.approx(x2, abs=1e-14)
            assert y[0] == pytest.approx(x1 + 0.5 * x1 * x1 * theta, abs=1e-10)

    def test_constant_alpha_affine(self):
        spec = Example35Spec.constant(3, [0.0, 1.0])
        oracle = example35_solve(spec, panels=64)
        # alpha = (0, 1): A is the constant cyclic block, so y = x
        for p in [(0.1, 0.2, 0.3), (-0.2, 0.15, -0.1)]:
            assert np.allclose(oracle(p), p, atol=1e-12)

    def test_oracle_is_integral_chart_n3(self):
        spec = Example35Spec.from_theta(3)
        assert oracle_jordan_deviation(spec, panels=256) <= 1e-5

    def test_oracle_is_integral_chart_xn_only(self):
        data = build_corpus_field("example35-n3-xn")
        assert oracle_jordan_deviation(data["spec"], panels=256) <= 1e-5

    def test_general_path_matches_specialised_n3(self):
        spec = Example35Spec.from_theta(3)
        oracle = example35_solve(spec, panels=256)
        p = np.array([0.12, -0.2, 0.22])
        fast = oracle(p)
        slow = oracle._evaluate_general(p)
        assert np.max(np.abs(fast - slow)) <= 1e-6

    def test_a_neighbouring_point_gets_its_own_value(self):
        # the two points agree to 12 decimals, yet each gets the value a
        # fresh oracle computes for it
        spec = build_corpus_field("example35-n3")["spec"]
        oracle = example35_solve(spec)
        p, near = (0.1, 0.2, 0.3), (0.1 + 1e-13, 0.2, 0.3)
        first = oracle(p)
        assert oracle(near).tobytes() == example35_solve(spec)(near).tobytes()
        assert oracle(near)[0] != first[0]

    def test_vanishes_on_section(self):
        spec = Example35Spec.from_theta(3)
        oracle = example35_solve(spec, panels=64)
        y = oracle((0.0, 0.0, 0.17))
        assert np.allclose(y[:2], 0.0, atol=1e-14)
        assert y[2] == pytest.approx(0.17)

    def test_compat_gate(self):
        spec = Example35Spec(3, (ex.const(0.0), ex.add(ex.const(1.0), ex.var(1))),
                             Box.cube(3, 0.4))
        with pytest.raises(CompatibilityError):
            example35_solve(spec)


class TestConjugatedConstant:
    def test_zero_shear_is_constant(self):
        oracle = conjugated_constant(seed=1, d=3, multiplicities=(1, 1),
                                     shear_degree=0)
        M = oracle.field((0.3, -0.2, 0.1))
        assert np.allclose(M, oracle.jordan)

    def test_torsion_vanishes(self):
        oracle = conjugated_constant(seed=5, d=3, multiplicities=(1, 1),
                                     shear_degree=2)
        box = oracle.chart.box
        res = nijenhuis_residual(oracle.field, sample_box(box, 80, 6).T,
                                 torsion_tol(oracle.field, box, 6))
        assert res.max_residual <= 1e-9

    def test_theorem13_passes(self):
        oracle = conjugated_constant(seed=5, d=3, multiplicities=(1, 1),
                                     shear_degree=2)
        rep = theorem13_report(oracle.field, oracle.chart.box, samples=60, seed=7)
        assert rep.integrable

    def test_known_chart_conjugates_to_jordan(self):
        oracle = conjugated_constant(seed=9, d=4, multiplicities=(0, 2),
                                     shear_degree=2)
        ev = oracle.known_chart_evaluator()
        A = oracle.field.evaluator()
        h = 1e-5
        rng = np.random.default_rng(3)
        for p in rng.uniform(-0.4, 0.4, size=(5, 4)):
            Dy = np.empty((4, 4))
            for j in range(4):
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                Dy[:, j] = (ev(up) - ev(dn)) / (2 * h)
            mat = Dy @ A(p) @ np.linalg.inv(Dy)
            assert np.max(np.abs(mat - oracle.jordan)) <= 1e-8

    def test_chart_is_adapted(self):
        oracle = conjugated_constant(seed=11, d=4, multiplicities=(0, 2),
                                     shear_degree=2)
        rep = validate_adapted_chart(oracle.field, oracle.chart, samples=30,
                                     seed=8)
        assert rep.passed

    def test_unsupported_multiplicities_rejected(self):
        with pytest.raises(UnsupportedMultiplicitiesError):
            conjugated_constant(seed=1, d=4, multiplicities=(1, 0, 1))

    def test_eigenvalue_shift(self):
        oracle = conjugated_constant(seed=2, d=3, multiplicities=(1, 1),
                                     shear_degree=1, eigenvalue=0.7)
        M = oracle.field((0.0, 0.0, 0.0))
        assert np.allclose(np.trace(M), 3 * 0.7)


class TestRegistry:
    def test_all_entries_build(self):
        for name in CORPUS:
            data = build_corpus_field(name)
            assert data["field"].dim == data["box"].dim

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_corpus_field("nope")

    def test_theta_pospow_variant(self):
        t = theta_expr(2, 3, analytic=False)
        assert ex.evaluate(t, (0.0, -0.5)) == 0.0
        assert ex.evaluate(t, (0.0, 0.5)) == pytest.approx(0.5 ** 4)
