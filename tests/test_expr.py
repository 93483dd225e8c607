import math
import re

import numpy as np
import pytest

from endochart import expr as ex
from endochart.expr import Box, is_zero_on_box
from endochart.grammar import ParseError, parse_expr


def central_diff(f, p, i, h=1e-5):
    up = list(p)
    dn = list(p)
    up[i - 1] += h
    dn[i - 1] -= h
    return (f(up) - f(dn)) / (2 * h)


def test_differentiate_exp():
    e = ex.exp(ex.var(2))
    d = ex.differentiate(e, 2)
    p = (0.0, 1.0, 0.0, 0.0)
    assert ex.evaluate(d, p) == pytest.approx(math.e, rel=1e-12)
    assert ex.evaluate(ex.differentiate(e, 1), p) == 0.0


def test_differentiate_constant():
    assert ex.evaluate(ex.differentiate(ex.const(7.0), 1), (0.5,)) == 0.0


def test_differentiate_pospow():
    e = ex.pospow(ex.var(1), 4)
    d = ex.differentiate(e, 1)
    # forced by the piecewise definition: 4 * pospow(t, 3)
    assert ex.evaluate(d, (0.5,)) == pytest.approx(4 * 0.5 ** 3, rel=1e-12)
    assert ex.evaluate(d, (-0.5,)) == 0.0


def test_evaluate_examples():
    assert ex.evaluate(ex.exp(ex.var(2)), (0, 1, 0, 0)) == pytest.approx(
        2.718281828, abs=1e-8)
    assert ex.evaluate(ex.pospow(ex.var(4), 4), (0, 0, 0, -0.5)) == 0.0
    assert ex.evaluate(ex.pospow(ex.var(4), 4), (0, 0, 0, 0.5)) == 0.0625


def test_evaluate_quotient_zero_denominator():
    e = ex.div(ex.const(1.0), ex.var(1))
    with pytest.raises(ex.EvaluationError) as err:
        ex.evaluate(e, (0.0,))
    assert err.value.subtree is e


def test_zero_on_box_syntactic_zero():
    e = ex.sub(ex.mul(ex.var(1), ex.var(2)), ex.mul(ex.var(2), ex.var(1)))
    r = is_zero_on_box(e, Box.cube(2, 1.0), samples=50, tol=1e-12, seed=1)
    assert r.passed and r.max_abs == 0.0


def test_zero_on_box_exp_lower_bound():
    e = ex.exp(ex.var(2))
    r = is_zero_on_box(e, Box.cube(4, 1.0), samples=100, tol=1e-9, seed=1)
    assert not r.passed
    assert r.max_abs >= 1.0 / math.e


def _random_expr(rng, d, depth):
    """Random tame expression: denominators bounded away from zero."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.var(int(rng.integers(1, d + 1)))
        return ex.const(float(rng.uniform(-2, 2)))
    kind = rng.choice(["sum", "prod", "quot", "pow", "exp", "pospow"])
    if kind == "sum":
        return ex.add(_random_expr(rng, d, depth - 1), _random_expr(rng, d, depth - 1))
    if kind == "prod":
        return ex.mul(_random_expr(rng, d, depth - 1), _random_expr(rng, d, depth - 1))
    if kind == "quot":
        den = ex.add(ex.const(1.0), ex.intpow(_random_expr(rng, d, depth - 2 if depth > 1 else 0), 2))
        return ex.div(_random_expr(rng, d, depth - 1), den)
    if kind == "pow":
        return ex.intpow(_random_expr(rng, d, depth - 1), int(rng.integers(2, 4)))
    if kind == "exp":
        # keep arguments small so values stay comparable
        return ex.exp(ex.mul(ex.const(0.3), _random_expr(rng, d, min(depth - 1, 2))))
    return ex.pospow(_random_expr(rng, d, depth - 1), int(rng.integers(2, 5)))


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(20260811)
    d = 3
    h = 1e-5
    checked = 0
    for _ in range(1000):
        e = _random_expr(rng, d, int(rng.integers(1, 7)))
        i = int(rng.integers(1, d + 1))
        de = ex.differentiate(e, i)
        p = rng.uniform(-1, 1, size=d)
        if any(abs(ex.evaluate(k, p)) < 10 * h for k in ex.kink_arguments(e)):
            continue  # one-sided derivatives differ at pospow kinks
        f = ex.compile_expr(e)
        sym = ex.evaluate(de, p)
        num = central_diff(f, p, i, h)
        scale = 1.0 + abs(f(p)) + abs(sym)
        assert abs(sym - num) <= 1e-6 * scale
        checked += 1
    assert checked > 800


def test_mixed_partials_commute():
    rng = np.random.default_rng(7)
    d = 3
    for _ in range(200):
        e = _random_expr(rng, d, 4)
        i, j = 1 + int(rng.integers(0, d)), 1 + int(rng.integers(0, d))
        dij = ex.differentiate(ex.differentiate(e, i), j)
        dji = ex.differentiate(ex.differentiate(e, j), i)
        p = rng.uniform(-1, 1, size=d)
        if any(abs(ex.evaluate(k, p)) < 1e-3 for k in ex.kink_arguments(e)):
            continue
        assert ex.evaluate(dij, p) == pytest.approx(ex.evaluate(dji, p), abs=1e-9, rel=1e-9)


def test_compiled_matches_tree_evaluation():
    rng = np.random.default_rng(99)
    exprs, pts = [], rng.uniform(-1, 1, size=(200, 3))
    for p in pts:
        e = _random_expr(rng, 3, 5)
        f = ex.compile_expr(e)
        assert f(p) == pytest.approx(ex.evaluate(e, p), rel=1e-13, abs=1e-13)
        exprs.append(e)
    batch = ex.compile_batch(exprs)(pts.T)
    tree = [[ex.evaluate(e, p) for p in pts] for e in exprs]
    np.testing.assert_allclose(batch, tree, rtol=1e-13, atol=1e-13)


def test_substitute():
    e = ex.add(ex.var(1), ex.mul(ex.var(2), ex.var(2)))
    s = ex.substitute(e, {1: ex.const(2.0), 2: ex.add(ex.var(3), ex.const(1.0))})
    assert ex.evaluate(s, (0, 0, 1.0)) == pytest.approx(2.0 + 4.0)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(((1.0, 1.0),))


class TestGrammar:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = _random_expr(rng, 4, 4)
            back = parse_expr(str(e))
            p = rng.uniform(-1, 1, size=4)
            assert ex.evaluate(back, p) == pytest.approx(
                ex.evaluate(e, p), rel=1e-12, abs=1e-12)

    def test_precedence(self):
        e = parse_expr("-x1^2")
        assert ex.evaluate(e, (3.0,)) == -9.0
        e = parse_expr("2 + 3 * 4")
        assert ex.evaluate(e, (0.0,)) == 14.0
        e = parse_expr("(2 + 3) * 4")
        assert ex.evaluate(e, (0.0,)) == 20.0
        e = parse_expr("1 - 2 - 3")
        assert ex.evaluate(e, (0.0,)) == -4.0
        e = parse_expr("8 / 2 / 2")
        assert ex.evaluate(e, (0.0,)) == 2.0

    def test_functions(self):
        e = parse_expr("exp(x2) * pospow(x1, 3)")
        assert ex.evaluate(e, (2.0, 0.0)) == 8.0
        assert ex.evaluate(e, (-2.0, 0.0)) == 0.0

    def test_scientific_numbers(self):
        assert ex.evaluate(parse_expr("1.5e-2"), ()) == 0.015

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + $")
        assert err.value.column == 6

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_expr("(x1 + 2")


class TestCompileBatch:
    """The batch path against the scalar path it replaces in the checks."""

    @staticmethod
    def fields():
        from pathlib import Path

        from endochart import corpus
        from endochart.fieldfile import load_field_document
        out = []
        for name in corpus.CORPUS:
            data = corpus.build_corpus_field(name)
            out.append((name, data["field"], data["box"]))
        docs = Path(__file__).resolve().parents[1] / "docs" / "examples"
        for path in sorted(docs.glob("*.json")):
            doc = load_field_document(path)
            out.append((path.stem, doc.field, doc.box))
        spec = corpus.Example35Spec.from_theta(3, analytic=False)
        out.append(("example35-n3-pospow", corpus.example35_field(spec)[0], spec.box))
        return out

    @staticmethod
    def entries_and_derivatives(A):
        entries = [e for row in A.entries for e in row]
        return entries + [ex.differentiate(e, i) for i in range(1, A.dim + 1)
                          for e in entries]

    def assert_paths_agree(self, exprs, pts):
        batch = ex.compile_batch(exprs)(pts.T)
        scalar = np.array([ex.compile_vector(exprs)(p) for p in pts]).T
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=1e-13)

    def test_fields_at_sample_points(self):
        for name, A, box in self.fields():
            self.assert_paths_agree(self.entries_and_derivatives(A),
                                    ex.sample_box(box, 100, 2026))

    def test_fields_beside_kinks(self):
        kinked = 0
        for name, A, box in self.fields():
            exprs = self.entries_and_derivatives(A)
            kinks = {a for e in exprs for a in ex.kink_arguments(e)}
            for a in kinks:
                assert isinstance(a, ex.Var), (name, a)
                pts = np.repeat(ex.sample_box(box, 10, 3), 4, axis=0)
                pts[:, a.index - 1] = np.tile([-1e-3, -1e-9, 1e-9, 1e-3],
                                              len(pts) // 4)
                self.assert_paths_agree(exprs, pts)
                kinked += 1
        assert kinked > 0

    def test_pospow_is_masked(self):
        e = ex.pospow(ex.var(1), 3)
        vals = ex.compile_batch([e])(np.array([[-2.0, -0.0, 0.5, 2.0]]))
        assert vals.tolist() == [[0.0, 0.0, 0.125, 8.0]]

    def test_constant_rows_broadcast(self):
        vals = ex.compile_batch([ex.const(0.0), ex.const(2.5), ex.var(2)])(
            np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert vals.tolist() == [[0.0, 0.0], [2.5, 2.5], [3.0, 4.0]]

    def test_zero_denominator_names_subtree(self):
        den = ex.add(ex.var(1), ex.const(1.0))
        e = ex.add(ex.var(2), ex.div(ex.const(1.0), den))
        x = np.array([[0.0, -1.0, -1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ex.EvaluationError) as err:
            ex.compile_batch([ex.var(1), e])(x)
        assert err.value.subtree == ex.div(ex.const(1.0), den)
        assert "zero denominator" in str(err.value)
        assert "(-1, 0)" in str(err.value)      # the first bad point

    def test_overflow_names_subtree(self):
        inner = ex.exp(ex.exp(ex.mul(ex.const(10.0), ex.var(1))))
        with pytest.raises(ex.EvaluationError) as err:
            ex.compile_batch([ex.exp(inner)])(np.array([[0.0, 1.0]]))
        assert err.value.subtree == inner
        assert "overflow" in str(err.value)

    def test_kink_mask(self):
        e = ex.mul(ex.var(2), ex.pospow(ex.sub(ex.var(1), ex.const(0.5)), 2))
        x = np.array([[0.5, 0.50001, 0.6, -1.0], [1.0, 1.0, 1.0, 1.0]])
        assert ex.kink_mask([e], x).tolist() == [True, True, False, False]
        assert ex.kink_mask([ex.var(1)], x).tolist() == [False] * 4


def _unshared_source(e) -> str:
    """The scalar source of e with no sharing: one inline expression, as
    the scalar path emitted before subtrees were shared."""
    if isinstance(e, ex.Const):
        return repr(e.value)
    if isinstance(e, ex.Var):
        return f"x[{e.index - 1}]"
    if isinstance(e, (ex.Sum, ex.Product)):
        sep = "+" if isinstance(e, ex.Sum) else "*"
        return "(" + sep.join(map(_unshared_source, ex._children(e))) + ")"
    if isinstance(e, ex.Quotient):
        return f"({_unshared_source(e.num)}/{_unshared_source(e.den)})"
    if isinstance(e, ex.IntPow):
        return f"({_unshared_source(e.base)})**{e.power}"
    if isinstance(e, ex.Exp):
        return f"_exp({_unshared_source(e.arg)})"
    return f"_pp({_unshared_source(e.arg)},{e.power})"


class TestScalarPath:
    """The scalar path on Python floats with shared subtrees, against the
    reference it replaced: un-shared source evaluated on the numpy scalars
    that indexing an ndarray point gives."""

    @staticmethod
    def scalar_exprs(A):
        """A's entries and first partials, and the jacobian entries of every
        symbolic flow generator A^p d/dx_j (p >= 1) the chart pipeline
        compiles."""
        from endochart.fields import apply_endo, coordinate_field, endo_power
        exprs = TestCompileBatch.entries_and_derivatives(A)
        for p in range(1, A.dim):
            Ap = endo_power(A, p)
            if all(isinstance(e, ex.Const) and e.value == 0.0
                   for row in Ap.entries for e in row):
                break
            for j in range(1, A.dim + 1):
                V = apply_endo(Ap, coordinate_field(A.dim, j))
                exprs += [e for row in V.jacobian_exprs() for e in row]
        return exprs

    def test_bits_equal_the_unshared_numpy_scalar_evaluation(self):
        namespace = {"_exp": math.exp, "_pp": ex._pospow_rt}
        for name, A, box in TestCompileBatch.fields():
            exprs = self.scalar_exprs(A)
            new = ex.compile_vector(exprs)
            ref = eval("lambda x: [" + ",".join(map(_unshared_source, exprs))
                       + "]", namespace)
            pts = ex.sample_box(box, 1000, 11)
            assert len(pts) >= 1000
            got = np.array([new(p) for p in pts])
            expect = np.array([ref(p) for p in pts], dtype=float)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          expect.view(np.uint64), err_msg=name)

    def test_shared_subtree_is_computed_once(self, monkeypatch):
        # example35-n3's stage-0 generator A d/ds (s = x3): each of its 5
        # non-zero jacobian entries holds x2 x3^4 + 1
        from endochart import corpus
        from endochart.fields import apply_endo, coordinate_field
        from endochart.flows import CompiledField
        A = corpus.build_corpus_field("example35-n3")["field"]
        V = apply_endo(A, coordinate_field(3, 3))
        jac = [e for row in V.jacobian_exprs() for e in row]
        assert sum(not isinstance(e, ex.Const) for e in jac) == 5
        assert all("((x[1]*(x[2])**4)+1.0)" in _unshared_source(e)
                   for e in jac if not isinstance(e, ex.Const))
        generator, bodies, define = CompiledField(V), [], ex._define
        monkeypatch.setattr(ex, "_define", lambda body, namespace: (
            bodies.append(body) or define(body, namespace)))
        generator.jacobian(np.array([0.1, 0.2, 0.25]))
        (body,) = bodies
        assert "\n".join(body).count("+1.0)") == 1
        assert any(re.fullmatch(r"_\d+ = \(\(x\[1\]\*_\d+\)\+1\.0\)", line)
                   for line in body)

    def test_zero_denominator_at_an_ndarray_point(self):
        e = ex.div(ex.const(1.0), ex.var(1))
        point = np.array([0.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            ex.compile_expr(e)(point)
        with pytest.raises(ZeroDivisionError):
            ex.compile_vector([ex.var(2), e])(point)

    def test_integer_power_overflow(self):
        e = ex.intpow(ex.var(1), 400)
        with pytest.raises(OverflowError):
            ex.compile_expr(e)(np.array([1e10]))
        with pytest.raises(OverflowError):
            ex.compile_vector([e])(np.array([1e10]))

    def test_values_are_python_floats(self):
        f = ex.compile_vector([ex.mul(ex.var(1), ex.var(2)), ex.const(2.0)])
        assert [type(v) for v in f(np.array([0.5, 3.0]))] == [float, float]
        assert f((0.5, 3.0)) == [1.5, 2.0]
        assert type(ex.compile_expr(ex.var(1))(np.array([0.25]))) is float
