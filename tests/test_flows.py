import math

import numpy as np
import pytest

from endochart import expr as ex
from endochart import flows
from endochart.charts import initial_frame
from endochart.corpus import CORPUS, build_corpus_field
from endochart.expr import Box
from endochart.fields import (VectorField, apply_endo, coordinate_field,
                              lie_bracket)
from endochart.flows import (BoxExitError, CompiledField,
                             ComputedVectorField, FlowSpec,
                             IntegratorSettings, _check_line, _point_flow,
                             integrate_flow,
                             integrate_with_transport, numeric_bracket)

RK4 = IntegratorSettings(step=1e-2)


def linear_field(M: np.ndarray) -> VectorField:
    d = M.shape[0]
    comps = []
    for i in range(d):
        comps.append(ex.add(*[ex.mul(ex.const(M[i, j]), ex.var(j + 1))
                              for j in range(d)]))
    return VectorField(tuple(comps))


class TestIntegrateFlow:
    def test_constant_field_translates(self):
        spec = FlowSpec(coordinate_field(3, 1), RK4)
        p = integrate_flow(spec, (0.1, 0.2, 0.3), 0.7)
        assert np.allclose(p, (0.8, 0.2, 0.3), atol=1e-14)

    def test_exponential_growth(self):
        spec = FlowSpec(VectorField((ex.var(1),)), RK4)
        p = integrate_flow(spec, (1.0,), 1.0)
        assert abs(p[0] - math.e) <= 1e-8

    def test_rotation(self):
        V = VectorField((ex.negate(ex.var(2)), ex.var(1)))
        spec = FlowSpec(V, RK4)
        p = integrate_flow(spec, (1.0, 0.0), math.pi / 2)
        assert np.allclose(p, (0.0, 1.0), atol=1e-7)

    def test_box_exit(self):
        spec = FlowSpec(coordinate_field(2, 1), RK4, box=Box.cube(2, 1.0))
        with pytest.raises(BoxExitError) as err:
            integrate_flow(spec, (0.5, 0.0), 1.0)
        assert 0.4 < err.value.time <= 1.0

    def test_negative_time(self):
        spec = FlowSpec(VectorField((ex.var(1),)), RK4)
        p = integrate_flow(spec, (1.0,), -1.0)
        assert abs(p[0] - 1.0 / math.e) <= 1e-8


def flow_differential(spec: FlowSpec, p0, t: float) -> np.ndarray:
    """d(Phi^t)(p0): the variational transport of the identity frame."""
    _, J = integrate_with_transport(spec, p0, t, np.eye(spec.generator.dim))
    return J


class TestFlowDifferential:
    def test_constant_field_identity(self):
        spec = FlowSpec(coordinate_field(3, 1), RK4)
        J = flow_differential(spec, (0.0, 0.0, 0.0), 0.5)
        assert np.allclose(J, np.eye(3), atol=1e-14)

    def test_linear_1d(self):
        spec = FlowSpec(VectorField((ex.var(1),)), RK4)
        J = flow_differential(spec, (0.3,), 1.0)
        assert abs(J[0, 0] - math.e) <= 1e-8

    def test_nilpotent_matches_matrix_exponential(self):
        # for nilpotent A the RK4 step map reproduces exp(tA) exactly
        A = np.array([[0, 1.0, 0.5], [0, 0, 2.0], [0, 0, 0]])
        spec = FlowSpec(linear_field(A), RK4)
        t = 0.37
        expect = np.eye(3) + t * A + (t * A) @ (t * A) / 2.0
        J = flow_differential(spec, (0.1, 0.2, 0.3), t)
        assert np.max(np.abs(J - expect)) <= 1e-14

    def test_columns_match_central_differences(self):
        V = VectorField((ex.mul(ex.var(2), ex.var(2)), ex.exp(ex.mul(ex.const(0.5), ex.var(1)))))
        spec = FlowSpec(V, RK4)
        p0 = np.array([0.2, -0.1])
        t = 0.4
        J = flow_differential(spec, p0, t)
        h = 1e-5
        for j in range(2):
            up, dn = p0.copy(), p0.copy()
            up[j] += h
            dn[j] -= h
            col = (integrate_flow(spec, up, t) - integrate_flow(spec, dn, t)) / (2 * h)
            assert np.max(np.abs(J[:, j] - col)) <= max(1e-6, 10 * h * h)


# not straight, from sums, products and quotients
BLOCK_FIELD = VectorField((
    ex.add(ex.mul(ex.const(0.3), ex.var(2), ex.var(3)), ex.const(0.2)),
    ex.sub(ex.mul(ex.const(-0.4), ex.var(1), ex.var(1)), ex.var(3)),
    ex.div(ex.mul(ex.var(1), ex.var(2)), ex.add(ex.const(2.0), ex.var(3)))))


class TestGroupLawAndDeterminism:
    def test_group_law(self):
        V = VectorField((ex.add(ex.mul(ex.const(0.3), ex.var(2)), ex.const(0.2)),
                         ex.mul(ex.const(-0.4), ex.mul(ex.var(1), ex.var(1)))))
        spec = FlowSpec(V, RK4)
        p0 = (0.1, 0.2)
        t, s = 0.23, 0.41
        a = integrate_flow(spec, p0, t + s)
        b = integrate_flow(spec, integrate_flow(spec, p0, s), t)
        assert np.max(np.abs(a - b)) <= 10 * RK4.step ** 4

    def test_bitwise_determinism(self):
        V = VectorField((ex.exp(ex.mul(ex.const(0.2), ex.var(2))),
                         ex.mul(ex.var(1), ex.var(2))))
        spec = FlowSpec(V, RK4)
        a = integrate_flow(spec, (0.11, -0.07), 0.9)
        b = integrate_flow(FlowSpec(V, RK4), (0.11, -0.07), 0.9)
        assert a.tobytes() == b.tobytes()


class TestComputedVectorField:
    def test_cache(self):
        calls = []
        field = ComputedVectorField(lambda p: calls.append(p) or np.array(p), 1)
        field.value((0.5,))
        field.value((0.5,))
        assert field.cache_size() == 1
        assert len(calls) == 1

    def test_evicts_the_oldest_value(self, monkeypatch):
        # the last MEMO values are kept; an evicted one is recomputed
        monkeypatch.setattr(ComputedVectorField, "MEMO", 2)
        calls = []
        field = ComputedVectorField(lambda p: calls.append(p) or np.array(p), 1)
        for p in (0.1, 0.2, 0.3):
            field.value((p,))
        assert field.cache_size() == 2
        assert field.value((0.1,))[0] == 0.1 and len(calls) == 4
        assert field.cache_size() == 2

    def test_neighbouring_point_is_not_served(self):
        # the points agree to 12 digits but are different points
        field = ComputedVectorField(lambda p: np.array(p), 1)
        a = field.value((0.5,))
        b = field.value((0.5 + 1e-14,))
        assert field.cache_size() == 2
        assert b[0] == 0.5 + 1e-14 and a[0] == 0.5


class TestNumericBracket:
    def test_matches_symbolic(self):
        X = VectorField((ex.exp(ex.var(2)), ex.const(0.0)))
        Y = VectorField((ex.const(0.0), ex.mul(ex.var(1), ex.var(2))))
        exact = lie_bracket(X, Y)
        p = (0.3, -0.2)
        num = numeric_bracket(CompiledField(X), CompiledField(Y), p, h=1e-4)
        assert np.max(np.abs(num - exact(p))) <= 1e-7

    def test_self_bracket_vanishes(self):
        X = VectorField((ex.mul(ex.var(1), ex.var(2)), ex.exp(ex.var(1))))
        p = (0.4, 0.1)
        assert np.max(np.abs(numeric_bracket(CompiledField(X), CompiledField(X), p))) <= 1e-8


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorSettings(step=0.0)


# reads only x3, x4 and x5, which it does not move
STRAIGHT_FIELD = VectorField((
    ex.add(ex.mul(ex.const(0.3), ex.var(3), ex.var(4)),
           ex.mul(ex.const(0.2), ex.var(5)), ex.const(0.2)),
    ex.sub(ex.div(ex.var(3), ex.add(ex.const(2.0), ex.var(4))),
           ex.mul(ex.const(0.1), ex.var(5), ex.var(3))),
    ex.const(0.0), ex.const(0.0), ex.const(0.0)))


def rk4_oracle(spec: FlowSpec) -> FlowSpec:
    """The same flow problem on a non-symbolic wrapper: always RK4."""
    cf = spec.generator
    return FlowSpec(ComputedVectorField(cf.value, cf.dim), spec.settings,
                    spec.box)


def box_exit(run) -> BoxExitError:
    with pytest.raises(BoxExitError) as err:
        run()
    return err.value


class TestStraightFlows:
    def test_flag(self):
        assert CompiledField(STRAIGHT_FIELD).straight
        assert CompiledField(coordinate_field(3, 2)).straight
        assert not CompiledField(BLOCK_FIELD).straight
        # x2 moves, and the first component reads it
        assert not CompiledField(VectorField((ex.var(2), ex.const(1.0)))).straight
        assert not CompiledField(VectorField((ex.var(1),))).straight

    @pytest.mark.parametrize("t", [0.37, -0.21, 1.3])
    def test_endpoints_match_rk4(self, t):
        spec = FlowSpec(STRAIGHT_FIELD, RK4)
        oracle = rk4_oracle(spec)
        P = np.random.default_rng(7).uniform(-0.5, 0.5, (5, 6))
        for n in range(6):
            expect = integrate_flow(oracle, P[:, n], t)
            assert np.max(np.abs(integrate_flow(spec, P[:, n], t)
                                 - expect)) <= 1e-12
            x, _ = integrate_with_transport(spec, P[:, n], t, np.eye(5))
            assert np.max(np.abs(x - expect)) <= 1e-12

    @pytest.mark.parametrize("t", [0.37, -0.6])
    def test_frames_match_central_differences_of_rk4(self, t):
        spec = FlowSpec(STRAIGHT_FIELD, RK4)
        oracle = rk4_oracle(spec)
        p0 = np.array([0.1, -0.2, 0.3, -0.15, 0.25])
        _, J = integrate_with_transport(spec, p0, t, np.eye(5))
        h = 1e-5
        for j in range(5):
            up, dn = p0.copy(), p0.copy()
            up[j] += h
            dn[j] -= h
            col = (integrate_flow(oracle, up, t)
                   - integrate_flow(oracle, dn, t)) / (2 * h)
            assert np.max(np.abs(J[:, j] - col)) <= 1e-7

    @pytest.mark.parametrize("start, t", [
        ((0.5, 0.0, 0.2, 0.1, 0.0), 3.0),      # leaves through x1 = 1
        ((0.5, 0.0, -0.4, 0.1, 0.0), -6.0),    # leaves backwards through x2 = 1
        ((-1.3, 0.0, 0.5, 0.0, 0.0), 4.0),     # starts outside, re-enters
    ])
    def test_box_exit_matches_rk4(self, start, t):
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        expect = box_exit(lambda: integrate_flow(rk4_oracle(spec), start, t))
        for run in (lambda: integrate_flow(spec, start, t),
                    lambda: integrate_with_transport(spec, start, t,
                                                     np.eye(5))):
            got = box_exit(run)
            assert got.time == expect.time
            assert np.max(np.abs(np.subtract(got.point, expect.point))) <= 1e-12

    @pytest.mark.parametrize("t", [0.2, 0.24, 3.0, -3.0])
    def test_box_exit_checks_only_the_flows_own_steps(self, t):
        # x1 = 0.95 + 0.2 s reaches the face x1 = 1 at s = 0.25: a flow to
        # t checks its own step points of size t / n and no later ones
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        x = (0.95, 0.0, 0.0, 0.0, 0.0)
        expect = line_reference(spec, x, t)
        assert (expect[0] == "exit") == (t == 3.0)
        oracle = flow_outcome(lambda: integrate_flow(rk4_oracle(spec), x, t))
        assert oracle[:2] == expect[:2]
        for run in (lambda: integrate_flow(spec, x, t),
                    lambda: integrate_with_transport(spec, x, t, np.eye(5))):
            assert flow_outcome(run) == expect

    @pytest.mark.parametrize("t", [0.37, -0.21])
    @pytest.mark.parametrize("m", [1, 3])
    def test_transport_matches_the_numpy_reference(self, t, m):
        # V is constant along its line and DV^2 = 0, so RK4 of (x, W) is
        # the closed form x + tV, W + t DV W up to rounding
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        rng = np.random.default_rng(13)
        P = rng.uniform(-0.5, 0.5, (5, 9))
        W0 = rng.normal(size=(9, 5, m))
        for n in range(9):
            x, W = integrate_with_transport(spec, P[:, n], t, W0[n])
            xr, Wr = reference_transport(STRAIGHT_FIELD, P[:, n], t, W0[n])
            assert W.shape == (5, m)
            assert np.max(np.abs(x - xr)) <= 1e-12
            assert np.max(np.abs(W - Wr)) <= 1e-12

    # per corpus entry: (power, slot) of each stage-0 flow generator
    # A^p d/ds and whether it is straight
    @pytest.mark.parametrize("name, flags", [
        ("example38", {(1, 0): True, (1, 1): True}),
        ("example35-n2", {(1, 0): False}),
        ("example35-n3", {(2, 0): True, (1, 0): False}),
        ("example35-n3-xn", {(2, 0): True, (1, 0): True}),
        ("example35-n4-const", {(3, 0): True, (2, 0): True, (1, 0): True}),
        ("constant-jordan", {(1, 1): True}),
        ("conjugated-n2", {(1, 1): True}),
        ("conjugated-n2-d4", {(1, 0): True, (1, 1): True}),
    ])
    def test_corpus_flags(self, name, flags):
        from endochart.charts import initial_frame
        from endochart.corpus import build_corpus_field

        entry = build_corpus_field(name)
        pipe = initial_frame(entry["field"], entry["chart"],
                             check=False).pipeline
        got = {(a, i): pipe.generator(a, i, 0).straight
               for a, i in pipe.slots if a >= 1}
        assert got == flags
        # the exact test, DV V folding to 0, finds no straight flow more
        for a, i in got:
            V = pipe.generator(a, i, 0).field
            LVV = [ex.add(*[ex.mul(ex.differentiate(c, j + 1), V.components[j])
                            for j in range(V.dim)]) for c in V.components]
            assert got[a, i] == all(e == ex.const(0.0) for e in LVV)


def flow_outcome(run):
    """("exit", time, point) of the BoxExitError run raises, or ("inside",)."""
    try:
        run()
    except BoxExitError as err:
        return ("exit", err.time, err.point)
    return ("inside",)


def line_reference(spec: FlowSpec, x, t: float) -> tuple:
    """The box check of a straight flow from x after time t, written out on
    numpy arrays: the outcome at the first step point x + (k h) V(x) that
    `Box.contains` rejects, or ("inside",)."""
    n = max(1, math.ceil(abs(t) / spec.settings.step))
    h = t / n
    x = np.asarray(x, dtype=float)
    v = spec.generator.value(x)
    for k in range(1, n + 1):
        p = x + (k * h) * v
        if not spec.box.contains(p):
            return ("exit", k * h, tuple(p))
    return ("inside",)


class TestSingleStartLineCheck:
    # straight: V reads x2 only, and x2 does not move
    FIELD = VectorField((ex.add(ex.const(0.3), ex.mul(ex.const(0.2), ex.var(2))),
                         ex.const(0.0)))

    @staticmethod
    def starts(spec, t: float, step: int) -> dict:
        """Starts whose step point `step` (1, or the last of flow time t)
        has first coordinate on the box face x1 = sign(t) exactly, and the
        nearest ones just outside and just inside it, as the line check
        computes the step point."""
        n = max(1, math.ceil(abs(t) / spec.settings.step))
        scale = t / n if step == 1 else n * (t / n)
        v = spec.generator.value(np.array([0.0, 0.5]))
        bound = math.copysign(1.0, t)
        s = bound - scale * v[0] - 40 * np.spacing(1.0)
        found = {}
        for _ in range(160):
            x = np.array([s, 0.5])
            p = (x + scale * v)[0]
            kind = "on" if p == bound else "out" if abs(p) > 1.0 else "in"
            if kind not in found or abs(p - bound) < found[kind][1]:
                found[kind] = (x, abs(p - bound))
            s = np.nextafter(s, np.inf)
        assert set(found) == {"on", "out", "in"}
        return {kind: x for kind, (x, _) in found.items()}

    @pytest.mark.parametrize("t", [0.5, -0.5])
    @pytest.mark.parametrize("step", [1, "last"])
    def test_matches_box_contains_on_the_step_points(self, t, step):
        spec = FlowSpec(self.FIELD, RK4, box=Box.cube(2, 1.0))
        outcomes = {}
        for kind, x in self.starts(spec, t, step).items():
            expect = line_reference(spec, x, t)
            for run in (lambda: integrate_flow(spec, x, t),
                        lambda: integrate_with_transport(spec, x, t, np.eye(2))):
                assert flow_outcome(run) == expect, kind
            outcomes[kind] = expect
        # the last step point decides alone; a first one on or inside the
        # face leaves the last one outside, a first one outside fails there
        kinds = {kind: got[0] for kind, got in outcomes.items()}
        if step == "last":
            assert kinds == {"on": "inside", "out": "exit", "in": "inside"}
        else:
            assert set(kinds.values()) == {"exit"}
            assert outcomes["out"][1] == t / 50
            assert abs(outcomes["on"][1]) > abs(t) / 50


@pytest.mark.parametrize("run", [
    lambda spec: integrate_flow(spec, (0.0, 0.0), 0.5),
    lambda spec: integrate_with_transport(spec, (0.0, 0.0), 0.5, np.eye(2)),
], ids=["integrate_flow", "integrate_with_transport"])
def test_zero_denominator_at_a_single_start(run, monkeypatch, capsys):
    # the point evaluator works on Python floats, so 1/x1 at x1 = 0 raises
    # instead of stepping on inf until the box check fails
    from endochart import cli
    spec = FlowSpec(VectorField((ex.div(ex.const(1.0), ex.var(1)), ex.const(1.0))),
                    RK4, box=Box.cube(2, 1.0))
    with pytest.raises(ZeroDivisionError):
        run(spec)
    monkeypatch.setattr(cli, "_cmd_check", lambda args: run(spec))
    assert cli.main(["check", "unused.json"]) == 1
    assert "zero denominator" in capsys.readouterr().err


def test_non_finite_sample_value(monkeypatch, capsys):
    # fields evaluated at sample sets step on arrays: 1/x1 at the second
    # sample's x1 = 0 is inf, which the batch evaluator names by its subtree
    from endochart import cli
    pole = ex.div(ex.const(1.0), ex.var(1))
    field = CompiledField(VectorField((pole, ex.const(1.0))))
    x = np.array([[0.5, 0.0], [0.0, 0.0]])

    def run(args=None):
        return field.batch_value(x)
    with pytest.raises(ex.EvaluationError) as err:
        run()
    assert err.value.subtree == pole
    assert field.batch_value(x[:, :1]).tolist() == [[2.0], [1.0]]
    monkeypatch.setattr(cli, "_cmd_check", run)
    assert cli.main(["check", "unused.json"]) == 1
    assert "no finite value" in capsys.readouterr().err


class TestNonFiniteSteps:
    """A step point with a NaN coordinate is outside every box."""

    # products overflow to inf on Python floats, and inf - inf is NaN: from
    # (0.5, 0.5), RK4 with step 0.1 steps to (nan, nan)
    FIELD = VectorField((
        ex.sub(ex.mul(ex.const(1e300), ex.var(1), ex.var(1)),
               ex.mul(ex.const(1e300), ex.var(2), ex.var(2))),
        ex.mul(ex.const(1e300), ex.var(1))))
    SPEC = FlowSpec(FIELD, IntegratorSettings(step=0.1), Box.cube(2, 1.0))

    def test_nan_is_outside(self):
        box = Box.cube(2, 1.0)
        assert box.contains([0.5, -1.0])
        assert not box.contains([math.nan, 0.0])
        assert not box.contains(np.array([0.0, math.nan]))
        # the straight flows' line check, inline in the plan step and its
        # slow path alone: a start with a NaN coordinate leaves at its first
        # step point
        spec = FlowSpec(coordinate_field(2, 1), IntegratorSettings(step=0.1),
                        box)
        for x in ([math.nan, 0.0], [0.0, math.nan]):
            for err in (box_exit(lambda: _check_line(box, x, [1.0, 0.0], 3, 0.1)),
                        box_exit(lambda: _point_flow(spec, x, 0.2, 0))):
                assert err.time == 0.1 and not box.contains(list(err.point))

    @pytest.mark.parametrize("run", [
        lambda spec: integrate_flow(spec, (0.5, 0.5), 0.3),
        lambda spec: integrate_with_transport(spec, (0.5, 0.5), 0.3, np.eye(2)),
        lambda spec: integrate_flow(rk4_oracle(spec), (0.5, 0.5), 0.3),
    ], ids=["integrate_flow", "integrate_with_transport", "numpy-rk4"])
    def test_single_start_stepping_to_nan_leaves_the_box(self, run,
                                                         monkeypatch, capsys):
        from endochart import cli
        err = box_exit(lambda: run(self.SPEC))
        assert err.time == 0.3 / 3
        assert len(err.point) == 2 and all(map(math.isnan, err.point))
        monkeypatch.setattr(cli, "_cmd_check", lambda args: run(self.SPEC))
        assert cli.main(["check", "unused.json"]) == 2
        assert capsys.readouterr().err == (
            "error: trajectory left the working box at t = 0.100000\n")

def example35_n3_generator() -> VectorField:
    """example35-n3's stage-0 generator A d/dx3: not straight, with x3^4."""
    from endochart.corpus import build_corpus_field
    from endochart.fields import apply_endo
    A = build_corpus_field("example35-n3")["field"]
    return apply_endo(A, coordinate_field(3, 3))


def reference_transport(field: VectorField, p0, t: float, W0) -> tuple:
    """RK4 of (x, W) with W' = DV(x) W written out on numpy arrays, V and
    DV from the point evaluators, DV W as the elementwise product summed
    over j."""
    V = ex.compile_vector(field.components)
    DV = ex.compile_vector([e for row in field.jacobian_exprs() for e in row])
    d = field.dim

    def rhs(x, W):
        D = np.array(DV(x)).reshape(d, d)
        DW = (D[..., :, :, None] * W[..., None, :, :]).sum(-2)
        return np.array(V(x)), DW

    n = max(1, math.ceil(abs(t) / RK4.step))
    h = t / n
    x, W = np.array(p0, dtype=float), np.array(W0, dtype=float)
    for _ in range(n):
        k1, K1 = rhs(x, W)
        k2, K2 = rhs(x + 0.5 * h * k1, W + 0.5 * h * K1)
        k3, K3 = rhs(x + 0.5 * h * k2, W + 0.5 * h * K2)
        k4, K4 = rhs(x + h * k3, W + h * K3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        W = W + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return x, W


class TestOneProductRule:
    """A symbolic transport is RK4 of (x, W) with DV W summed in j order."""

    FIELDS = {"example35-n3": example35_n3_generator,
              "block": lambda: BLOCK_FIELD}

    @pytest.mark.parametrize("t", [0.37, -0.21])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_single_start_equals_the_numpy_reference(self, name, m, t):
        field = self.FIELDS[name]()
        spec = FlowSpec(field, RK4)
        assert not spec.generator.straight
        rng = np.random.default_rng(17)
        for _ in range(4):
            p0 = rng.uniform(-0.4, 0.4, 3)
            W0 = rng.normal(size=(3, m))
            x, W = integrate_with_transport(spec, p0, t, W0)
            xr, Wr = reference_transport(field, p0, t, W0)
            assert x.tobytes() == xr.tobytes()
            assert W.tobytes() == Wr.tobytes()
            assert integrate_flow(spec, p0, t).tobytes() == xr.tobytes()

    @pytest.mark.parametrize("name", sorted(FIELDS) + ["straight"])
    def test_frame_columns_transport_alone(self, name):
        field = STRAIGHT_FIELD if name == "straight" else self.FIELDS[name]()
        spec = FlowSpec(field, RK4)
        d = field.dim
        rng = np.random.default_rng(19)
        P = rng.uniform(-0.4, 0.4, (d, 5))
        W0 = rng.normal(size=(5, d, 3))
        t = np.array([0.37, -0.21, 0.0, 0.05, 0.37])
        for n in range(5):
            x, W = integrate_with_transport(spec, P[:, n], float(t[n]), W0[n])
            cols = [integrate_with_transport(spec, P[:, n], float(t[n]),
                                             W0[n][:, c:c + 1])
                    for c in range(3)]
            assert all(xc.tobytes() == x.tobytes() for xc, _ in cols)
            assert np.hstack([Wc for _, Wc in cols]).tobytes() == W.tobytes()


def rk4_lines_per_stage(exprs: tuple, box: Box | None) -> list:
    """`flows._rk4_lines` as it was, with one `_emit` per later RK4 stage:
    the reference its single `_emit` of stages b, c and the last must
    match."""
    entries = range(len(exprs))
    read = set().union(*map(ex.variables, exprs))
    fixed = {i for i, e in enumerate(exprs)
             if type(e) is ex.Const and e.value == 0.0}
    moved = [i for i in entries if i not in fixed]
    later = [f"y{i}" if i in fixed else f"z{i}" for i in entries]
    hoisted, lines, v = ex._emit(exprs, "y{}", fixed)
    first = flows._slopes(exprs, v, "a", lines)
    peel = any(i + 1 in read for i in fixed)
    pre = ["h2 = 0.5 * h", "h6 = h / 6.0"]
    if peel:
        pre += [*hoisted, *lines]
    pre += [*(f"y{i} = y{i} + h * {exprs[i].value!r}" for i in sorted(fixed)),
            *hoisted]
    step = ["if k:", *("    " + line for line in lines)] if peel else [*lines]
    stages = [first]
    for out, scale in [("b", "h2"), ("c", "h2"), (None, "h")]:
        step += [f"z{i} = y{i} + {scale} * {stages[-1][i]}" for i in moved
                 if i + 1 in read]
        _, lines, v = ex._emit(exprs, later, fixed)
        step += lines
        stages.append(v if out is None else flows._slopes(exprs, v, out, step))
    step += [f"y{i} = y{i} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {e})"
             for i, (a, b, c, e) in enumerate(zip(*stages)) if i not in fixed]
    if box is not None:
        mid, half = box.mid_half
        inside = " and ".join(f"abs(y{i} - {c!r}) <= {r!r}"
                              for i, (c, r) in enumerate(zip(mid, half)))
        point = ", ".join(f"y{i}" for i in range(box.dim))
        step += [f"if not ({inside}):", f"    raise _exit((k + 1) * h, [{point}])"]
    return [*pre, "for k in range(n):", *("    " + line for line in step)]


def corpus_flows(name: str) -> tuple:
    """(box, flows) of a corpus field: the pipeline's flow generators
    A^p Z_i^(0), p >= 1, and the working box; a field with no adapted
    chart has no pipeline, so there the fields A d/dx_j of every axis and
    the field's box."""
    data = build_corpus_field(name)
    if data["chart"] is None:
        A = data["field"]
        return data["box"], [CompiledField(apply_endo(A, coordinate_field(
            A.dim, j + 1))) for j in range(A.dim)]
    pipe = initial_frame(data["field"], data["chart"], check=False).pipeline
    return pipe.working_box, [pipe.generator(a, i, 0)
                              for a, i in pipe.slots if a >= 1]


def step_source(monkeypatch, trees, box, layout) -> list:
    """The body lines of the RK4 plan step `_compile_step` generates."""
    bodies, define = [], flows._define
    with monkeypatch.context() as patch:
        patch.setattr(flows, "_define", lambda body, *args: (
            bodies.append(body) or define(body, *args)))
        flows._compile_step(trees, False, box, 1e-2, layout)
    return bodies[0]


@pytest.mark.parametrize("name", list(CORPUS))
def test_rk4_lines_emit_the_later_stages_once(name, monkeypatch):
    # every flow of every corpus field, as RK4 (straight ones too), at frame
    # widths 0-2, with and without a time-column layout: the source is the
    # per-stage reference's
    box, gens = corpus_flows(name)
    assert gens
    for gen in gens:
        d = gen.dim
        for m in range(3):
            trees = tuple(gen._trees(m))
            assert flows._rk4_lines(trees, box) == rk4_lines_per_stage(
                trees, box)
            layout = (*range(d), *(d + i * m + c if c < m else d + d * m + i
                                   for i in range(d) for c in range(m + 1)))
            for lay in (None, layout):
                got = step_source(monkeypatch, trees, box, lay)
                with monkeypatch.context() as patch:
                    patch.setattr(flows, "_rk4_lines", rk4_lines_per_stage)
                    assert step_source(monkeypatch, trees, box, lay) == got
