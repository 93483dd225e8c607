import math

import numpy as np
import pytest

from endochart import expr as ex
from endochart.expr import Box
from endochart.fields import VectorField, coordinate_field, lie_bracket
from endochart.flows import (BoxExitError, CompiledField,
                             ComputedVectorField, FlowSpec,
                             IntegratorSettings, integrate_flow,
                             integrate_with_transport, numeric_bracket,
                             transport_block)

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

    def test_box_check_tests_the_generators_point(self):
        # a flow in other coordinates: the box check tests point(y) = 2 y
        class Doubled:
            symbolic = False

            def value(self, y):
                return np.ones(1)

            def point(self, y):
                return 2.0 * y

        spec = FlowSpec(Doubled(), RK4, box=Box.cube(1, 1.0))
        assert integrate_flow(spec, (0.0,), 0.45)[0] == pytest.approx(0.45)
        with pytest.raises(BoxExitError) as err:
            integrate_flow(spec, (0.0,), 0.6)
        assert 0.49 <= err.value.time <= 0.52
        assert 1.0 < err.value.point[0] <= 1.04

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


# sums, products and quotients round identically on the point and the batch
# evaluators, so block and single-start transports agree bit for bit
BLOCK_FIELD = VectorField((
    ex.add(ex.mul(ex.const(0.3), ex.var(2), ex.var(3)), ex.const(0.2)),
    ex.sub(ex.mul(ex.const(-0.4), ex.var(1), ex.var(1)), ex.var(3)),
    ex.div(ex.mul(ex.var(1), ex.var(2)), ex.add(ex.const(2.0), ex.var(3)))))


def block_starts(count: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, (3, count)), rng.normal(size=(count, 3, 2))


def assert_block_equals_single_starts(spec, P, t, W0):
    xs, Ws = transport_block(spec, P, t, W0)
    assert xs.shape == P.shape and Ws.shape == W0.shape
    for n in range(P.shape[1]):
        x, W = integrate_with_transport(spec, P[:, n], float(t[n]), W0[n])
        assert x.tobytes() == xs[:, n].tobytes()
        assert W.tobytes() == Ws[n].tobytes()


class TestBlockTransport:
    @pytest.mark.parametrize("t", [0.37, -0.21, 0.0])
    def test_block_equals_single_starts(self, t):
        spec = FlowSpec(BLOCK_FIELD, RK4)
        P, W0 = block_starts(9)
        assert_block_equals_single_starts(spec, P, np.full(9, t), W0)

    @pytest.mark.parametrize("field", [BLOCK_FIELD, "straight"])
    def test_mixed_times_equal_single_starts(self, field):
        # each column takes its own step count and step; t = 0 columns and
        # columns whose steps are done are left as they are
        field = STRAIGHT_FIELD if field == "straight" else field
        spec = FlowSpec(field, RK4, box=Box.cube(field.dim, 2.0))
        rng = np.random.default_rng(3)
        P = rng.uniform(-0.5, 0.5, (field.dim, 8))
        W0 = rng.normal(size=(8, field.dim, 2))
        t = np.array([0.37, 0.0, -0.21, 0.004, 0.0, 0.37, -0.6, 0.1])
        assert_block_equals_single_starts(spec, P, t, W0)
        xs, Ws = transport_block(spec, P, t, W0)
        assert xs[:, 1].tobytes() == P[:, 1].tobytes()
        assert Ws[4].tobytes() == W0[4].tobytes()

    def test_mixed_times_box_exit_is_a_single_starts(self):
        # start 0 leaves at step 25 of 40, start 1 at step 5 of 100; start
        # 2 is outside the box but has t = 0, so nothing checks it
        spec = FlowSpec(BLOCK_FIELD, RK4, box=Box.cube(3, 0.6))
        P = np.array([[0.55, 0.59, 0.9], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        W0 = np.repeat(np.eye(3)[None], 3, axis=0)
        t = np.array([0.4, 1.0, 0.0])
        single = [box_exit(lambda n=n: integrate_with_transport(
            spec, P[:, n], float(t[n]), W0[n])) for n in range(2)]
        got = box_exit(lambda: transport_block(spec, P, t, W0))
        assert single[0].time > single[1].time
        assert (got.time, got.point) == (single[1].time, single[1].point)
        got = box_exit(lambda: transport_block(spec, P[:, [0, 2]], t[[0, 2]],
                                               W0[:2]))
        assert (got.time, got.point) == (single[0].time, single[0].point)

    def test_column_independent_of_batch_mates(self):
        spec = FlowSpec(BLOCK_FIELD, RK4)
        P, W0 = block_starts(9)
        t = np.full(9, 0.37)
        xs, Ws = transport_block(spec, P, t, W0)
        perm = np.random.default_rng(11).permutation(9)
        xp, Wp = transport_block(spec, P[:, perm], t, W0[perm])
        assert xp.tobytes() == np.ascontiguousarray(xs[:, perm]).tobytes()
        assert Wp.tobytes() == Ws[perm].tobytes()
        xh, Wh = transport_block(spec, P[:, 4:], t[4:], W0[4:])
        assert xh.tobytes() == np.ascontiguousarray(xs[:, 4:]).tobytes()
        assert Wh.tobytes() == Ws[4:].tobytes()

    def test_box_exit_names_first_start_of_earliest_step(self):
        # starts 1 and 3 leave at the same, earliest step; start 0 later
        spec = FlowSpec(coordinate_field(2, 1), RK4, box=Box.cube(2, 1.0))
        P = np.array([[0.5, 0.8, -0.5, 0.8], [0.1, 0.2, 0.3, -0.4]])
        W0 = np.repeat(np.eye(2)[None], 4, axis=0)
        with pytest.raises(BoxExitError) as block:
            transport_block(spec, P, np.full(4, 1.0), W0)
        with pytest.raises(BoxExitError) as single:
            integrate_with_transport(spec, P[:, 1], 1.0, W0[1])
        assert block.value.time == single.value.time
        assert block.value.point == single.value.point
        assert block.value.point[1] == 0.2


class TestGroupLawAndDeterminism:
    def test_group_law(self):
        V = VectorField((ex.add(ex.mul(ex.const(0.3), ex.var(2)), ex.const(0.2)),
                         ex.mul(ex.const(-0.4), ex.mul(ex.var(1), ex.var(1)))))
        spec = FlowSpec(V, RK4)
        p0 = (0.1, 0.2)
        t, s = 0.23, 0.41
        a = integrate_flow(spec, p0, t + s)
        b = integrate_flow(spec, integrate_flow(spec, p0, s), t)
        assert np.max(np.abs(a - b)) <= 10 * RK4.accuracy()

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


# reads only x3, x4 and x5, which it does not move; sums, products and
# quotients, so the point and the batch evaluators round alike
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

    def test_block_box_exit_names_first_start_of_earliest_step(self):
        # start 2 is outside and re-enters: it fails at the first step
        # time, before start 0 leaves; start 1 stays inside
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        P = np.array([[0.5, 0.0, -1.3, 0.9],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.2, 0.1, 0.5, 0.5],
                      [0.1, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0]])
        W0 = np.repeat(np.eye(5)[None], 4, axis=0)
        got = box_exit(lambda: transport_block(spec, P, np.full(4, 3.0), W0))
        expect = box_exit(lambda: integrate_flow(rk4_oracle(spec), P[:, 2], 3.0))
        assert got.time == expect.time
        assert np.max(np.abs(np.subtract(got.point, expect.point))) <= 1e-12
        # without start 2, start 3 leaves first
        got = box_exit(lambda: transport_block(spec, P[:, [0, 1, 3]],
                                               np.full(3, 3.0), W0[:3]))
        expect = box_exit(lambda: integrate_flow(rk4_oracle(spec), P[:, 3], 3.0))
        assert got.time == expect.time
        assert np.max(np.abs(np.subtract(got.point, expect.point))) <= 1e-12

    def test_mixed_times_box_exit_checks_only_each_columns_steps(self):
        # start 1 would leave after 25 steps of its size, but it takes 20:
        # the error is start 0's, which leaves at step 243 of 300
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        P = np.array([[0.5, 0.95], [0.0, 0.0], [0.2, 0.0], [0.1, 0.0],
                      [0.0, 0.0]])
        W0 = np.repeat(np.eye(5)[None], 2, axis=0)
        t = np.array([3.0, 0.2])
        integrate_with_transport(spec, P[:, 1], 0.2, W0[1])
        got = box_exit(lambda: transport_block(spec, P, t, W0))
        expect = box_exit(lambda: integrate_with_transport(spec, P[:, 0], 3.0,
                                                           W0[0]))
        assert (got.time, got.point) == (expect.time, expect.point)

    @pytest.mark.parametrize("t", [0.37, -0.21])
    @pytest.mark.parametrize("m", [1, 3])
    def test_block_equals_single_starts(self, t, m):
        spec = FlowSpec(STRAIGHT_FIELD, RK4, box=Box.cube(5, 1.0))
        rng = np.random.default_rng(13)
        P = rng.uniform(-0.5, 0.5, (5, 9))
        W0 = rng.normal(size=(9, 5, m))
        assert_block_equals_single_starts(spec, P, np.full(9, t), W0)

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
    def test_matches_a_one_column_block(self, t, step):
        spec = FlowSpec(self.FIELD, RK4, box=Box.cube(2, 1.0))
        outcomes = {}
        for kind, x in self.starts(spec, t, step).items():
            block = flow_outcome(lambda: transport_block(
                spec, x[:, None], np.array([t]), np.eye(2)[None]))
            for run in (lambda: integrate_flow(spec, x, t),
                        lambda: integrate_with_transport(spec, x, t, np.eye(2))):
                assert flow_outcome(run) == block, kind
            outcomes[kind] = block
        # the last step point decides alone; a first one on or inside the
        # face leaves the last one outside, a first one outside fails there
        kinds = {kind: got[0] for kind, got in outcomes.items()}
        if step == "last":
            assert kinds == {"on": "inside", "out": "exit", "in": "inside"}
        else:
            assert set(kinds.values()) == {"exit"}
            assert outcomes["out"][1] == t / 50
            assert abs(outcomes["on"][1]) > abs(t) / 50


def test_zero_denominator_at_a_single_start(monkeypatch, capsys):
    # the point evaluator works on Python floats, so 1/x1 at x1 = 0 raises
    # instead of stepping on inf until the box check fails
    from endochart import cli
    spec = FlowSpec(VectorField((ex.div(ex.const(1.0), ex.var(1)), ex.const(1.0))),
                    RK4, box=Box.cube(2, 1.0))
    with pytest.raises(ZeroDivisionError):
        integrate_flow(spec, (0.0, 0.0), 0.5)
    monkeypatch.setattr(cli, "_cmd_selftest",
                        lambda args: integrate_flow(spec, (0.0, 0.0), 0.5))
    assert cli.main(["selftest"]) == 1
    assert "zero denominator" in capsys.readouterr().err
