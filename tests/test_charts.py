import collections
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from endochart import expr as ex
from endochart import charts, flows
from endochart.charts import (AdaptedChart, AdaptedChartError, ChartMap,
                              FrameState, InductionError, PipelineSettings,
                              Section, basis_slots, build_chart,
                              hk_residuals, induction_step,
                              initial_frame, jordan_matrix, jordanize,
                              validate_adapted_chart, verify_integral_chart)
from endochart.corpus import (Example35Spec, build_corpus_field,
                              conjugated_constant, constant_jordan,
                              example35_field, example38_chart,
                              example38_field)
from endochart.expr import Box
from endochart.fields import EndoField
from endochart.flows import (BoxExitError, ComputedVectorField, FlowSpec,
                             IntegratorSettings, integrate_flow,
                             numeric_bracket)

FAST = PipelineSettings(integrator=IntegratorSettings(step=2e-2))
# the inputs of the jordanize-n2 benchmark workload
JORDANIZE_N2 = ("example35-n2", "constant-jordan", "conjugated-n2",
                "conjugated-n2-d4")


class TestJordanMatrix:
    def test_spec_example_1_1(self):
        # basis (A Z_2, Z_1, Z_2): only entry M[1, 3] = 1 (1-based)
        M = jordan_matrix((1, 1))
        expect = np.zeros((3, 3))
        expect[0, 2] = 1.0
        assert np.array_equal(M, expect)

    def test_zero_for_trivial(self):
        assert np.array_equal(jordan_matrix((4,)), np.zeros((4, 4)))

    def test_cyclic_block(self):
        M = jordan_matrix((0, 0, 1))
        expect = np.zeros((3, 3))
        expect[0, 1] = 1.0
        expect[1, 2] = 1.0
        assert np.array_equal(M, expect)

    def test_slots_order(self):
        slots = basis_slots((1, 1))
        assert slots == [(1, 1), (0, 0), (0, 1)]

    def test_n2_display(self):
        # multiplicities (d_1, d_2) = (1, 2): basis (AZ_1', AZ_2', Z_0, Z_1', Z_2')
        M = jordan_matrix((1, 2))
        assert M.shape == (5, 5)
        assert M[0, 3] == 1.0 and M[1, 4] == 1.0
        assert np.sum(M) == 2.0

    def test_eigenvalue_shift(self):
        M = jordan_matrix((1, 1), eigenvalue=2.5)
        assert np.allclose(np.diag(M), 2.5)


class TestValidateAdaptedChart:
    def test_example35_natural_groups_pass(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        rep = validate_adapted_chart(A, chart, samples=30, seed=1)
        assert rep.passed

    def test_permuted_groups_fail(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        bad = AdaptedChart(3, {(1, 1): (2,), (2, 2): (1,), (3, 3): (0,)},
                           chart.box)
        rep = validate_adapted_chart(A, bad, samples=30, seed=1)
        assert not rep.passed
        assert rep.witness is not None

    def test_constant_jordan_passes(self):
        A, chart = constant_jordan((1, 1))
        rep = validate_adapted_chart(A, chart, samples=30, seed=1)
        assert rep.passed

    @staticmethod
    def per_point_reference(A, chart, samples, seed, tol=1e-7):
        """The check one point and one axis at a time (the oracle)."""
        n, d = chart.index, A.dim
        scale = max(1.0, A.entry_scale(chart.box, seed=seed))
        pts = ex.sample_box(chart.box, samples, seed, include_corners=False)
        worst_k, worst_im, witness = 0.0, 0.0, None
        for p in range(1, n + 1):
            for q in range(1, p + 1):
                axes = sorted(ax for (i, j), g in chart.groups.items()
                              if i <= p and j <= q for ax in g)
                for pt in pts:
                    M = A.evaluator()(pt)
                    U, s, _ = np.linalg.svd(np.linalg.matrix_power(M, n - p))
                    Q = U[:, :int(np.sum(s > 1e-10 * max(1.0, s[0]) * d))]
                    for ax in axes:
                        e = np.eye(d)[ax]
                        rk = np.linalg.norm(np.linalg.matrix_power(M, q) @ e)
                        rk /= scale ** q
                        rim = np.linalg.norm(e - Q @ (Q.T @ e))
                        if rk > worst_k:
                            worst_k = rk
                            if rk > tol:
                                witness = (p, q, ax, tuple(pt))
                        if rim > worst_im:
                            worst_im = rim
                            if rim > tol:
                                witness = (p, q, ax, tuple(pt))
        return worst_k, worst_im, witness

    @pytest.mark.parametrize("name", ["example35-n3", "example35-n3-xn",
                                      "conjugated-n2-d4"])
    def test_block_check_matches_per_point_reference(self, name):
        # every grouping of the chart's axes, adapted or not: same verdict
        # and witness, residuals equal up to the order of roundings
        data = build_corpus_field(name)
        chart = data["chart"]
        keys = sorted(chart.groups)
        for perm in itertools.permutations(keys):
            moved = AdaptedChart(chart.dim, {k: chart.groups[g] for k, g
                                             in zip(keys, perm)}, chart.box)
            try:
                rep = validate_adapted_chart(data["field"], moved,
                                             samples=12, seed=3)
            except AdaptedChartError:       # group sizes do not fit
                continue
            worst_k, worst_im, witness = self.per_point_reference(
                data["field"], moved, 12, 3)
            assert rep.witness == witness
            assert rep.passed == (witness is None)
            assert rep.max_kernel_residual == pytest.approx(worst_k,
                                                            rel=1e-14,
                                                            abs=1e-14)
            assert rep.max_image_residual == pytest.approx(worst_im,
                                                           rel=1e-14,
                                                           abs=1e-14)


class TestConstantJordanPipeline:
    def test_identity_chart(self):
        A, chart = constant_jordan((1, 1))
        result = jordanize(A, chart, FAST, grid=3)
        assert result.verification.max_deviation <= 1e-9
        # forward map is the identity: slot axes carry their own coordinates
        y = np.array([0.11, -0.07, 0.2])
        assert np.allclose(result.chart.forward(y), y, atol=1e-9)

    def test_fixed_point_of_induction(self):
        A, chart = constant_jordan((1, 1))
        state = initial_frame(A, chart, FAST)
        state1 = induction_step(state)
        q = (0.2, 0.1, -0.1)
        for i, z in enumerate(section_fields(state1)):
            e = np.zeros(3)
            e[chart.section_axes()[i]] = 1.0
            assert np.max(np.abs(z.value(q) - e)) <= 1e-9

    def test_coords_roundtrip(self):
        A, chart = constant_jordan((0, 0, 1))
        result = jordanize(A, chart, FAST, grid=3)
        y = np.array([0.15, -0.1, 0.05])
        p = result.chart.forward(y)
        back = result.chart.coords(p)
        assert np.max(np.abs(back - y)) <= 1e-9


class TestNegativePath:
    def test_example38_fails_h0(self):
        box = Box.cube(4, 1.0)
        A = example38_field()
        chart = example38_chart(box)
        with pytest.raises(InductionError) as err:
            initial_frame(A, chart, FAST)
        report = err.value.report
        worst = report.worst()
        assert worst.clause in ("4", "5")
        assert worst.witness is not None
        assert worst.max_residual > 0.1

    def test_example38_adapted_chart_itself_valid(self):
        # the grouping is fine; the failure is the induction hypothesis
        box = Box.cube(4, 1.0)
        rep = validate_adapted_chart(example38_field(), example38_chart(box),
                                     samples=30, seed=2)
        assert rep.passed


class TestConjugatedPipeline:
    def test_n2_d3_quadratic_shear(self):
        oracle = conjugated_constant(seed=20260811, d=3, multiplicities=(1, 1),
                                     shear_degree=2)
        result = jordanize(oracle.field, oracle.chart, FAST, grid=4)
        assert result.verification.max_deviation <= 1e-5
        assert result.verification.max_bracket <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_n3_fields(self, seed, monkeypatch):
        # the final chart flows the computed generator A Z^(1).  The shears
        # hold integer powers, yet every block the stage checks and the
        # verification read equals its columns' single points bit for bit
        oracle = conjugated_constant(seed=seed, d=3, multiplicities=(0, 0, 1))
        result, blocks = jordanize_recording_blocks(monkeypatch, oracle.field,
                                                    oracle.chart)
        assert [g.symbolic for g in result.chart._chart.generators] == [
            True, False]
        assert all(rep.passed for rep in result.stage_reports)
        assert result.verification.passed
        assert any(y.shape[1] == 5 ** 3 for _, y, _, _ in blocks)
        assert_blocks_are_their_columns(blocks)
        # one point plan per frame width serves forward and
        # forward_with_frame, and coords inverts forward
        chart = result.chart
        for y in latin_hypercube(chart.chart_ranges(), 8, seed=seed + 40):
            q = chart.forward(y)
            assert q.tobytes() == chart.forward_with_frame(y)[0].tobytes()
            assert np.max(np.abs(chart.coords(q) - y)) <= 1e-8

    def test_chart_matches_known_inverse_up_to_section_choice(self):
        # with quotient slots unsheared, the two charts differ only by the
        # section mismatch: ŷ(Φ(y)) = y - (g_1(y_2, y_3), 0, 0)
        oracle = conjugated_constant(seed=20260811, d=3, multiplicities=(1, 1),
                                     shear_degree=2)
        result = jordanize(oracle.field, oracle.chart, FAST, grid=3)
        known = oracle.known_chart_evaluator()
        g1 = ex.compile_expr(oracle.shear[0])
        rng = np.random.default_rng(5)
        for y in rng.uniform(-0.2, 0.2, size=(10, 3)):
            p = result.chart.forward(y)
            w = known(p)
            expect = y.copy()
            expect[0] -= g1((0.0, y[1], y[2]))
            assert np.max(np.abs(w - expect)) <= 1e-6

    def test_flow_order_independence(self):
        oracle = conjugated_constant(seed=4, d=4, multiplicities=(0, 2),
                                     shear_degree=2)
        r1 = jordanize(oracle.field, oracle.chart, FAST, grid=3)
        asc = PipelineSettings(integrator=FAST.integrator, flow_order="asc")
        r2 = jordanize(oracle.field, oracle.chart, asc, grid=3)
        dev = compare_charts(r1.chart, r2.chart, samples=50, seed=6)
        assert dev <= 1e-5


class TestExample35Pipeline:
    def test_n2_theta(self):
        spec = Example35Spec.from_theta(2, box=Box.cube(2, 0.4))
        A, chart = example35_field(spec)
        result = jordanize(A, chart, FAST, grid=4)
        assert result.verification.max_deviation <= 1e-5

    def test_n3_theta_smoke(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        result = jordanize(A, chart, FAST, grid=3)
        assert result.verification.max_deviation <= 1e-4
        # stage-1 clause-4 residual is reported
        stage1 = result.stage_reports[1]
        assert stage1.clause("4").max_residual <= 1e-5


def n3_strong_data() -> dict:
    """Strongly nonlinear n = 3 instance (theta = t^2 on a wider box)."""
    spec = Example35Spec.from_theta(3, r=1, box=Box.cube(3, 0.5))
    A, chart = example35_field(spec)
    return {"spec": spec, "field": A, "chart": chart}


def jordanize_recording_blocks(monkeypatch, A, chart) -> tuple:
    """`jordanize(A, chart)` and (stage chart, y, x, D) of every
    block y that `forward_differential` answered with (x, D) in it: the
    stage checks' and the verification's samples, and the grid."""
    blocks = []
    original = charts._StageChart.forward_differential

    def recording(self, y):
        x, D = original(self, y)
        if np.ndim(y) == 2:
            blocks.append((self, np.array(y), x, D))
        return x, D
    monkeypatch.setattr(charts._StageChart, "forward_differential", recording)
    result = jordanize(A, chart)
    monkeypatch.setattr(charts._StageChart, "forward_differential", original)
    return result, blocks


def assert_blocks_are_their_columns(blocks):
    """Each column of each block answers as its single point, bit for bit."""
    for stage, y, x, D in blocks:
        assert x.shape == y.shape
        for c in range(y.shape[1]):
            xc, Dc = stage.forward_differential(y[:, c])
            assert xc.tobytes() == x[:, c].tobytes()
            assert Dc.tobytes() == D[c].tobytes()


@pytest.fixture(scope="module")
def n3_strong():
    data = n3_strong_data()
    result = jordanize(data["field"], data["chart"], FAST, grid=3)
    return data["spec"], data["field"], result


class TestPipelineInvariants:
    def test_frame_matches_transported_fields(self, n3_strong):
        # chart differential columns = evaluations of the final basis fields
        _, _, result = n3_strong
        chart = result.chart
        for y in chart.sample_coords(5, seed=9):
            p, frame = chart.forward_with_frame(y)
            for col, slot in enumerate(chart.slots):
                v = frame_field(chart, slot).value(p)
                assert np.max(np.abs(frame[:, col] - v)) <= 1e-5

    def test_inverse_roundtrip(self, n3_strong):
        _, _, result = n3_strong
        chart = result.chart
        rng = np.random.default_rng(17)
        for p in rng.uniform(-0.2, 0.2, size=(5, 3)):
            y = chart.coords(p)
            back = chart.forward(y)
            assert np.max(np.abs(back - p)) <= 1e-6

    def test_monotone_commutator_depth(self, n3_strong):
        # raw bracket norms of the image slots shrink stage by stage and
        # vanish (to tolerance) at the final stage
        from endochart.flows import numeric_bracket
        spec, A, result = n3_strong
        pipe = result.chart.pipeline
        pts = [np.array([0.1, -0.12, 0.3]), np.array([-0.15, 0.1, 0.35])]
        norms = []
        for k in range(pipe.n):
            fields = [pipe.generator(a, i, k) for (a, i) in pipe.slots]
            worst = 0.0
            for u in range(len(fields)):
                for v in range(u + 1, len(fields)):
                    for p in pts:
                        b = numeric_bracket(fields[u], fields[v], p, h=2e-3)
                        worst = max(worst, float(np.max(np.abs(b))))
            norms.append(worst)
        assert norms[-1] <= 1e-5
        for a, b in zip(norms, norms[1:]):
            assert b <= a * 1.2 + 1e-9
        # the induction is doing real work: stage 0 brackets are visible
        assert norms[0] > 1e-4

    def test_trivial_field_identity_chart(self):
        # A = 0 short-circuits to the identity chart (no flows at all)
        A, chart = constant_jordan((3,))
        result = jordanize(A, chart, FAST, grid=3)
        assert result.chart.n_flows == 0
        y = np.array([0.2, -0.1, 0.05])
        assert np.allclose(result.chart.forward(y), y)
        assert result.verification.max_deviation == 0.0

    def test_example35_n3_cube_annihilates(self):
        from endochart.fields import endo_power
        from endochart.expr import is_zero_on_box
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        A3 = endo_power(A, 3)
        for row in A3.entries:
            for e in row:
                assert is_zero_on_box(e, spec.box, samples=40, tol=1e-13,
                                      seed=3).passed


class TestSectionAndState:
    def test_section_embed_project(self):
        A, chart = constant_jordan((1, 1))
        s = Section.for_chart(chart)
        x = s.embed((0.3, -0.2))
        assert x[0] == 0.0
        assert np.allclose(s.project(x), (0.3, -0.2))

    def test_initial_frame_fields(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        state = initial_frame(A, chart, FAST)
        assert state.k == 0
        assert state.pipeline.orders == [3]
        assert len(section_fields(state)) == 1

    def test_hk_report_structure(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        state = initial_frame(A, chart, FAST)
        rep = hk_residuals(state)
        assert rep.passed
        assert {c.clause for c in rep.clauses} == {"1", "2", "3", "4", "5"}


class TestOneCheckPerStage:
    def test_jordanize_checks_each_stage_once(self, monkeypatch):
        calls = []
        original = charts.hk_residuals

        def recording(state, *args, **kwargs):
            calls.append(state.k)
            return original(state, *args, **kwargs)
        monkeypatch.setattr(charts, "hk_residuals", recording)
        data = build_corpus_field("example35-n2")
        jordanize(data["field"], data["chart"])
        assert calls == [0, 1]

    @pytest.mark.parametrize("name", ["example35-n2", "example35-n3",
                                      "example35-n3-xn"])
    def test_jordanize_compiles_each_expression_list_once(self, name,
                                                          monkeypatch):
        # every symbolic field of the pipeline is one `CompiledField`, by
        # value, which compiles each frame width once for points and each
        # plan step once per (width, box, integrator step, layout); every
        # binding of `compile_batch` (`charts`, `flows`, and `expr`'s own,
        # which `fields` and `structure` call) gives an equal list the one
        # function compiled for it in this `jordanize`: no stage, no clause
        # and no check compiles a list again
        asked, steps, points = [], [], []
        batch = ex.compile_batch

        def recording(exprs, via):
            f = batch(exprs)
            asked.append((via, tuple(exprs), f))
            return f
        for module in (ex, flows, charts):
            monkeypatch.setattr(module, "compile_batch", lambda exprs, via=(
                module.__name__): recording(exprs, via))
        step, vector = flows._compile_step, flows.compile_vector
        monkeypatch.setattr(flows, "_compile_step", lambda exprs, *args: (
            steps.append((tuple(exprs), *args)) or step(exprs, *args)))
        monkeypatch.setattr(flows, "compile_vector", lambda exprs: (
            points.append(tuple(exprs)) or vector(exprs)))
        data = build_corpus_field(name)
        pipe = jordanize(data["field"], data["chart"]).chart.pipeline
        assert steps and len(set(steps)) == len(steps)
        assert len(set(points)) == len(points)
        functions = {(exprs, f) for _, exprs, f in asked}
        assert len(functions) == len({exprs for exprs, _ in functions})
        # A's batch evaluator: the validation (twice), the stage checks'
        # A^1 and the verification grid read one compile
        A = tuple(e for row in data["field"].entries for e in row)
        assert len([via for via, exprs, _ in asked if exprs == A]) >= 3
        # flows never take the batch path: it compiles V's components alone
        components = {gen.field.components for gen in pipe._compiled.values()}
        assert {exprs for via, exprs, _ in asked
                if via == flows.__name__} <= components
        # example35-n2's flow and example35-n3's stage-0 flow along A d/dx3
        # are not straight, so chart points take their RK4 loops; every
        # flow of example35-n3-xn is straight
        assert any(not straight for _, straight, *_ in steps) == (
            name != "example35-n3-xn")

    def test_point_plans_compile_once(self, monkeypatch):
        # a stage chart plans its single-point composition once per frame
        # width: after a first differential and forward, further points
        # compile nothing, and the RK4 steps are those of the one stage-0
        # flow that is not straight, at widths 0 and 1, in the working box
        data = build_corpus_field("example35-n3")
        chart = jordanize(data["field"], data["chart"]).chart
        pipe = chart.pipeline
        stage0 = pipe.stage_chart(0)
        N = stage0.n_flows

        def query(y):
            stage0.forward_differential(y)
            stage0.forward(y[N:], y[:N])
            chart.coords(chart.forward_with_frame(y)[0])
        ys = latin_hypercube(chart.chart_ranges(), 6, seed=9)
        query(ys[0])
        compiled = []
        for module in (flows, ex):
            for fn in ("compile_expr", "compile_vector", "compile_batch",
                       "_compile_step", "_define"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, lambda *args, fn=fn, f=(
                        getattr(module, fn)): compiled.append(fn) or f(*args))
        for y in ys[1:]:
            query(y)
        assert compiled == []
        loops = {(m, box, step) for gen in pipe._compiled.values()
                 if not gen.straight for m, box, step, _ in gen._plan_steps}
        assert loops == {(0, pipe.working_box, 1e-2), (1, pipe.working_box, 1e-2)}

    def test_jordanize_builds_each_frame_once(self, monkeypatch):
        # clause 2 of stages 0 and 1 reads the kernel frames of A and A^2,
        # clauses 4 and 5 the image frames of A and A^2 (A^2's twice): each
        # is built once per pipeline
        built = []
        for name in ("nullspace_frame", "column_frame"):
            monkeypatch.setattr(charts, name, lambda M, box, provenance, *args,
                                f=getattr(charts, name), **kwargs: (
                                    built.append(provenance)
                                    or f(M, box, provenance, *args, **kwargs)))
        data = build_corpus_field("example35-n3")
        jordanize(data["field"], data["chart"])
        assert sorted(built) == ["Im A^1", "Im A^2", "ker A^1", "ker A^2"]

    def test_jordanize_builds_each_power_once(self, monkeypatch):
        # one ladder A^p = A^(p-1) A, p = 1 .. n, which the frames read
        products = []
        matmul = EndoField.matmul
        monkeypatch.setattr(EndoField, "matmul", lambda self, other: (
            products.append(other) or matmul(self, other)))
        data = build_corpus_field("example35-n3")
        jordanize(data["field"], data["chart"])
        assert len(products) == data["chart"].index == 3

    @pytest.mark.parametrize("name", JORDANIZE_N2)
    def test_n2_pipeline_compiles_no_point_power(self, name, monkeypatch):
        # every flow at n = 2 is symbolic, so nothing reads A^p at a point
        compiled = []
        evaluator = EndoField.evaluator
        monkeypatch.setattr(EndoField, "evaluator", lambda self: (
            compiled.append(self) or evaluator(self)))
        data = build_corpus_field(name)
        jordanize(data["field"], data["chart"])
        assert compiled == []

    def test_stage0_generators_are_kept(self):
        data = build_corpus_field("example35-n3")
        pipe = initial_frame(data["field"], data["chart"], check=False).pipeline
        for a, i in pipe.slots:
            assert pipe.generator(a, i, 0) is pipe.generator(a, i, 0)

    def test_initial_frame_message(self):
        box = Box.cube(4, 1.0)
        with pytest.raises(InductionError, match="initial frame violates clause"):
            jordanize(example38_field(), example38_chart(box), FAST)


class TestOneFramePath:
    @pytest.mark.parametrize("name", ["constant-jordan", "conjugated-n2"])
    def test_verification_exact_on_constant_fields(self, name):
        data = build_corpus_field(name)
        result = jordanize(data["field"], data["chart"])
        assert result.verification.max_deviation == 0.0
        assert result.verification.deviation_witness is None

    @staticmethod
    def assert_grid_frames_match(chart, grid):
        # the grid is one block, forward_with_frame one point at a time
        _, y = charts._grid(chart, grid)
        points, frames = chart._chart.forward_differential(y)
        assert len(frames) == grid ** chart.pipeline.d
        for n, frame in enumerate(frames):
            q, expect = chart.forward_with_frame(y[:, n])
            assert q.tobytes() == points[:, n].tobytes()
            assert frame.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("name", JORDANIZE_N2)
    def test_grid_frames_match_forward_with_frame(self, name):
        data = build_corpus_field(name)
        chart = jordanize(data["field"], data["chart"]).chart
        self.assert_grid_frames_match(chart, 5)

    def test_stacked_solve_matches_per_point(self, n3_strong):
        # one solve per grid point, worst taken in grid order, as the oracle
        _, A, result = n3_strong
        chart = result.chart
        Aev = A.evaluator()
        worst, witness = 0.0, None
        keys, y = charts._grid(chart, 5)
        points, frames = chart._chart.forward_differential(y)
        m = len(chart.pipeline.section.axes)
        for key, p, frame in zip(keys, points.T, frames):
            sc, tpre = key[:m], tuple(float(v) for v in key[m:])
            mat = np.linalg.solve(frame, Aev(p) @ frame)
            dev = float(np.max(np.abs(mat - chart.jordan)))
            if dev > worst:
                worst, witness = dev, (tuple(sc), tpre, tuple(p))
        ver = verify_integral_chart(A, chart, grid=5)
        assert worst > 0.0
        assert ver.max_deviation == worst
        assert ver.deviation_witness == witness

    def test_grid_frames_match_on_mixed_flows(self, n3_strong):
        # the final stage flows one symbolic and one computed generator
        chart = n3_strong[2].chart
        assert [g.symbolic for g in chart._chart.generators] == [True, False]
        self.assert_grid_frames_match(chart, 5)

    @pytest.mark.parametrize("name", ["example35-n3", "example35-n3-xn"])
    def test_grid_frames_are_the_chart_differential(self, name):
        # the time columns are DPhi's, not the final frame fields' values
        chart = assemble_chart(name)
        stage = chart._chart
        order = stage.application_order
        m = len(chart.pipeline.section.axes)
        keys, y = charts._grid(chart, 3)
        points, frames = stage.forward_differential(y)
        assert len(frames) == 3 ** chart.pipeline.d
        for key, p, frame in zip(keys, points.T, frames):
            sc, tpre = key[:m], key[m:]
            t = [tpre[order.index(alpha)] for alpha in range(len(order))]
            q, D = stage.forward_differential(np.array(t + list(sc)))
            assert q.tobytes() == p.tobytes()
            assert frame.tobytes() == D.tobytes()

    def test_blocks_are_their_columns(self, monkeypatch):
        # example35-n3: the stage-1 check samples stage 0, whose flows are
        # symbolic, the final check and the verification stage 1, which
        # flows a pulled-back generator; its fields hold x^4
        data = build_corpus_field("example35-n3")
        result, blocks = jordanize_recording_blocks(monkeypatch, data["field"],
                                                    data["chart"])
        pipe = result.chart.pipeline
        assert {stage for stage, *_ in blocks} == {pipe.stage_chart(0),
                                                   pipe.stage_chart(1)}
        assert any(y.shape[1] == 5 ** 3 for _, y, _, _ in blocks)
        assert_blocks_are_their_columns(blocks)

    @pytest.mark.parametrize("name, slot, straight", [
        ("example35-n2", (1, 0), False),    # the final chart's one flow
        ("conjugated-n2", (1, 1), True),
        ("example35-n3", (1, 0), False),    # stage 0, applied first
        ("example35-n3", (2, 0), True),     # stage 0, applied second
    ])
    def test_box_exit_is_the_flows_own(self, name, slot, straight):
        # a stage-0 chart point whose flow leaves the working box, the other
        # flows at t = 0: every path raises the BoxExitError that the flow
        # alone raises from sigma(s)
        chart = assemble_chart(name)
        stage = chart.pipeline.stage_chart(0)
        alpha, N = stage.flow_slots.index(slot), stage.n_flows
        spec = stage.specs[alpha]
        assert spec.generator.straight == straight
        y = np.zeros(chart.pipeline.d)
        y[N:], y[alpha] = 0.05, 1.0
        s, t = y[N:], y[:N]
        with pytest.raises(BoxExitError) as alone:
            flows._point_flow(spec, stage.section.embed(s).tolist(), 1.0, 0)
        frame_plan = stage._point_plan(len(stage.section.axes), False)
        # a block whose middle column is y: its own exit, not its mates'
        inside = np.zeros_like(y)
        inside[N:] = 0.05
        block = np.column_stack([inside, y, inside])
        runs = [lambda: stage.forward(s, t),
                lambda: frame_plan(y.tolist()),
                lambda: stage.forward_differential(y),
                lambda: stage.forward_differential(block),
                lambda: charts._Samples.on(stage, block)]
        if stage is chart._chart:
            runs.append(lambda: chart.forward_with_frame(y))
        for run in runs:
            with pytest.raises(BoxExitError) as err:
                run()
            assert err.value.time == alone.value.time
            assert err.value.point == alone.value.point

    @pytest.mark.parametrize("stage_index", [0, 1])
    @pytest.mark.parametrize("later_first", [True, False])
    def test_block_exit_is_its_first_failing_columns(self, stage_index,
                                                     later_first):
        # example35-n3: from s = (0.05,), the flow in slot (2, 0) leaves at
        # step 45 and the flow in slot (1, 0) at step 46 (symbolic in stage
        # 0, pulled back in stage 1).  A block raises the exit of its first
        # column that leaves, not the earliest step across its columns
        stage = assemble_chart("example35-n3").pipeline.stage_chart(stage_index)
        assert stage.flow_slots == [(2, 0), (1, 0)]
        columns, exits = [], []
        for alpha in range(2):
            y = np.array([0.0, 0.0, 0.05])
            y[alpha] = 1.0
            with pytest.raises(BoxExitError) as alone:
                stage.forward_differential(y)
            columns.append(y)
            exits.append((alone.value.time, alone.value.point))
        assert exits[0][0] < exits[1][0]
        order = [1, 0] if later_first else [0, 1]
        inside = np.array([0.1, -0.1, 0.05])
        block = np.column_stack([inside] + [columns[a] for a in order])
        for run in (lambda: stage.forward_differential(block),
                    lambda: charts._Samples.on(stage, block)):
            with pytest.raises(BoxExitError) as err:
                run()
            assert (err.value.time, err.value.point) == exits[order[0]]

    @pytest.mark.parametrize("name, stage_index", [
        ("example35-n2", 1),        # a symbolic flow, not straight
        ("example35-n3", 0),        # symbolic flows, one straight
        ("example35-n3", 1),        # a pulled-back flow
        ("example35-n3-xn", 1),
    ])
    def test_block_column_independent_of_batch_mates(self, name,
                                                     stage_index):
        # a permuted block answers with its permuted columns, and a part of
        # a block with that part of the answer, bit for bit
        stage = assemble_chart(name).pipeline.stage_chart(stage_index)
        y = ex.sample_box(Box(tuple(stage.chart_ranges())), 9, 11,
                          include_corners=False).T
        N, d = y.shape[1], len(y)
        x, D = stage.forward_differential(y)
        assert x.shape == y.shape and D.shape == (N, d, d)
        perm = np.random.default_rng(11).permutation(N)
        xp, Dp = stage.forward_differential(y[:, perm])
        assert xp.tobytes() == np.ascontiguousarray(x[:, perm]).tobytes()
        assert Dp.tobytes() == D[perm].tobytes()
        xh, Dh = stage.forward_differential(y[:, 4:])
        assert xh.tobytes() == np.ascontiguousarray(x[:, 4:]).tobytes()
        assert Dh.tobytes() == D[4:].tobytes()

    @pytest.mark.parametrize("name", ["example35-n3", "n3_strong"])
    def test_samples_leave_the_differential_memo_alone(self, name):
        # the final chart of both flows a computed generator through
        # _transport_computed, and the fields have x^4 terms; a block's
        # columns still equal their single points bit for bit
        data = n3_strong_data() if name == "n3_strong" else name
        stage = assemble_chart(data)._chart
        assert not all(g.symbolic for g in stage.generators)
        before = dict(stage._differentials)
        y = ex.sample_box(Box(tuple(stage.chart_ranges())), 4, 7,
                          include_corners=False).T
        pts = charts._Samples.on(stage, y)
        assert stage._differentials == before
        for n in range(y.shape[1]):
            x, D = stage.forward_differential(y[:, n])
            assert x.tobytes() == pts.x[:, n].tobytes()
            assert D.tobytes() == pts.D[n].tobytes()


class TestOneBracketRule:
    def test_verification_brackets_symbolic_pairs_exactly(self, monkeypatch):
        # the two image slots of conjugated-n2-d4 are symbolic fields: their
        # pair takes the one exact tree, every other pair the chart rule
        chart = assemble_chart("conjugated-n2-d4")
        fields = [frame_field(chart, slot) for slot in chart.slots]
        assert sum(f.symbolic for f in fields) == 2
        trees = []
        original = charts.lie_bracket

        def recording(X, Y):
            trees.append((X, Y))
            return original(X, Y)
        monkeypatch.setattr(charts, "lie_bracket", recording)
        verify_integral_chart(chart.pipeline.A, chart, grid=2)
        assert trees == [(fields[0].field, fields[1].field)]

    @pytest.mark.parametrize("name", JORDANIZE_N2)
    def test_jordanize_n2_inverts_nothing(self, name, monkeypatch):
        # stage checks and frame brackets read the fields off the chart
        # differential: no chart inversion and no ambient numeric bracket
        calls = {"inverse": 0, "numeric_bracket": 0}
        inverse = charts._StageChart.inverse

        def counting_inverse(self, *args, **kwargs):
            calls["inverse"] += 1
            return inverse(self, *args, **kwargs)

        def counting_bracket(*args, **kwargs):
            calls["numeric_bracket"] += 1
            return numeric_bracket(*args, **kwargs)
        monkeypatch.setattr(charts._StageChart, "inverse", counting_inverse)
        for module in (flows, charts):
            monkeypatch.setattr(module, "numeric_bracket", counting_bracket,
                                raising=False)
        data = build_corpus_field(name)
        result = jordanize(data["field"], data["chart"])
        assert all(rep.passed for rep in result.stage_reports)
        assert calls == {"inverse": 0, "numeric_bracket": 0}

    def test_chart_rule_matches_numeric_bracket(self):
        # stage 1 of example35-n3: [A Z^(1), Z^(1)] in the stage-0 chart's
        # coordinates against central differences of the ambient fields,
        # which invert that chart at every neighbour, at the same points
        pipe = assemble_chart("example35-n3").pipeline
        parent = pipe.stage_chart(0)
        y = ex.sample_box(Box(tuple(parent.chart_ranges())), 5, 2026,
                          include_corners=False).T
        pts = charts._Samples.on(parent, y)
        rule = charts._bracket(pipe.chart_field(1, 0, 1),
                               pipe.chart_field(0, 0, 1))(pts)
        X, Z = pipe.generator(1, 0, 1), pipe.generator(0, 0, 1)
        ambient = np.column_stack([numeric_bracket(X, Z, p, h=charts.H_BRACKET)
                                   for p in pts.x.T])
        assert np.max(np.abs(rule)) >= 4e-4
        assert np.max(np.abs(rule - ambient)) <= 1e-6

    def test_pairs_sharing_a_field_share_its_shifts(self, monkeypatch):
        # stage 1 of example35-n3, clauses 4 and 5: the samples are shifted
        # along each of the three fields once, whichever pairs and clauses
        # differentiate along it, so no block of chart points repeats
        pipe = assemble_chart("example35-n3").pipeline
        blocks = []
        original = charts._StageChart.forward_differential

        def recording(self, y):
            if np.ndim(y) == 2:
                blocks.append(np.asarray(y).tobytes())
            return original(self, y)
        monkeypatch.setattr(charts._StageChart, "forward_differential",
                            recording)
        hk_residuals(FrameState(pipe, 1), clauses=("4", "5"))
        assert len(pipe.slots) == 3
        assert len(set(blocks)) == len(blocks) == 1 + 2 * 3

    def test_hk_builds_one_tree_per_symbolic_pair(self, monkeypatch):
        from endochart.structure import kernel_frame
        data = build_corpus_field("example35-n3")
        state = initial_frame(data["field"], data["chart"], FAST, check=False)
        pipe = state.pipeline
        calls = []
        original = charts.lie_bracket

        def recording(X, Y):
            calls.append((X, Y))
            return original(X, Y)
        monkeypatch.setattr(charts, "lie_bracket", recording)
        hk_residuals(state)
        # clause 2: section fields against kernel frames; clauses 4 and 5:
        # slot pairs, all symbolic at stage 0
        kernel = sum(len(kernel_frame(pipe.A, q, pipe.chart_box,
                                      seed=pipe.settings.seed).frame)
                     for q in range(1, pipe.n))
        slots = len(pipe.slots)
        images = sum(a >= 1 for a, _ in pipe.slots)
        assert len(calls) == (kernel * len(section_fields(state))
                              + slots * (slots - 1) // 2
                              + images * (images - 1) // 2)

    def test_hk_computes_only_the_named_clauses(self, monkeypatch):
        # the final stage reports clauses 1, 3 and 4: no kernel frame is
        # built and the one bracket taken is the clause-4 slot pair
        # [(1, 0), (0, 0)]: the symbolic A Z^(0) and the section field
        data = build_corpus_field("example35-n2")
        state = induction_step(initial_frame(data["field"], data["chart"],
                                             FAST, check=False))
        pipe = state.pipeline
        assert pipe.slots == [(1, 0), (0, 0)]
        frames, brackets = [], []
        kernel, bracket = charts.nullspace_frame, charts._bracket

        def recording_frame(*args, **kwargs):
            frames.append(args)
            return kernel(*args, **kwargs)

        def recording_bracket(fa, fb):
            brackets.append((fa, fb))
            return bracket(fa, fb)
        monkeypatch.setattr(charts, "nullspace_frame", recording_frame)
        monkeypatch.setattr(charts, "_bracket", recording_bracket)
        rep = hk_residuals(state, clauses=("1", "3", "4"))
        assert [c.clause for c in rep.clauses] == ["1", "3", "4"]
        assert frames == []
        [(fa, fb)] = brackets
        assert fa.gen is pipe.generator(1, 0, 1)
        assert fb.constant and fb.col == pipe.stage_chart(0).n_flows


def assemble_chart(name_or_data, settings=PipelineSettings()) -> ChartMap:
    """The integral chart without stage checks or verification."""
    data = (build_corpus_field(name_or_data) if isinstance(name_or_data, str)
            else name_or_data)
    state = initial_frame(data["field"], data["chart"], settings, check=False)
    for _ in range(data["chart"].index - 1):
        state = induction_step(state)
    return build_chart(state, check=False)


def compare_charts(c1: ChartMap, c2: ChartMap, samples: int = 100,
                   seed: int = 2026) -> float:
    """Max distance between the two charts' outputs at shared coordinates."""
    if c1.slots != c2.slots:
        raise ValueError("charts must share slot structure")
    worst = 0.0
    for y in c1.sample_coords(samples, seed):
        worst = max(worst, float(np.max(np.abs(c1.forward(y) - c2.forward(y)))))
    return worst


def frame_field(chart: ChartMap, slot):
    """The slot's basis field of the chart's final stage, as a
    point-evaluable field object."""
    return chart.pipeline.generator(*slot, chart.pipeline.n - 1)


def section_fields(state) -> list:
    """The section fields Z_i^(k) of an induction state."""
    pipe = state.pipeline
    return [pipe.generator(0, i, state.k) for i in range(len(pipe.section.axes))]


def latin_hypercube(ranges, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = np.array(ranges, dtype=float).T
    slices = np.column_stack([rng.permutation(count) for _ in ranges])
    return lo + (slices + rng.uniform(size=slices.shape)) / count * (hi - lo)


def ambient_forward(chart: ChartMap, y) -> np.ndarray:
    """The chart map with every flow integrated in the ambient space on its
    generator's `value`, computed generators included (the oracle)."""
    stage = chart._chart
    s, t = chart.split(y)
    x = chart.pipeline.section.embed(s)
    for alpha in stage.application_order:
        spec = FlowSpec(stage.generators[alpha], stage.specs[alpha].settings,
                        stage.specs[alpha].box)
        x = integrate_flow(spec, x, float(t[alpha]))
    return x


class InversionLog:
    """Every chart inversion (`_StageChart.inverse`) while it is installed,
    as (asker, point bytes): asker "frame" for a section-frame value,
    "start" for a flow start (`start_coords`), else "direct"."""

    def __init__(self, monkeypatch):
        self.log, asking = [], ["direct"]
        inverse = charts._StageChart.inverse

        def logged(self_, q):
            self.log.append((asking[-1], np.asarray(q).tobytes()))
            return inverse(self_, q)
        monkeypatch.setattr(charts._StageChart, "inverse", logged)
        for name, asker in (("section_frame", "frame"),
                            ("start_coords", "start")):
            original = getattr(charts._StageChart, name)

            def asked(self_, q, original=original, asker=asker):
                asking.append(asker)
                try:
                    return original(self_, q)
                finally:
                    asking.pop()
            monkeypatch.setattr(charts._StageChart, name, asked)

    def count(self, asker: str) -> int:
        return sum(1 for entry in self.log if entry[0] == asker)


def count_step_compiles(monkeypatch) -> list:
    """The arguments of every plan-step compile (`flows._compile_step`)
    while the monkeypatch holds."""
    compiles, step = [], flows._compile_step
    monkeypatch.setattr(flows, "_compile_step", lambda *args: (
        compiles.append(args) or step(*args)))
    return compiles


class TestParentCoordinateFlows:
    """Computed generators flow in their parent chart's coordinates."""

    @pytest.mark.parametrize("order", ["desc", "asc"])
    @pytest.mark.parametrize("name", ["example35-n3", "n3_strong"])
    def test_forward_matches_ambient_oracle(self, name, order):
        data = n3_strong_data() if name == "n3_strong" else name
        chart = assemble_chart(data, PipelineSettings(flow_order=order))
        stage = chart._chart
        computed = [a for a, g in enumerate(stage.generators) if not g.symbolic]
        assert computed
        # "asc" runs the symbolic flow first: the computed flow starts off
        # the section, from one inversion of the parent chart
        assert (stage.application_order[0] in computed) == (order == "desc")
        for y in chart.sample_coords(4, seed=11):
            got = chart.forward(y)
            assert np.max(np.abs(got - ambient_forward(chart, y))) <= 1e-7

    @pytest.mark.parametrize("name, k, ys", [
        # flow times away from step-count changes under the +-h shifts
        ("example35-n3", 0, ([0.0437, -0.0615, 0.052],
                             [-0.0812, 0.0264, -0.073], [0.0, 0.0, 0.1])),
        # the final chart of an n = 2 field
        ("conjugated-n2", 1, ([-0.1124, 0.049, -0.0115],
                              [-0.0453, -0.0508, 0.1017],
                              [0.1418, -0.1129, 0.0535])),
    ], ids=["example35-n3-stage0", "conjugated-n2-stage1"])
    def test_differential_of_stage_chart(self, name, k, ys):
        pipe = assemble_chart(name).pipeline
        stage = pipe.stage_chart(k)
        N, d, m = stage.n_flows, pipe.d, len(pipe.section.axes)
        frame_plan = stage._point_plan(m, False)
        h = 1e-5
        for y in ys:
            y = np.array(y)
            x, D = stage.forward_differential(y)
            s, t = y[N:], y[:N]
            assert x.tobytes() == stage.forward(s, t).tobytes()
            W = np.array(frame_plan(y.tolist())[d:]).reshape(d, m)
            assert D[:, N:].tobytes() == W.tobytes()
            fd = np.empty_like(D)
            for j in range(len(y)):
                up, dn = y.copy(), y.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (stage.forward(up[N:], up[:N])
                            - stage.forward(dn[N:], dn[:N])) / (2.0 * h)
            assert np.max(np.abs(fd - D)) <= 1e-6 * np.max(np.abs(D))

    def test_coords_and_forward_are_history_free(self):
        chart = assemble_chart("example35-n3")
        ys = latin_hypercube(chart.chart_ranges(), 32, seed=123)
        first = [chart.coords(chart.forward(y)) for y in ys]
        fresh = assemble_chart("example35-n3")
        again = [fresh.coords(fresh.forward(y)) for y in ys[::-1]][::-1]
        assert [c.tobytes() for c in first] == [c.tobytes() for c in again]
        for y, c in zip(ys, first):
            assert np.max(np.abs(c - y)) <= 1e-8
        # forward on the chart that served the queries equals a fresh one's,
        # and so do the section-frame values
        other = assemble_chart("example35-n3")
        for y in ys[:8]:
            assert chart.forward(y).tobytes() == other.forward(y).tobytes()
        q = chart.forward(ys[0]) + 1e-3
        z, z_other = frame_field(chart, (0, 0)), frame_field(other, (0, 0))
        assert z.value(q).tobytes() == z_other.value(q).tobytes()

    @pytest.mark.parametrize("name", ["example35-n2", "example35-n3"])
    def test_section_frame_values_are_history_free(self, name):
        # each section-frame value inverts the chart at its point: the
        # values must not depend on the order the points are asked in
        forward, reverse = assemble_chart(name), assemble_chart(name)
        ys = latin_hypercube(forward.chart_ranges(), 12, seed=5)
        qs = [forward.forward(y) for y in ys]
        slots = [slot for slot in forward.slots if slot[0] == 0]

        def values(chart, points):
            fields = [frame_field(chart, slot) for slot in slots]
            return [[z.value(q).tobytes() for z in fields] for q in points]
        assert values(forward, qs) == values(reverse, qs[::-1])[::-1]

    def test_point_caches_are_bounded(self, monkeypatch):
        # a computed field A^p Z keeps its last MEMO values; a value depends
        # on its point alone, so an evicted one comes back bit for bit.
        # n = 3: A Z^(1) is computed from the stage-0 section frame
        monkeypatch.setattr(ComputedVectorField, "MEMO", 2)
        chart = assemble_chart("example35-n3")
        az = chart.pipeline.generator(1, 0, 1)
        assert isinstance(az, ComputedVectorField)
        qs = [chart.forward(y) for y in chart.sample_coords(4, seed=3)]
        first = [az.value(q).tobytes() for q in qs]
        assert az.cache_size() == 2
        assert az.value(qs[0]).tobytes() == first[0]
        assert az.cache_size() == 2

    def test_each_flow_starts_in_its_own_parent(self):
        # n = 4: the stage-1 flows pull back to stage 0, the second one
        # starting from the first one's end coordinates.  At stage 2, A^2 Z
        # pulls back to stage 0 too, while A Z^(2), whose parent (stage 1)
        # has computed flows of its own, flows in the ambient space.  Both
        # compositions must match one that starts every pulled-back flow
        # from an inversion of its parent.
        pipe = assemble_chart("example35-n4-const", FAST).pipeline
        stage0 = pipe.stage_chart(0)
        for k, tol, ambient in ((1, 1e-9, []), (2, 0.0, [(1, 0)])):
            stage = pipe.stage_chart(k)
            pulled = [slot for slot, spec in zip(stage.flow_slots, stage.specs)
                      if isinstance(spec.generator, charts._Pullback)]
            assert {stage.specs[stage.flow_slots.index(slot)].generator.parent
                    for slot in pulled} == {stage0}
            assert [slot for slot, g in zip(stage.flow_slots, stage.generators)
                    if not g.symbolic and slot not in pulled] == ambient
            rng = np.random.default_rng(k)
            s = rng.uniform(-0.1, 0.1, size=len(pipe.section.axes))
            t = rng.uniform(-0.05, 0.05, size=stage.n_flows)
            x = pipe.section.embed(s)
            for alpha in stage.application_order:
                gen = stage.specs[alpha].generator
                if isinstance(gen, charts._Pullback):
                    y = gen.flow(stage0.start_coords(x), float(t[alpha]))
                    x = gen.point(y)
                else:
                    x = integrate_flow(stage.specs[alpha], x, float(t[alpha]))
            assert np.max(np.abs(stage.forward(s, t) - x)) <= tol

    @pytest.mark.parametrize("order", ["desc", "asc"])
    def test_transport_reuses_the_newton_trajectories(self, order,
                                                      monkeypatch):
        # section_frame = inverse (Newton, ending on a forward map at the
        # solution) + the section-frame plan there: the transport integrates
        # only the +-h trajectories of the computed flow, which start at
        # chart points of its parent (stage 0).  Under "asc" the computed flow
        # starts off the section, so each forward map inverts the parent
        # once; the transport starts where Newton's last forward map did,
        # and its +-h starts invert nothing.
        settings = PipelineSettings(flow_order=order)
        runs = []
        rk4 = charts._Pullback._rk4

        def counting(self, y0, t):
            runs.append((t, y0.tobytes()))
            return rk4(self, y0, t)
        monkeypatch.setattr(charts._Pullback, "_rk4", counting)
        inversions = InversionLog(monkeypatch)
        q = np.array([0.031, -0.047, 0.052])
        assemble_chart("example35-n3", settings)._chart.inverse(q)
        newton_runs, newton_starts = len(runs), inversions.count("start")
        assert newton_runs > 0
        runs.clear()
        inversions.log.clear()
        chart = assemble_chart("example35-n3", settings)
        chart._chart.section_frame(q)
        m = len(chart.pipeline.section.axes)
        assert len(runs) == newton_runs + 2 * m
        assert len(set(runs)) == len(runs)
        assert inversions.count("start") == newton_starts
        assert (newton_starts > 0) == (order == "asc")

    def test_trajectory_memo_keys_and_bound(self, monkeypatch):
        # a pulled-back flow is kept by (t, start) alone, at most MEMO of
        # them, and the parent keeps at most its MEMO differentials and
        # start coordinates.  Kept arrays stay inside the chart: a caller
        # that writes an answer changes no later answer
        monkeypatch.setattr(charts._Pullback, "MEMO", 2)
        monkeypatch.setattr(charts._StageChart, "MEMO", 3)
        chart = assemble_chart("example35-n3")
        stage = chart._chart
        gen = stage.specs[stage.flow_slots.index((1, 0))].generator
        runs = []
        rk4 = charts._Pullback._rk4

        def counting(self, y0, t):
            runs.append(t)
            return rk4(self, y0, t)
        monkeypatch.setattr(charts._Pullback, "_rk4", counting)
        x = chart.pipeline.section.embed(np.array([0.05]))
        y0 = gen.parent.start_coords(x)
        a = gen.flow(y0, 0.04)
        b = gen.flow(y0.copy(), 0.04)
        assert len(runs) == 1 and a is b
        for t in (0.01, 0.02, 0.03, 0.05):
            gen.flow(y0, t)
        assert list(gen._flows) == [(0.03, y0.tobytes()), (0.05, y0.tobytes())]
        assert len(gen.parent._differentials) == 3
        for y in chart.sample_coords(4, seed=3):
            gen.parent.start_coords(chart.forward(y))
        assert len(gen.parent._starts) == 3
        y = chart.sample_coords(1, seed=4)[0]
        q = chart.forward(y)
        expect = q.tobytes()
        q[:] = 0.0
        assert chart.forward(y).tobytes() == expect

    def test_round_trips_compute_a_fixed_number_of_differentials(
            self, monkeypatch):
        # forward + coords at 4 fixed chart points of a fresh chart: every
        # stage-0 single-point differential that the pulled-back flows or
        # stage 0's section_frame compute (a miss of the parent's memo) runs
        # stage 0's single-point plan with the section frame and time
        # columns, and no other query does
        chart = assemble_chart("example35-n3")
        stage0 = chart.pipeline.stage_chart(0)
        m = len(chart.pipeline.section.axes)
        runs = []
        plan = charts._StageChart._point_plan

        def counting(self, width, times):
            runs.append((self is stage0, width, times))
            return plan(self, width, times)
        monkeypatch.setattr(charts._StageChart, "_point_plan", counting)
        for y in latin_hypercube(chart.chart_ranges(), 4, seed=2026):
            chart.coords(chart.forward(y))
        assert runs.count((True, m, True)) == 255
        assert all(stage or not times for stage, _, times in runs)

    def test_n4_jordanize_inverts_no_shifted_start(self, monkeypatch):
        # n = 4 end to end: every stage report and the verification pass.
        # A^2 Z^(2) starts where the ambient flow of A Z^(2) ends, so the
        # stage-2 chart inverts its parent for flow starts; each of them is
        # the start of a transport, none a +-h shift of one.  No benchmark
        # workload runs n = 4, so the work is pinned here: the inversions
        # by asker and the plan steps compiled
        data = build_corpus_field("example35-n4-const")
        compiles = count_step_compiles(monkeypatch)
        centres = set()
        transport = charts._StageChart._transport_computed

        def recording(self, alpha, x, *args):
            centres.add(np.asarray(x).tobytes())
            return transport(self, alpha, x, *args)
        monkeypatch.setattr(charts._StageChart, "_transport_computed",
                            recording)
        inversions = InversionLog(monkeypatch)
        settings = PipelineSettings(integrator=IntegratorSettings(step=5e-2))
        result = jordanize(data["field"], data["chart"], settings, grid=3)
        assert [rep.k for rep in result.stage_reports] == [0, 1, 2, 3]
        assert all(rep.passed for rep in result.stage_reports)
        assert result.verification.passed
        starts = [q for asker, q in inversions.log if asker == "start"]
        assert starts and inversions.count("direct") == 0
        assert sum(q not in centres for q in starts) == 0
        assert (inversions.count("frame"), len(starts)) == (1168, 51)
        assert len(compiles) == 7

    def test_n3_jordanize_work_is_pinned(self, monkeypatch):
        # at the defaults every inversion is a section-frame value, the time
        # columns of the pulled-back flow's generator
        compiles = count_step_compiles(monkeypatch)
        inversions = InversionLog(monkeypatch)
        data = build_corpus_field("example35-n3")
        jordanize(data["field"], data["chart"])
        assert [asker for asker, _ in inversions.log] == ["frame"] * 79
        assert len(compiles) == 4

    def test_box_check_tests_the_parents_point(self, monkeypatch):
        # a pulled-back flow in the coordinates y of its parent chart P is
        # box-checked at Phi_P(y), not at y.  Steps of 2^-6 make every step
        # time exact; after 25 of them from y0 the second coordinate of y
        # is past that of Phi_P(y)
        settings = PipelineSettings(
            integrator=IntegratorSettings(step=2.0 ** -6))
        stage = assemble_chart("example35-n3", settings)._chart
        gen = stage.specs[stage.flow_slots.index((1, 0))].generator
        y0, h = np.array([0.1, -0.1, 0.2]), 2.0 ** -6
        monkeypatch.setattr(gen.spec, "box", Box.cube(3, 10.0))
        y = gen.flow(y0, 25 * h)
        x = gen.point(y)
        assert x[1] < y[1]
        # in a box whose bound lies between them, the flow goes on past
        # that step and leaves where Phi_P(y) does
        b = (x[1] + y[1]) / 2.0
        box = Box(((-1.0, 1.0), (-b, b), (-1.0, 1.0)))
        monkeypatch.setattr(gen.spec, "box", box)
        with pytest.raises(BoxExitError) as err:
            gen.flow(y0, 3.0)
        k = int(err.value.time / h)
        assert err.value.time == k * h and k > 25
        monkeypatch.setattr(gen.spec, "box", Box.cube(3, 10.0))
        before, y = gen.flow(y0, (k - 1) * h), gen.flow(y0, k * h)
        assert box.contains(gen.point(before))
        assert err.value.point == tuple(gen.point(y))

    def test_parents_box_exit_is_the_flows_own_step(self):
        # from y0 the stage-0 flows leave the working box at an RK4 stage
        # point of the pulled-back flow, inside its step k: the exit is the
        # flow's own, at k h (steps of 2^-6 make it exact), at the parent's
        # point, and the flow to (k - 1) h stays inside
        settings = PipelineSettings(
            integrator=IntegratorSettings(step=2.0 ** -6))
        stage = assemble_chart("example35-n3", settings)._chart
        gen = stage.specs[stage.flow_slots.index((1, 0))].generator
        y0, h = np.array([0.1, -0.1, 0.2]), 2.0 ** -6
        with pytest.raises(BoxExitError) as err:
            gen.flow(y0, 3.0)
        k = round(err.value.time / h)
        assert err.value.time == k * h and k > 1
        cause = err.value.__cause__
        assert isinstance(cause, BoxExitError)
        assert err.value.point == cause.point
        assert stage.pipeline.working_box.contains(
            gen.point(gen.flow(y0, (k - 1) * h)))

    def test_start_outside_raises_the_parents_exit(self):
        # Phi_P(y0) itself leaves the working box, before any step: the
        # exit is the parent's own, not re-labelled as this flow's at 1 h
        settings = PipelineSettings(
            integrator=IntegratorSettings(step=2.0 ** -6))
        stage = assemble_chart("example35-n3", settings)._chart
        gen = stage.specs[stage.flow_slots.index((1, 0))].generator
        y0 = np.array([3.0, 0.0, 0.0])
        with pytest.raises(BoxExitError) as err:
            gen.flow(y0, 0.5)
        with pytest.raises(BoxExitError) as own:
            gen.parent.differential(y0.tolist())
        assert err.value.__cause__ is None
        assert err.value.time == own.value.time != 2.0 ** -6
        assert err.value.point == own.value.point

    def test_computed_flow_leaving_box(self):
        # the computed flow (slot (1, 0)) at t = 2 carries sigma(s) out of
        # the working box
        chart = assemble_chart("example35-n3")
        stage = chart._chart
        alpha = stage.flow_slots.index((1, 0))
        assert not stage.generators[alpha].symbolic
        y = np.zeros(chart.pipeline.d)
        y[alpha] = 2.0
        with pytest.raises(BoxExitError) as err:
            chart.forward(y)
        assert 0.0 < err.value.time < 2.0
        assert not chart.pipeline.working_box.contains(err.value.point)


class TestSectionFrameFork:
    """`section_frame` reads a chart's frame off the differential plan when
    every flow is symbolic, and runs the plan without time columns when a
    flow is computed."""

    @staticmethod
    def frame_plan(stage, q) -> np.ndarray:
        """The section frame at q by the plan without time columns."""
        s, t = stage.inverse(q)
        d, m = stage.section.dim, len(stage.section.axes)
        z = stage._point_plan(m, False)(charts._chart_point(s, t))
        return np.array(z[d:]).reshape(d, m)

    @pytest.mark.parametrize("name", ["example35-n2", "example35-n3",
                                      "example35-n3-xn", "conjugated-n2-d4"])
    def test_symbolic_stage_reads_the_differential(self, name, monkeypatch):
        stage = assemble_chart(name).pipeline.stage_chart(0)
        assert stage.symbolic
        N = stage.n_flows
        ys = latin_hypercube(stage.chart_ranges(), 20, seed=29)
        points = [stage.forward(y[N:], y[:N]) for y in ys]
        # a section coordinate -0.0 gives another sigma(s) than 0.0; the
        # flows keep a section coordinate up to a zero's sign
        y = ys[0].copy()
        y[N] = 0.0
        q = stage.forward(y[N:], y[:N])
        q[stage.section.axes[0]] = -0.0
        points.append(q)
        expect = [self.frame_plan(stage, q).tobytes() for q in points]
        plans = []
        point_plan = charts._StageChart._point_plan
        monkeypatch.setattr(charts._StageChart, "_point_plan",
                            lambda self, m, times: plans.append((m, times))
                            or point_plan(self, m, times))
        got = [stage.section_frame(q) for q in points]
        assert [f.tobytes() for f in got] == expect
        assert all(f.flags.c_contiguous for f in got)
        assert (len(stage.section.axes), False) not in plans

    def test_stage_with_a_computed_flow_runs_the_frame_plan(
            self, monkeypatch):
        # stage 1 of n = 4 flows A Z^(1) in the ambient space: time columns
        # would add +-h trajectories of it
        settings = PipelineSettings(integrator=IntegratorSettings(step=5e-2))
        stage = assemble_chart("example35-n4-const",
                               settings).pipeline.stage_chart(1)
        assert not stage.symbolic
        y = latin_hypercube(stage.chart_ranges(), 1, seed=29)[0]
        q = stage.forward(y[stage.n_flows:], y[:stage.n_flows])
        m = len(stage.section.axes)
        plans = []
        point_plan = charts._StageChart._point_plan
        monkeypatch.setattr(
            charts._StageChart, "_point_plan", lambda self, width, times: (
                self is stage and plans.append((width, times)))
            or point_plan(self, width, times))
        frame = stage.section_frame(q)
        assert (m, False) in plans and (m, True) not in plans
        monkeypatch.undo()
        assert frame.tobytes() == self.frame_plan(stage, q).tobytes()


def lstsq_cases():
    """(J, b): random (d, N) J for d = 2..7 and N = 1..d, then the same
    shapes rank-deficient, with a zero column, and with -0.0 entries; where
    N + 2 <= d, also one whose last singular value lies between the
    cut-offs eps N and eps d, which only numpy's rcond eps max(d, N) drops."""
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for d in range(2, 8):
        for N in range(1, d + 1):
            J, b = rng.standard_normal((d, N)), rng.standard_normal(d)
            yield J, b
            if N + 2 <= d:
                U = np.linalg.qr(rng.standard_normal((d, N)))[0]
                V = np.linalg.qr(rng.standard_normal((N, N)))[0]
                sigma = np.ones(N)
                sigma[-1] = 0.5 * (N + d) * eps
                yield (U * sigma) @ V, b
            low = J.copy()
            low[:, -1] = 2.0 * low[:, 0]
            yield low, b
            yield rng.standard_normal((d, 1)) * rng.standard_normal(N), b
            zero = J.copy()
            zero[:, rng.integers(N)] = 0.0
            yield zero, b
            signed = J.copy()
            signed[rng.random(J.shape) < 0.4] = -0.0
            yield signed, np.where(rng.random(d) < 0.4, -0.0, b)
            yield np.full((d, N), -0.0), b


def test_lstsq_is_numpys():
    cases = list(lstsq_cases())
    assert len(cases) == 6 * 27 + 15
    for J, b in cases:
        expect = np.linalg.lstsq(J, b, rcond=None)[0]
        got = charts._lstsq(J, b)
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_lstsq_raises_numpys_error():
    J = np.array([[np.nan, 1.0], [0.0, 1.0], [1.0, 2.0]])
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError) as numpy_err:
        np.linalg.lstsq(J, b, rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as err:
        charts._lstsq(J, b)
    assert str(err.value) == str(numpy_err.value)


def fresh_run(stage, m: int, times: bool, y: list):
    """`answer` of a new plan of the stage chart for width m and `times`,
    which has no retained chain, at y; the chart keeps its own plan."""
    kept = stage._plans.pop((m, times), None)
    try:
        return answer(lambda: stage._point_plan(m, times)(y))
    finally:
        stage._plans.pop((m, times), None)
        if kept is not None:
            stage._plans[(m, times)] = kept


def answer(run):
    """run()'s list of floats as bytes, or its box exit as (time, point)."""
    try:
        return np.array(run(), dtype=float).tobytes()
    except BoxExitError as err:
        return err.time, err.point


def plan_keys(stage) -> list:
    """(m, times) of the stage chart's plans: `forward`'s, `section_frame`'s
    and `differential`'s."""
    m = len(stage.section.axes)
    return [(0, False), (m, False), (m, True)]


class TestSharedChain:
    """A plan's run resumes after the deepest flow whose inputs its last run
    shared, bit for bit (`_StageChart._point_plan`); every answer is a fresh
    plan's."""

    @pytest.mark.parametrize("name, stages, least", [
        ("example35-n3", 2, 1000), ("example35-n3-xn", 2, 1000),
        # stage charts of one flow
        ("example35-n2", 1, 50), ("conjugated-n2", 1, 150)])
    def test_every_run_of_jordanize_is_a_fresh_plans(self, name, stages,
                                                      least, monkeypatch):
        runs = []
        point_plan = charts._StageChart._point_plan

        def recording(self, m, times):
            run = point_plan(self, m, times)

            def recorded(y):
                z = run(y)
                runs.append((self, m, times, list(y), answer(lambda: z)))
                return z
            return recorded
        monkeypatch.setattr(charts._StageChart, "_point_plan", recording)
        data = build_corpus_field(name)
        pipe = jordanize(data["field"], data["chart"]).chart.pipeline
        monkeypatch.undo()
        assert len(runs) > least
        assert {stage for stage, *_ in runs} == {pipe.stage_chart(k)
                                                 for k in range(stages)}
        for stage, m, times, y, z in runs:
            assert fresh_run(stage, m, times, y) == z

    @pytest.mark.parametrize("name, stage_index", [
        ("example35-n3", 0), ("example35-n3", 1), ("conjugated-n2", 0)])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_random_points_with_signed_zeros(self, name, stage_index,
                                             shuffled):
        # up to 40 chart points from 5 values per coordinate, 0.0 and -0.0
        # among them, in fan-out order (section coordinates, then the times
        # in application order), where consecutive points share prefixes,
        # then again in reverse, so the last point runs twice in a row
        stage = assemble_chart(name).pipeline.stage_chart(stage_index)
        N, order = stage.n_flows, stage.application_order
        rng = np.random.default_rng(40 + stage_index)
        values = [[0.0, -0.0, *rng.uniform(lo, hi, 3)]
                  for lo, hi in stage.chart_ranges()]
        keys = list(itertools.product(*values[N:],
                                      *(values[a] for a in order)))
        picked = sorted(rng.choice(len(keys), min(40, len(keys)),
                                   replace=False))
        if shuffled:
            picked = rng.permutation(picked)
        m = len(stage.section.axes)
        ys = [[keys[n][m + order.index(a)] for a in range(N)]
              + list(keys[n][:m]) for n in picked]
        for width, times in plan_keys(stage):
            run = stage._point_plan(width, times)
            for y in ys + ys[::-1]:
                assert answer(lambda: run(y)) == fresh_run(
                    stage, width, times, y)

    @pytest.mark.parametrize("stage_index", [0, 1])
    def test_a_section_coordinate_minus_zero_is_not_zero(self, stage_index):
        # sigma(s) keeps the sign of a zero s, and flows at t = 0 keep it:
        # a run at s = -0.0 after one at s = 0.0 shares no flow
        stage = assemble_chart("example35-n3").pipeline.stage_chart(
            stage_index)
        [axis] = stage.section.axes
        for m, times in plan_keys(stage):
            run = stage._point_plan(m, times)
            for t in ([0.0, 0.0], [0.03, -0.02]):
                for s in (0.0, -0.0):
                    y = t + [s]
                    z = answer(lambda: run(y))
                    assert z == fresh_run(stage, m, times, y)
                    if t == [0.0, 0.0]:
                        assert math.copysign(1.0, np.frombuffer(z)[axis]) == (
                            math.copysign(1.0, s))

    @pytest.mark.parametrize("stage_index", [0, 1])
    def test_a_box_exit_is_never_kept(self, stage_index):
        # example35-n3 from s = (0.05,): the flow applied second, slot
        # (2, 0), leaves the working box at t = 1.0.  A run that shares the
        # first flow with it gets the fresh answer, and a run that reaches
        # it again raises the same exit
        stage = assemble_chart("example35-n3").pipeline.stage_chart(
            stage_index)
        second = stage.application_order[1]
        assert stage.flow_slots[second] == (2, 0)
        out, inside = [0.02, 0.03, 0.05], [0.02, 0.03, 0.05]
        out[second] = 1.0
        for m, times in plan_keys(stage):
            run = stage._point_plan(m, times)
            exit_ = answer(lambda: run(out))
            assert isinstance(exit_, tuple)
            assert exit_ == fresh_run(stage, m, times, out)
            for y in (inside, out, out, inside, out):
                assert answer(lambda: run(y)) == fresh_run(stage, m, times, y)

    def test_the_grid_runs_each_flow_once_per_prefix(self, monkeypatch):
        # one verify_integral_chart of example35-n3: its grid, the first
        # 5^3 runs of the verified chart's differential plan, is in fan-out
        # order, so each flow of that chart runs once per distinct prefix
        # (s and the times up to it in application order) of the grid
        chart = assemble_chart("example35-n3")
        stage = chart._chart
        N, order = stage.n_flows, stage.application_order
        m = len(stage.section.axes)
        building, calls, runs = [], collections.Counter(), []
        point_plan = charts._StageChart._point_plan
        plan_step = flows.CompiledField.plan_step
        computed_step = charts._StageChart._computed_step

        def counted(step):
            if not building:        # the box exit of `flows._point_flow`
                return step
            plan = building[-1]
            tag = (*plan[:2], plan[2])
            plan[2] += 1
            # a call inside the n-th run of the verified chart's plan is
            # counted with len(runs) = n
            return lambda *args: calls.update([(*tag, len(runs))]) or step(
                *args)

        def planning(self, m, times):
            building.append([self, (m, times), 0])
            try:
                run = point_plan(self, m, times)
            finally:
                building.pop()
            if self is not stage:
                return run
            return lambda y: runs.append((m, times, y)) or run(y)
        monkeypatch.setattr(charts._StageChart, "_point_plan", planning)
        monkeypatch.setattr(flows.CompiledField, "plan_step",
                            lambda self, *a: counted(plan_step(self, *a)))
        monkeypatch.setattr(charts._StageChart, "_computed_step",
                            lambda self, *a: counted(computed_step(self, *a)))
        data = build_corpus_field("example35-n3")
        verify_integral_chart(data["field"], chart, grid=5)
        grid = charts._grid(chart, 5)[1].T.tolist()
        assert runs[:len(grid)] == [(m, True, y) for y in grid]
        distinct = []
        for k in range(N):
            prefixes = {np.array(y[N:] + [y[a] for a in order[:k + 1]])
                        .tobytes() for y in grid}
            distinct.append(len(prefixes))
            assert sum(n for (chart_, key, at, run), n in calls.items()
                       if chart_ is stage and key == (m, True) and at == k
                       and run <= len(grid)) == len(prefixes)
        assert distinct == [5 ** 2, 5 ** 3]


JORDANIZE_GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
                    / "jordanize_reports.json")


def _repr_floats(value):
    """JSON-ready copy of a report value with every float as its repr."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return [_repr_floats(v) for v in value]
    return value


def jordanize_answers(name: str, seed: int) -> dict:
    """Stage clause residuals and witnesses and the verification figures of
    `jordanize` at the CLI defaults (step 1e-2, grid 5) and the given seed.

    The golden file is written by
    ``json.dump({f"{n}@{s}": jordanize_answers(n, s) ...}, indent=1)`` over
    `JORDANIZE_N2` and seeds 2026 and 7.
    """
    data = build_corpus_field(name)
    settings = PipelineSettings(
        integrator=IntegratorSettings(step=1e-2, seed=seed), seed=seed)
    result = jordanize(data["field"], data["chart"], settings, grid=5)
    ver = result.verification
    return {
        "stages": [{"k": rep.k,
                    "clauses": [[c.clause, _repr_floats(c.max_residual),
                                 _repr_floats(c.witness)]
                                for c in rep.clauses]}
                   for rep in result.stage_reports],
        "max_deviation": _repr_floats(ver.max_deviation),
        "max_bracket": _repr_floats(ver.max_bracket),
        "deviation_witness": _repr_floats(ver.deviation_witness),
    }


@pytest.mark.parametrize("seed", [2026, 7])
@pytest.mark.parametrize("name", JORDANIZE_N2)
def test_jordanize_reports_pinned(name, seed):
    golden = json.loads(JORDANIZE_GOLDEN.read_text())
    assert jordanize_answers(name, seed) == golden[f"{name}@{seed}"]


JORDANIZE_N3_GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
                       / "jordanize_n3_reports.json")


@pytest.mark.parametrize("name", ["example35-n3", "example35-n3-xn"])
def test_jordanize_n3_reports_pinned(name):
    # written by json.dump({f"{n}@2026": jordanize_answers(n, 2026) ...},
    # indent=1) over both names
    golden = json.loads(JORDANIZE_N3_GOLDEN.read_text())
    assert jordanize_answers(name, 2026) == golden[f"{name}@2026"]


CHART_N3_GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
                   / "chart_n3_points.json")


def chart_answers(chart: ChartMap, points) -> list:
    """forward, forward_with_frame and coords(forward) of the chart at each
    chart point, every float as its repr.

    The golden file holds {"points": P, "answers": chart_answers(chart,
    P)} of `assemble_chart("example35-n3")` at its top level, and of
    `example35-n3-xn` and of `example35-n3` under flow_order "asc" under
    the keys "example35-n3-xn" and "example35-n3@asc", with P the repr
    lists of ``latin_hypercube(chart.chart_ranges(), 8, 2026)``; written
    by `json.dump(..., indent=1)`.
    """
    out = []
    for y in points:
        q = chart.forward(y)
        x, D = chart.forward_with_frame(y)
        out.append({"forward": _repr_floats(q.tolist()),
                    "frame_point": _repr_floats(x.tolist()),
                    "frame": _repr_floats(D.tolist()),
                    "coords": _repr_floats(chart.coords(q).tolist())})
    return out


@pytest.mark.parametrize("key, name, order", [
    (None, "example35-n3", "desc"),
    ("example35-n3-xn", "example35-n3-xn", "desc"),
    # the pulled-back flow starts off the section, through start_coords
    ("example35-n3@asc", "example35-n3", "asc"),
], ids=["example35-n3", "example35-n3-xn", "example35-n3-asc"])
def test_chart_n3_answers_pinned(key, name, order):
    golden = json.loads(CHART_N3_GOLDEN.read_text())
    golden = golden[key] if key else golden
    points = [np.array([float(v) for v in p]) for p in golden["points"]]
    chart = assemble_chart(name, PipelineSettings(flow_order=order))
    assert chart_answers(chart, points) == golden["answers"]
