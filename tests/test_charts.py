import itertools
import json
import pathlib

import numpy as np
import pytest

from endochart import expr as ex
from endochart import charts
from endochart.charts import (AdaptedChart, AdaptedChartError, ChartMap,
                              FrameState, InductionError, PipelineSettings,
                              Section, basis_slots, build_chart,
                              compare_charts, hk_residuals, induction_step,
                              initial_frame, jordan_matrix, jordanize,
                              validate_adapted_chart, verify_integral_chart)
from endochart.corpus import (Example35Spec, build_corpus_field,
                              conjugated_constant, constant_jordan,
                              example35_field, example38_chart,
                              example38_field)
from endochart.expr import Box
from endochart.flows import (BoxExitError, FlowSpec, IntegratorSettings,
                             integrate_flow)

FAST = PipelineSettings(integrator=IntegratorSettings(step=2e-2), hk_samples=3)
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
        for i, z in enumerate(state1.fields):
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
        asc = PipelineSettings(integrator=FAST.integrator, hk_samples=3,
                               flow_order="asc")
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

    def test_shifted_section(self):
        spec = Example35Spec.from_theta(2, box=Box.cube(2, 0.4))
        A, chart = example35_field(spec)
        shifted = PipelineSettings(integrator=FAST.integrator, hk_samples=3,
                                   section_offsets=((0, 0.1),))
        r1 = jordanize(A, chart, FAST, grid=3)
        r2 = jordanize(A, chart, shifted, grid=3)
        assert r2.verification.max_deviation <= 1e-5
        p = (0.15, 0.2)
        y1 = r1.chart.coords(p)
        y2 = r2.chart.coords(p)
        # quotient component agrees; the flow time shifts with the section
        assert y1[1] == pytest.approx(y2[1], abs=1e-12)
        assert abs(y1[0] - y2[0]) > 1e-3


def n3_strong_data() -> dict:
    """Strongly nonlinear n = 3 instance (theta = t^2 on a wider box)."""
    spec = Example35Spec.from_theta(3, r=1, box=Box.cube(3, 0.5))
    A, chart = example35_field(spec)
    return {"spec": spec, "field": A, "chart": chart}


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
                v = chart.frame_field(slot).value(p)
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
        s = Section.for_chart(chart, offsets={0: 0.05})
        x = s.embed((0.3, -0.2))
        assert x[0] == 0.05
        assert np.allclose(s.project(x), (0.3, -0.2))

    def test_initial_frame_fields(self):
        spec = Example35Spec.from_theta(3)
        A, chart = example35_field(spec)
        state = initial_frame(A, chart, FAST)
        assert state.k == 0
        assert state.kernel_orders == [3]
        assert len(state.fields) == 1

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
        # grid frames come from block transports, forward_with_frame from
        # one start at a time
        order = chart._chart.application_order
        frames = charts._grid_frames(chart, grid)
        assert len(frames) == grid ** chart.pipeline.d
        for (sc, tpre), (p, frame) in frames.items():
            t = [tpre[order.index(alpha)] for alpha in range(len(order))]
            q, expect = chart.forward_with_frame(np.array(t + list(sc)))
            assert q.tobytes() == p.tobytes()
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
        for (sc, tpre), (p, frame) in charts._grid_frames(chart, 5).items():
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
        frames = charts._grid_frames(chart, 3)
        assert len(frames) == 3 ** chart.pipeline.d
        for (sc, tpre), (p, frame) in frames.items():
            t = [tpre[order.index(alpha)] for alpha in range(len(order))]
            q, D = stage.forward_differential(np.array(t + list(sc)))
            assert q.tobytes() == p.tobytes()
            assert frame.tobytes() == D.tobytes()


class TestOneBracketRule:
    def test_verification_brackets_symbolic_pairs_exactly(self, monkeypatch):
        # the two image slots of conjugated-n2-d4 are symbolic fields
        chart = assemble_chart("conjugated-n2-d4")
        fields = [chart.frame_field(slot) for slot in chart.slots]
        assert sum(f.symbolic for f in fields) == 2
        pairs = []
        original = charts.numeric_bracket

        def recording(X, Y, p, h):
            pairs.append((X.symbolic, Y.symbolic))
            return original(X, Y, p, h=h)
        monkeypatch.setattr(charts, "numeric_bracket", recording)
        verify_integral_chart(chart.pipeline.A, chart, grid=2)
        samples = chart.pipeline.settings.bracket_samples
        assert len(pairs) == samples * (len(fields) * (len(fields) - 1) // 2 - 1)
        assert (True, True) not in pairs

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
        assert len(calls) == (kernel * len(state.fields)
                              + slots * (slots - 1) // 2
                              + images * (images - 1) // 2)

    def test_hk_computes_only_the_named_clauses(self, monkeypatch):
        # the final stage reports clauses 1, 3 and 4: no kernel frame is
        # built and every numeric bracket is a clause-4 slot pair
        data = build_corpus_field("example35-n2")
        state = induction_step(initial_frame(data["field"], data["chart"],
                                             FAST, check=False))
        frames, brackets = [], []
        kernel, bracket = charts.kernel_frame, charts.numeric_bracket

        def recording_frame(*args, **kwargs):
            frames.append(args)
            return kernel(*args, **kwargs)

        def recording_bracket(X, Y, p, h):
            brackets.append((X, Y))
            return bracket(X, Y, p, h=h)
        monkeypatch.setattr(charts, "kernel_frame", recording_frame)
        monkeypatch.setattr(charts, "numeric_bracket", recording_bracket)
        rep = hk_residuals(state, clauses=("1", "3", "4"))
        assert [c.clause for c in rep.clauses] == ["1", "3", "4"]
        assert frames == []
        slots = [state.pipeline.generator(a, i, state.k)
                 for a, i in state.pipeline.slots]
        pairs = {(id(X), id(Y)) for X, Y in brackets}
        assert pairs == {(id(X), id(Y)) for X, Y in
                         itertools.combinations(slots, 2)}
        assert len(brackets) == len(pairs) * (FAST.hk_samples + 1)


def assemble_chart(name_or_data, settings=PipelineSettings()) -> ChartMap:
    """The integral chart without stage checks or verification."""
    data = (build_corpus_field(name_or_data) if isinstance(name_or_data, str)
            else name_or_data)
    state = initial_frame(data["field"], data["chart"], settings, check=False)
    for _ in range(data["chart"].index - 1):
        state = induction_step(state)
    return build_chart(state, check=False)


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

    def test_differential_of_stage0_chart(self):
        pipe = assemble_chart("example35-n3").pipeline
        stage = pipe.stage_chart(0)
        N = stage.n_flows
        E = pipe.section.basis_matrix()
        h = 1e-5
        # flow times away from step-count changes under the +-h shifts
        for y in ([0.0437, -0.0615, 0.052], [-0.0812, 0.0264, -0.073],
                  [0.0, 0.0, 0.1]):
            y = np.array(y)
            x, D = stage.forward_differential(y)
            s, t = y[N:], y[:N]
            assert x.tobytes() == stage.forward(s, t).tobytes()
            _, W = stage.forward_transport(s, t, E)
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
        z, z_other = chart.frame_field((0, 0)), other.frame_field((0, 0))
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
            fields = [chart.frame_field(slot) for slot in slots]
            return [[z.value(q).tobytes() for z in fields] for q in points]
        assert values(forward, qs) == values(reverse, qs[::-1])[::-1]

    def test_point_caches_are_bounded(self, monkeypatch):
        # the field and frame caches keep their last MEMO points; a value
        # depends on its point alone, so an evicted one comes back bit for bit
        monkeypatch.setattr(charts.ComputedVectorField, "MEMO", 2)
        monkeypatch.setattr(charts._TransportedFrame, "MEMO", 2)
        chart = assemble_chart("example35-n2")
        frame = charts._TransportedFrame(chart._chart)
        z = frame.field(0)
        qs = [chart.forward(y) for y in chart.sample_coords(4, seed=3)]
        first = [z.value(q).tobytes() for q in qs]
        assert z.cache_size() == 2 and len(frame._cache) == 2
        assert z.value(qs[0]).tobytes() == first[0]

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
                spec = stage.specs[alpha]
                if spec.generator.symbolic:
                    x = integrate_flow(spec, x, float(t[alpha]))
                else:
                    x, _, _ = stage._computed_flow(alpha, x, float(t[alpha]))
            assert np.max(np.abs(stage.forward(s, t) - x)) <= tol

    @pytest.mark.parametrize("order", ["desc", "asc"])
    def test_transport_reuses_the_newton_trajectories(self, order,
                                                      monkeypatch):
        # eval_all = inverse (Newton, ending on a forward map at the
        # solution) + forward_transport there: the transport integrates only
        # the +-h trajectories of the computed flow.  Under "asc" the
        # computed flow starts off the section, so each start inverts the
        # parent once: the transport does so for the +-h starts only.
        settings = PipelineSettings(flow_order=order)
        runs, starts = [], []
        integrate = charts.integrate_flow
        start_inverse = charts._StageChart.inverse

        def counting(spec, p0, t):
            if isinstance(spec.generator, charts._Pullback) and t != 0.0:
                runs.append((t, np.asarray(p0).tobytes()))
            return integrate(spec, p0, t)

        def counting_inverse(self, q, t0=None):
            if t0 is not None:          # a flow start, not a frame value
                starts.append(q)
            return start_inverse(self, q, t0)
        monkeypatch.setattr(charts, "integrate_flow", counting)
        monkeypatch.setattr(charts._StageChart, "inverse", counting_inverse)
        q = np.array([0.031, -0.047, 0.052])
        assemble_chart("example35-n3", settings)._chart.inverse(q)
        newton_runs, newton_starts = len(runs), len(starts)
        assert newton_runs > 0
        runs.clear()
        starts.clear()
        chart = assemble_chart("example35-n3", settings)
        charts._TransportedFrame(chart._chart).eval_all(q)
        m = len(chart.pipeline.section.axes)
        assert len(runs) == newton_runs + 2 * m
        assert len(set(runs)) == len(runs)
        if order == "desc":
            assert newton_starts == 0 and starts == []
        else:
            assert newton_starts > 0
            assert len(starts) == newton_starts + 2 * m

    def test_trajectory_memo_keys_and_bound(self, monkeypatch):
        # a start on the section resolves to (0, s) whatever `near` says, so
        # a second lookup with another `near` integrates nothing; the memo
        # keeps at most 2 MEMO entries (input keys and (t, start) keys), and
        # the parent at most its MEMO differentials
        monkeypatch.setattr(charts._Pullback, "MEMO", 2)
        monkeypatch.setattr(charts._StageChart, "MEMO", 3)
        chart = assemble_chart("example35-n3")
        stage = chart._chart
        gen = stage.specs[stage.flow_slots.index((1, 0))].generator
        runs = []
        integrate = charts.integrate_flow

        def counting(spec, p0, t):
            runs.append(t)
            return integrate(spec, p0, t)
        monkeypatch.setattr(charts, "integrate_flow", counting)
        x = chart.pipeline.section.embed(np.array([0.05]))
        a = gen.flow(x, 0.04, near=np.array([0.01, 0.02, 0.05]))
        b = gen.flow(x, 0.04, near=np.array([-0.03, 0.0, 0.05]))
        assert len(runs) == 1
        assert a[0].tobytes() == b[0].tobytes()
        for t in (0.01, 0.02, 0.03, 0.05):
            gen.flow(x, t)
        assert len(gen._flows) == 4
        assert len(gen.parent._differentials) == 3

    def test_computed_flow_leaving_box(self):
        # the working box is the chart box; the computed flow (slot (1, 0))
        # at t = 2 carries sigma(s) out of it
        settings = PipelineSettings(box_margin=1.0)
        chart = assemble_chart("example35-n3", settings)
        stage = chart._chart
        alpha = stage.flow_slots.index((1, 0))
        assert not stage.generators[alpha].symbolic
        y = np.zeros(chart.pipeline.d)
        y[alpha] = 2.0
        with pytest.raises(BoxExitError) as err:
            chart.forward(y)
        assert 0.0 < err.value.time < 2.0
        assert not chart.pipeline.working_box.contains(err.value.point)


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
