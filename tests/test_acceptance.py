"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line with its runtime (visible with
pytest -s; pytest prints captured output on failure).  Criteria 5 and 6
share one pipeline build; its construction time is charged to criterion 5.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from endochart import expr as ex
from endochart.charts import PipelineSettings, jordanize
from endochart.cli import main
from endochart.corpus import (CORPUS, Example35Spec, build_corpus_field,
                              conjugated_constant, example35_field,
                              example35_solve, example38_field)
from endochart.expr import Box, sample_box
from endochart.fields import (coordinate_field, lie_bracket, nijenhuis,
                              prop22_residual)
from endochart.flows import IntegratorSettings
from endochart.structure import (image_frame, invariant_factors,
                                 involutivity_residual, kernel_frame,
                                 nijenhuis_residual, rank_profile,
                                 sum_distribution, torsion_tol)
from test_charts import compare_charts
from test_structure import kernel_chain_multiplicities, random_nilpotent

SETTINGS = PipelineSettings(integrator=IntegratorSettings(step=1e-2))


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        mark = "PASS" if exc_type is None else "FAIL"
        print(f"[{mark}] {self.label} ({elapsed:.1f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label}: runtime {elapsed:.1f}s exceeds {self.seconds}s"
        return False


@pytest.fixture(scope="module")
def n3_pipeline():
    """Shared n = 3 pipeline build for criteria 5 and 6."""
    spec = Example35Spec.from_theta(3, r=3, box=Box.cube(3, 0.3))
    A, chart = example35_field(spec)
    t0 = time.monotonic()
    result = jordanize(A, chart, SETTINGS, grid=5, verify_tol=1e-5)
    build_time = time.monotonic() - t0
    return spec, A, result, build_time


def test_criterion_1_counterexample_pair(tmp_path):
    with _Budget("criterion 1: counterexample pair", 2 * 5.0):
        box = Box.cube(4, 1.0)
        t0 = time.monotonic()
        out = tmp_path / "r37.json"
        code = main(["corpus", "example37", "--samples", "200",
                     "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 2
        assert report["conditions"]["nijenhuis_zero"]["max_residual"] <= 1e-9
        inv = report["conditions"]["kernel_involutivity"]["per_power"][0]
        assert inv["max_residual"] >= 0.05
        assert inv["witness_point"] is not None
        assert time.monotonic() - t0 < 5.0, "example37 runtime"

        t0 = time.monotonic()
        out = tmp_path / "r38.json"
        code = main(["corpus", "example38", "--samples", "200",
                     "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 2
        inv = report["conditions"]["kernel_involutivity"]["per_power"][0]
        assert inv["max_residual"] <= 1e-9
        # the torsion value matches its closed form -exp(x2) d/dx1
        A = example38_field()
        N = nijenhuis(A, coordinate_field(4, 3), coordinate_field(4, 4))
        closed = ex.negate(ex.exp(ex.var(2)))
        f = N.evaluator()
        g = ex.compile_expr(closed)
        for p in sample_box(box, 200, seed=5):
            v = f(p)
            assert abs(v[0] - g(p)) <= 1e-10
            assert np.max(np.abs(v[1:])) <= 1e-10
        assert time.monotonic() - t0 < 5.0, "example38 runtime"


def test_criterion_2_reduction_identities():
    with _Budget("criterion 2: torsion reduction identities", 2.0):
        worst = 0.0
        for name in CORPUS:
            data = build_corpus_field(name)
            for p, q in product((1, 2, 3), repeat=2):
                r = prop22_residual(data["field"], p, q, data["box"],
                                    samples=100, seed=11)
                worst = max(worst, r.max_residual)
        assert worst <= 1e-8, f"worst identity residual {worst:.3e}"


def test_criterion_3_image_and_sum_involutivity():
    # Image distributions are involutive for every torsion-free field.  The
    # kernel+image sums are involutive under the full hypothesis set (the
    # torsion-free counterexample field has ker A + Im A = ker A, which is
    # NOT involutive -- asserted below), so the sums are checked on the
    # fields satisfying all three conditions.
    from endochart.structure import theorem13_report
    with _Budget("criterion 3: image and kernel+image involutivity", 30.0):
        checked_sums = 0
        for name in CORPUS:
            data = build_corpus_field(name)
            A, box = data["field"], data["box"]
            x = sample_box(box, 60, 7).T
            torsion = nijenhuis_residual(A, x, torsion_tol(A, box, 7))
            if not torsion.passed:
                continue  # nonzero torsion: hypotheses not met
            n = invariant_factors(rank_profile(A, box.center).ranks).index
            for p in range(1, n):
                D = image_frame(A, p, box, seed=7)
                res = involutivity_residual(D, x)
                assert res.max_residual <= 1e-8, (name, "Im", p, res.max_residual)
            t13 = theorem13_report(A, box, samples=60, seed=7)
            if not t13.integrable:
                continue
            for p in range(1, n):
                K = kernel_frame(A, p, box, seed=7)
                for q in range(1, n):
                    S = sum_distribution(K, image_frame(A, q, box, seed=7))
                    res = involutivity_residual(S, x)
                    assert res.max_residual <= 1e-8, (name, p, q, res.max_residual)
                    checked_sums += 1
        assert checked_sums >= 8
        # the excluded case, pinned: vanishing torsion alone does not make
        # the sums involutive (ker A + Im A = ker A for this field)
        data = build_corpus_field("example37")
        A, box = data["field"], data["box"]
        S = sum_distribution(kernel_frame(A, 1, box, seed=7),
                             image_frame(A, 1, box, seed=7))
        assert S.rank == 3
        res = involutivity_residual(S, sample_box(box, 60, 7).T)
        assert res.max_residual >= 0.05


def test_criterion_4_pipeline_n2():
    with _Budget("criterion 4: constructive pipeline, n = 2", 60.0):
        oracle = conjugated_constant(seed=20260811, d=3, multiplicities=(1, 1),
                                     shear_degree=2, box=Box.cube(3, 0.5))
        result = jordanize(oracle.field, oracle.chart, SETTINGS, grid=5,
                           verify_tol=1e-5)
        assert result.verification.max_deviation <= 1e-5
        assert result.verification.max_bracket <= 1e-5


def test_criterion_5_pipeline_n3(n3_pipeline):
    spec, A, result, build_time = n3_pipeline
    with _Budget("criterion 5: constructive pipeline, n = 3", 180.0 - build_time):
        stage1 = result.stage_reports[1]
        assert stage1.clause("4").max_residual <= 1e-5
        assert result.verification.max_deviation <= 1e-5
        # the determining relation for the chart component y_(n-1): its
        # x_(n-1)-derivative is 1/alpha_(n-1)  (the stated identity
        # "y_(n-1) = P_1" pins the solution through this relation; the
        # component itself is its section-normalised primitive)
        alpha2 = ex.compile_expr(spec.alphas[-1])
        ys = result.chart.sample_coords(100, seed=23)
        for y in ys:
            p, frame = result.chart.forward_with_frame(y)
            dy = np.linalg.inv(frame)
            rel = alpha2(p) * dy[1, 1]   # slot (1, 0) row, x_2 column
            assert abs(rel - 1.0) <= 1e-4


def test_criterion_6_oracle_cross_check(n3_pipeline):
    spec, A, result, _ = n3_pipeline
    with _Budget("criterion 6: quadrature oracle cross-check", 180.0):
        oracle = example35_solve(spec, panels=1024)
        ys = result.chart.sample_coords(200, seed=29)
        worst = 0.0
        for y in ys:
            p = result.chart.forward(y)
            worst = max(worst, float(np.max(np.abs(oracle(p) - y))))
        assert worst <= 1e-4, f"oracle disagreement {worst:.3e}"


def test_criterion_7_order_independence():
    with _Budget("criterion 7: flow-order independence", 300.0):
        oracle = conjugated_constant(seed=4, d=4, multiplicities=(0, 2),
                                     shear_degree=2)
        r_desc = jordanize(oracle.field, oracle.chart, SETTINGS, grid=3)
        asc = PipelineSettings(integrator=SETTINGS.integrator, flow_order="asc")
        r_asc = jordanize(oracle.field, oracle.chart, asc, grid=3)
        dev = compare_charts(r_desc.chart, r_asc.chart, samples=100, seed=31)
        assert dev <= 1e-5, f"order dependence {dev:.3e}"


def test_criterion_8_property_floor():
    with _Budget("criterion 8: property floor", 30.0):
        # kernel-pair brackets land two powers deeper in the kernel flag
        rng = np.random.default_rng(37)
        nontrivial = 0
        for name in CORPUS:
            data = build_corpus_field(name)
            A, box = data["field"], data["box"]
            x = sample_box(box, 40, 7).T
            if not nijenhuis_residual(A, x, torsion_tol(A, box, 7)).passed:
                continue
            n = invariant_factors(rank_profile(A, box.center).ranks).index
            from endochart.fields import VectorField, apply_endo, endo_power
            for p in range(1, n):
                K = kernel_frame(A, p, box, seed=7)
                if K.rank < 2:
                    continue
                A2p = endo_power(A, min(2 * p, n))
                Ap = endo_power(A, p)
                for _ in range(3):
                    c1 = rng.uniform(-1, 1, size=K.rank)
                    c2 = rng.uniform(-1, 1, size=K.rank)
                    X = VectorField(tuple(
                        ex.add(*[ex.mul(ex.const(c1[i]), K.frame[i].components[m])
                                 for i in range(K.rank)]) for m in range(A.dim)))
                    Y = VectorField(tuple(
                        ex.add(*[ex.mul(ex.const(c2[i]), K.frame[i].components[m])
                                 for i in range(K.rank)]) for m in range(A.dim)))
                    bracket = lie_bracket(X, Y)
                    B = apply_endo(A2p, bracket)
                    f = B.evaluator()
                    leave = apply_endo(Ap, bracket).evaluator() if 2 * p < n else None
                    for pt in sample_box(box, 40, seed=13,
                                         include_corners=False):
                        assert np.max(np.abs(f(pt))) <= 1e-8, (name, p)
                        if leave is not None and np.max(np.abs(leave(pt))) > 1e-3:
                            nontrivial += 1
        # the remark must bite somewhere: brackets that genuinely leave
        # ker A^p while staying in ker A^(2p)
        assert nontrivial > 0
        # block multiplicities agree exactly with brute-force partitioning
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            M, mults = random_nilpotent(rng, d)
            from endochart.fields import EndoField
            prof = invariant_factors(
                rank_profile(EndoField.from_constant(M), tuple([0.0] * d)).ranks)
            assert prof.multiplicities == mults
            assert kernel_chain_multiplicities(M) == mults


def test_criterion_9_negative_path(tmp_path):
    with _Budget("criterion 9: negative-path integrity", 10.0):
        out = tmp_path / "r.json"
        code = main(["corpus", "example38", "--samples", "40", "--force",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        stage0 = report["induction"][0]
        assert stage0["k"] == 0
        failing = {name: c for name, c in stage0["clauses"].items()
                   if not c["pass"]}
        assert failing, "a clause must fail"
        witness = next(iter(failing.values()))["witness"]
        assert witness is not None and "(1, 0), (1, 1)" in witness[0]
