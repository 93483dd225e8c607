import json
import pathlib

import numpy as np
import pytest

from endochart import corpus, structure
from endochart import expr as ex
from endochart.expr import Box, sample_box
from endochart.fields import (EndoField, _nprime_raw, apply_endo,
                              coordinate_field, endo_power, jet_evaluator,
                              nijenhuis, nprime_kernel, power_jets)
from endochart.fieldfile import load_field_document
from endochart.reporting import theorem13_to_dict
from endochart.structure import (AnnihilationError, Distribution,
                                 InconsistentRanksError, NonNilpotentError,
                                 PivotDegenerationError, constancy_check,
                                 corollary15_report, image_frame,
                                 invariant_factors, kernel_frame,
                                 involutivity_residual, nijenhuis_residual,
                                 nullspace_frame, poly_endo, rank_profile,
                                 sum_distribution, theorem13_report,
                                 torsion_tol)
from test_fields import field_37, field_38

BOX4 = Box.cube(4, 1.0)
Z = ex.const(0.0)


def field_35_n3(alpha1, alpha2) -> EndoField:
    rows = [
        [Z, ex.const(1.0), alpha1],
        [Z, Z, alpha2],
        [Z, Z, Z],
    ]
    return EndoField(tuple(tuple(r) for r in rows))


class TestRankProfile:
    def test_37(self):
        r = rank_profile(field_37(), (0.1, -0.2, 0.3, 0.4))
        assert r.ranks == (4, 1, 0)

    def test_38(self):
        r = rank_profile(field_38(), (0.1, -0.2, 0.3, 0.4))
        assert r.ranks == (4, 2, 0)

    def test_zero_field(self):
        r = rank_profile(EndoField.zero(3), (0.0, 0.0, 0.0))
        assert r.ranks == (3, 0)

    def test_matches_numpy_rank(self):
        rng = np.random.default_rng(17)
        for A in (field_37(), field_38()):
            p = rng.uniform(-1, 1, size=4)
            M = A(p)
            ours = rank_profile(A, p).ranks
            assert ours[1] == np.linalg.matrix_rank(M, tol=1e-10)


def random_nilpotent(rng, d):
    """Random constant nilpotent matrix with known multiplicities."""
    sizes = []
    left = d
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    J = np.zeros((d, d))
    pos = 0
    for s in sizes:
        for k in range(s - 1):
            J[pos + k, pos + k + 1] = 1.0
        pos += s
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    M = Q @ J @ Q.T
    n = max(sizes)
    mults = tuple(sizes.count(a) for a in range(1, n + 1))
    return M, mults


def kernel_chain_multiplicities(M):
    """Independent block extraction from iterated-kernel nullities."""
    d = M.shape[0]
    nullities = [0]
    P = np.eye(d)
    while nullities[-1] < d:
        P = P @ M
        nullities.append(d - np.linalg.matrix_rank(P, tol=1e-9))
    ge = [nullities[a] - nullities[a - 1] for a in range(1, len(nullities))]
    ge.append(0)
    return tuple(ge[a] - ge[a + 1] for a in range(len(ge) - 1))


class TestInvariantFactors:
    def test_spec_sequences(self):
        assert invariant_factors((4, 1, 0)).multiplicities == (2, 1)
        assert invariant_factors((4, 2, 0)).multiplicities == (0, 2)

    def test_cyclic(self):
        n = 5
        seq = tuple(range(n, -1, -1))
        prof = invariant_factors(seq)
        assert prof.multiplicities == (0, 0, 0, 0, 1)
        assert prof.index == n

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NonNilpotentError):
            invariant_factors((4, 2, 2))

    def test_rejects_inconsistent(self):
        # d_1 = 5 - 2*1 + 1 = 4, d_2 = 1 - 2 + 0 = -1
        with pytest.raises(InconsistentRanksError):
            invariant_factors((5, 1, 1, 0))

    def test_against_construction_and_kernel_chain(self):
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            M, mults = random_nilpotent(rng, d)
            A = EndoField.from_constant(M)
            prof = invariant_factors(rank_profile(A, tuple([0.0] * d)).ranks)
            assert prof.multiplicities == mults
            assert kernel_chain_multiplicities(M) == mults


class TestConstancy:
    def test_constant_matrix(self):
        rng = np.random.default_rng(1)
        M, _ = random_nilpotent(rng, 4)
        res = constancy_check(EndoField.from_constant(M),
                              sample_box(BOX4, 50, 2).T)
        assert res.constant and res.profile is not None

    def test_rank_drop_detected(self):
        # superdiagonal entry x1 drops rank on the hyperplane x1 = 0
        rows = [[Z, ex.var(1)], [Z, Z]]
        A = EndoField(tuple(tuple(r) for r in rows))
        res = constancy_check(A, sample_box(Box.cube(2, 1.0), 60, 3).T)
        assert not res.constant
        assert res.witness is not None

    def test_shaky_warnings_in_point_order(self):
        # the (2, 3) entry sits within 10x of the rank threshold everywhere
        small = ex.mul(ex.const(1e-7), ex.add(ex.const(1.0),
                                              ex.mul(ex.const(0.1), ex.var(1))))
        rows = [[Z, ex.const(1.0), Z], [Z, Z, small], [Z, Z, Z]]
        A = EndoField(tuple(tuple(r) for r in rows))
        box = Box.cube(3, 1.0)
        res = constancy_check(A, sample_box(box, 20, 8).T)
        assert res.constant and res.ranks == (3, 2, 1, 0)
        assert res.warnings == tuple(
            f"singular value near threshold for power 1 at "
            f"{tuple(round(float(v), 6) for v in p)}"
            for p in sample_box(box, 20, 8)[:5])

    def test_35_alpha_positive(self):
        alpha1 = ex.mul(ex.var(3), ex.var(3))
        alpha2 = ex.add(ex.const(1.0), ex.mul(ex.const(0.2), ex.var(3)))
        A = field_35_n3(alpha1, alpha2)
        res = constancy_check(A, sample_box(Box.cube(3, 0.5), 60, 4).T)
        assert res.constant
        assert res.profile.multiplicities == (0, 0, 1)


class TestKernelFrame:
    def test_38_kernel(self):
        D = kernel_frame(field_38(), 1, BOX4)
        assert D.rank == 2
        [cols] = D.values_on(np.array([[0.3], [-0.2], [0.5], [0.1]]))
        # ker A = span(d1, d2)
        assert np.allclose(np.abs(cols[:2, :]).sum(), np.abs(cols).sum())

    def test_37_kernel_annihilated(self):
        A = field_37()
        D = kernel_frame(A, 1, BOX4)
        assert D.rank == 3
        for F in D.frame:
            img = apply_endo(A, F)
            for c in img.components:
                r = ex.is_zero_on_box(c, BOX4, samples=60, tol=1e-10, seed=5)
                assert r.passed, r.max_abs

    def test_full_power_gives_full_frame(self):
        D = kernel_frame(field_38(), 2, BOX4)
        assert D.rank == 4

    def test_pivot_degeneration(self):
        # pivot expression x1 + 0.5 changes sign inside the box
        rows = [[Z, ex.add(ex.var(1), ex.const(0.5))], [Z, Z]]
        A = EndoField(tuple(tuple(r) for r in rows))
        with pytest.raises(PivotDegenerationError):
            kernel_frame(A, 1, Box.cube(2, 1.0))


class TestImageFrame:
    def test_37_image(self):
        D = image_frame(field_37(), 1, BOX4)
        assert D.rank == 1
        v = D.frame[0]((0.0, 0.3, 0.0, 0.0))
        assert abs(v[0]) > 0 and np.allclose(v[1:], 0)

    def test_power_zero_identity(self):
        D = image_frame(field_38(), 0, BOX4)
        assert D.rank == 4
        assert np.allclose(D.values_on(np.zeros((4, 1)))[0], np.eye(4))

    def test_35_im_a2(self):
        alpha2 = ex.add(ex.const(1.0), ex.mul(ex.const(0.3), ex.var(3)))
        A = field_35_n3(ex.const(0.0), alpha2)
        D = image_frame(A, 2, Box.cube(3, 0.5))
        assert D.rank == 1
        v = D.frame[0]((0.1, 0.2, 0.3))
        assert abs(v[0]) > 0 and np.allclose(v[1:], 0)


class TestInvolutivity:
    def test_37_kernel_not_involutive(self):
        D = kernel_frame(field_37(), 1, BOX4)
        res = involutivity_residual(D, sample_box(BOX4, 100, 6).T)
        assert not res.involutive
        assert res.max_residual >= 0.05

    def test_38_kernel_involutive(self):
        D = kernel_frame(field_38(), 1, BOX4)
        res = involutivity_residual(D, sample_box(BOX4, 100, 6).T)
        assert res.involutive
        assert res.max_residual <= 1e-9

    def test_image_involutive_when_torsion_vanishes(self):
        D = image_frame(field_37(), 1, BOX4)
        res = involutivity_residual(D, sample_box(BOX4, 60, 6).T)
        assert res.involutive


class TestSumDistribution:
    def test_kernel_plus_identity_is_full(self):
        A = field_38()
        D1 = kernel_frame(A, 1, BOX4)
        D2 = image_frame(A, 0, BOX4)
        S = sum_distribution(D1, D2)
        assert S.rank == 4

    def test_disjoint_coordinate_frames(self):
        d1 = Distribution((coordinate_field(4, 1), coordinate_field(4, 2)),
                          2, "user", BOX4)
        d2 = Distribution((coordinate_field(4, 3),), 1, "user", BOX4)
        S = sum_distribution(d1, d2)
        assert S.rank == 3

    def test_ker_plus_im_involutive_for_35(self):
        alpha2 = ex.add(ex.const(1.0), ex.mul(ex.const(0.3), ex.var(3)))
        alpha1 = ex.mul(ex.const(0.5), ex.var(3))
        A = field_35_n3(alpha1, alpha2)
        box = Box.cube(3, 0.4)
        S = sum_distribution(kernel_frame(A, 1, box), image_frame(A, 2, box))
        res = involutivity_residual(S, sample_box(box, 60, 7).T)
        assert res.involutive


class TestTheorem13:
    def test_37_fails_involutivity(self):
        rep = theorem13_report(field_37(), BOX4, samples=100, seed=8)
        assert rep.condition_flags() == (True, True, False)
        assert not rep.integrable

    def test_38_fails_torsion(self):
        rep = theorem13_report(field_38(), BOX4, samples=100, seed=8)
        assert rep.condition_flags() == (True, False, True)
        assert not rep.integrable

    def test_35_passes(self):
        alpha2 = ex.add(ex.const(1.0), ex.mul(ex.const(0.3), ex.var(3)))
        alpha1 = ex.mul(ex.const(0.5), ex.var(3))
        A = field_35_n3(alpha1, alpha2)
        rep = theorem13_report(A, Box.cube(3, 0.4), samples=80, seed=8)
        assert rep.condition_flags() == (True, True, True)
        assert rep.integrable

    def test_non_nilpotent_redirects(self):
        with pytest.raises(NonNilpotentError):
            theorem13_report(EndoField.identity(3), Box.cube(3, 1.0))


class TestCorollary15:
    def test_nilpotent_factors_reduce_to_theorem13(self):
        A = field_38()
        # invariant factors X, X^2 ... here blocks are two size-2: X^2, X^2
        rep = corollary15_report(A, [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], BOX4,
                                 samples=60, seed=9)
        t13 = theorem13_report(A, BOX4, samples=60, seed=9)
        assert rep.torsion.passed == t13.torsion.passed
        assert all(c for _, _, c in rep.factor_ranks)

    def test_constant_diagonalizable(self):
        M = np.diag([2.0, 2.0, -1.0])
        A = EndoField.from_constant(M)
        # elementary divisors (X-2), (X-2), (X+1): supply distinct ones
        rep = corollary15_report(A, [(-2.0, 1.0), (1.0, 1.0)], Box.cube(3, 1.0),
                                 samples=40, seed=10)
        assert rep.integrable_conditions

    def test_block_field(self):
        # diag(lambda I2 + N(x), mu I1): invariant factors (X-l)^2, (X-m)
        lam, mu = 1.5, -0.5
        a = ex.add(ex.const(1.0), ex.mul(ex.const(0.3), ex.var(2)))
        rows = [
            [ex.const(lam), a, Z],
            [Z, ex.const(lam), Z],
            [Z, Z, ex.const(mu)],
        ]
        A = EndoField(tuple(tuple(r) for r in rows))
        box = Box.cube(3, 0.4)
        rep = corollary15_report(
            A, [(lam * lam, -2.0 * lam, 1.0), (-mu, 1.0)], box, samples=50, seed=11)
        assert rep.integrable_conditions

    def test_bad_factors_rejected(self):
        A = field_38()
        with pytest.raises(AnnihilationError):
            corollary15_report(A, [(0.0, 1.0)], BOX4, samples=30, seed=12)

    def test_poly_endo_horner(self):
        M = np.array([[1.0, 2.0], [0.0, 3.0]])
        A = EndoField.from_constant(M)
        P = poly_endo(A, (2.0, -1.0, 1.0))  # 2 - X + X^2
        expect = 2 * np.eye(2) - M + M @ M
        assert np.allclose(P((0.0, 0.0)), expect)


TORSION_CASES = {
    "example38": lambda: corpus.build_corpus_field("example38"),
    "block-mixed": lambda: corpus.build_corpus_field("block-mixed"),
    "conjugated-d3": lambda: _oracle(seed=1, d=3, multiplicities=(1, 1)),
    "conjugated-d4": lambda: _oracle(seed=9, d=4, multiplicities=(2, 1)),
    "conjugated-d5": lambda: _oracle(seed=3, d=5, multiplicities=(1, 2)),
    "dense": lambda: {"field": _dense_field(), "box": Box.cube(3, 0.5)},
}


def _dense_field() -> EndoField:
    """A field with no zero entries and no structure, so every term of the
    torsion formula contributes."""
    x1, x2, x3 = ex.var(1), ex.var(2), ex.var(3)
    rows = [[x2, ex.exp(x1), ex.mul(x3, x1)],
            [ex.div(1.0, ex.add(2.0, x3)), ex.mul(x1, x2), ex.sub(x3, 0.5)],
            [ex.intpow(x3, 2), ex.add(x1, 1.0), ex.mul(x2, x2, x3)]]
    return EndoField(tuple(tuple(r) for r in rows))


def _oracle(**kwargs):
    oracle = corpus.conjugated_constant(shear_degree=2, **kwargs)
    return {"field": oracle.field, "box": oracle.chart.box}


class TestTorsionKernel:
    """The 1-jet torsion kernel against the symbolic tensors, its oracle."""

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_matches_symbolic_nijenhuis(self, name):
        # N_A = N'_{A,A}, and N'_{A,A^q} for q = 1, 2 from the powers' jets
        data = TORSION_CASES[name]()
        A, box = data["field"], data["box"]
        d = A.dim
        pts = sample_box(box, 30, 5)
        jets = power_jets(jet_evaluator(A)(pts.T), 2)
        pairs = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
        index = np.array(pairs).T - 1
        kernels = {q: dict(zip(pairs, nprime_kernel(jets[1], jets[q], *index),
                               strict=True)) for q in (1, 2)}
        for i, j in pairs:
            X, Y = coordinate_field(d, i), coordinate_field(d, j)
            references = [(1, nijenhuis(A, X, Y))] + [
                (q, _nprime_raw(A, endo_power(A, q), X, Y)) for q in (1, 2)]
            for q, tensor in references:
                f = tensor.evaluator()
                symbolic = np.array([f(p) for p in pts]).T
                np.testing.assert_allclose(kernels[q][(i, j)], symbolic,
                                           rtol=1e-12, atol=1e-12)

    def test_example38_torsion_value(self):
        # N(d3, d4) = -exp(x2) d1, largest at x2 = 1 on the unit box
        A = corpus.example38_field()
        rep = nijenhuis_residual(A, sample_box(BOX4, 100, 2026).T,
                                 torsion_tol(A, BOX4))
        assert rep.max_residual == pytest.approx(np.e, rel=1e-14)
        assert rep.witness_pair == (3, 4)
        assert rep.witness_point[1] == 1.0


EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


@pytest.mark.parametrize("report", ["theorem13", "corollary15"])
def test_report_draws_its_sample_set_once(monkeypatch, report):
    # the rank, torsion and involutivity checks read the one sample set
    # their report draws
    draws = []
    original = structure.sample_box

    def recording(box, samples, seed, **kwargs):
        draws.append((box, samples, seed))
        return original(box, samples, seed, **kwargs)
    monkeypatch.setattr(structure, "sample_box", recording)
    if report == "theorem13":
        data = corpus.build_corpus_field("example37")
        box = data["box"]
        rep = theorem13_report(data["field"], box, samples=100, seed=7)
        assert len(rep.kernel_involutivity) == 1
    else:
        doc = load_field_document(EXAMPLES / "diagonalizable.json")
        box = doc.box
        rep = corollary15_report(doc.field, doc.factors, box, samples=100,
                                 seed=7)
        assert len(rep.factor_involutivity) == 2
    assert draws.count((box, 100, 7)) == 1


def test_corollary15_report_computes_the_entry_scale_once(monkeypatch):
    # the annihilation gate and the torsion gate share one entry scale
    calls = []
    original = EndoField.entry_scale

    def counting(self, box, seed=2026):
        calls.append(seed)
        return original(self, box, seed=seed)
    monkeypatch.setattr(EndoField, "entry_scale", counting)
    doc = load_field_document(EXAMPLES / "diagonalizable.json")
    rep = corollary15_report(doc.field, doc.factors, doc.box, seed=7)
    assert calls == [7]
    assert rep.torsion.tol == torsion_tol(doc.field, doc.box, 7)


GOLDEN =pathlib.Path(__file__).resolve().parent / "golden" / "check_reports.json"


@pytest.mark.parametrize("seed", [2026, 7])
def test_check_reports_pinned(seed):
    """Verdicts, residuals, witness points and pairs of `check` on every
    corpus field, as the CLI renders them."""
    golden = json.loads(GOLDEN.read_text())
    for name in corpus.CORPUS:
        data = corpus.build_corpus_field(name)
        rep = theorem13_report(data["field"], data["box"], seed=seed)
        assert theorem13_to_dict(rep) == golden[f"{name}@{seed}"], name
