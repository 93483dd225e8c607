"""Property tests over random fields and documents (hypothesis)."""

import contextlib
import functools
import io
import json
import sys
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from endochart import expr as ex  # noqa: E402
from endochart.charts import (PipelineSettings, _Pullback,  # noqa: E402
                              induction_step, initial_frame, jordan_matrix,
                              jordanize)
from endochart.cli import main  # noqa: E402
from endochart.corpus import (build_corpus_field,  # noqa: E402
                              conjugated_constant)
from endochart.expr import Box, sample_box  # noqa: E402
from endochart.fields import EndoField, VectorField  # noqa: E402
from endochart.flows import (BoxExitError, ComputedVectorField,  # noqa: E402
                             FlowSpec, IntegratorSettings, _point_flow,
                             _rk4_step, _steps, integrate_flow,
                             integrate_with_transport)
from endochart.structure import invariant_factors, rank_profile  # noqa: E402
from test_flows import line_reference  # noqa: E402

SETTINGS = PipelineSettings()     # the command-line defaults


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 50),
                  mults=st.sampled_from([(1, 1), (2, 1), (0, 2), (1, 2)]))
def test_conjugated_n2_fields_jordanize_and_straight_flows_match_rk4(seed,
                                                                     mults):
    d = sum(a * m for a, m in enumerate(mults, start=1))
    oracle = conjugated_constant(seed=seed, d=d, multiplicities=mults)
    # raises InductionError when a stage report fails
    result = jordanize(oracle.field, oracle.chart, SETTINGS)
    assert result.verification.passed
    pipe = result.chart.pipeline
    box = pipe.working_box
    # random starts only: the centre can meet the box boundary exactly,
    # where the rounding of RK4 and of the closed form may differ
    starts = sample_box(oracle.chart.box, 4, seed, include_corners=False,
                        include_center=False)
    straight = [g for g in (pipe.generator(a, i, 0)
                            for a, i in pipe.slots if a >= 1) if g.straight]
    for gen in straight:
        spec = FlowSpec(gen, SETTINGS.integrator, box)
        rk4 = FlowSpec(ComputedVectorField(gen.value, d), spec.settings, box)
        for p in starts:
            for t in (0.13, -0.29, 0.8):
                got, expect = _run(spec, p, t), _run(rk4, p, t)
                assert got[0] == expect[0]
                assert np.max(np.abs(got[1] - expect[1])) <= 1e-12


def _run(spec, p, t) -> tuple:
    """(time the flow left the box or t, the point where it stopped)."""
    try:
        return t, integrate_flow(spec, p, t)
    except BoxExitError as err:
        return err.time, np.array(err.point)


def _loop_field(a: float, b: float, c: float, kind: str = "loop") -> VectorField:
    """A field on R^4 that never moves x4: "loop", with a quotient, integer
    powers and exp, and "signs", of products only, so that the sign of a
    zero reaches the end, read x4 and are not straight (unless b or c is 0
    in "signs"); "straight" reads only x3 and x4, which it does not move;
    "constant" is (a, b, c, 0), which reads nothing and is straight."""
    x1, x2, x3, x4 = ex.var(1), ex.var(2), ex.var(3), ex.var(4)
    zero = ex.const(0.0)
    if kind == "constant":
        return VectorField((ex.const(a), ex.const(b), ex.const(c), zero))
    if kind == "straight":
        return VectorField((
            ex.div(a, ex.add(2.0, ex.mul(x3, x3))),
            ex.add(ex.mul(b, ex.exp(ex.mul(0.5, x4))), ex.intpow(x4, 3)),
            zero, zero))
    if kind == "signs":
        return VectorField((ex.mul(a, ex.intpow(x4, 3)),
                            ex.mul(b, ex.intpow(x4, 3)),
                            ex.mul(-c, x4, x2), zero))
    return VectorField((
        ex.add(ex.div(ex.mul(a, x2), ex.add(2.0, ex.mul(x1, x1))),
               ex.intpow(x4, 3)),
        ex.sub(ex.mul(b, ex.exp(ex.mul(0.5, x3))),
               ex.mul(ex.intpow(x2, 3), ex.exp(x4))),
        ex.add(ex.mul(c, x1, x2), ex.intpow(x3, 2), ex.mul(x4, x4, x1)),
        zero))


def _outcome(run) -> tuple:
    """("end", the flat state's bytes), or ("exit", time, the first three
    coordinates of the point) of the BoxExitError run raises."""
    try:
        return "end", np.concatenate([np.ravel(v) for v in run()]).tobytes()
    except BoxExitError as err:
        return "exit", err.time, np.array(err.point[:3]).tobytes()


_coef = st.floats(-2.0, 2.0)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(coefs=st.tuples(_coef, _coef, _coef), m=st.integers(0, 2),
                  start=st.tuples(*[st.sampled_from([0.0, -0.0])
                                    | st.floats(-0.9, 0.9)] * 3),
                  fixed=st.sampled_from([0.0, -0.0, 0.4, 1.5]),
                  t=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                  step=st.sampled_from([0.05, 0.1]),
                  kind=st.sampled_from(["loop", "straight", "signs",
                                        "constant"]),
                  frame_seed=st.integers(0, 2 ** 16))
# stage 1 of step 1 reads x4 = -0.0, every later stage x4 = -0.0 + h 0.0,
# which is 0.0 for h > 0; here the sign reaches the end
@hypothesis.example(coefs=(1.0, 1.0, 1.0), m=0, start=(0.0, 0.0, -0.0),
                    fixed=-0.0, t=0.1, step=0.1, kind="signs", frame_seed=0)
# constant flows: signed zeros that a zero slope keeps, under both signs of
# t; exits at the first step point (x1 + h a = 1.1) and at the last (x2 + 5 h
# b = -1.05 while 4 h b stays inside), with t of both signs
@hypothesis.example(coefs=(0.0, -0.0, 0.5), m=2, start=(-0.0, 0.0, -0.0),
                    fixed=-0.0, t=0.3, step=0.1, kind="constant", frame_seed=1)
@hypothesis.example(coefs=(-0.0, 0.0, 0.5), m=1, start=(0.0, -0.0, -0.0),
                    fixed=0.0, t=-0.3, step=0.1, kind="constant", frame_seed=2)
@hypothesis.example(coefs=(2.0, 0.0, 0.0), m=0, start=(0.9, 0.0, 0.0),
                    fixed=0.0, t=0.5, step=0.1, kind="constant", frame_seed=3)
@hypothesis.example(coefs=(-2.0, 0.0, 0.0), m=2, start=(0.9, 0.0, 0.0),
                    fixed=0.0, t=-0.5, step=0.1, kind="constant", frame_seed=4)
@hypothesis.example(coefs=(0.0, -1.0, 0.0), m=1, start=(0.0, -0.55, 0.0),
                    fixed=0.4, t=0.5, step=0.1, kind="constant", frame_seed=5)
@hypothesis.example(coefs=(0.0, 1.0, 0.0), m=0, start=(0.0, -0.55, 0.0),
                    fixed=0.4, t=-0.5, step=0.1, kind="constant", frame_seed=6)
def test_generated_rk4_loop_equals_numpy_rk4(coefs, m, start, fixed, t, step,
                                            kind, frame_seed):
    # the generated plan step against numpy references on the flat state
    # (x, W), x4 a coordinate the flow does not move (a signed zero, or
    # not, or outside the box): the RK4 oracle steps the state as a numpy array by the same
    # right-hand side, compiled for single points, and tests the box with
    # `Box.contains`; a straight flow, a constant one included, ends at
    # y + tF(y) and leaves where `line_reference` says.  The time column is
    # the field at the end.
    box = Box.cube(4, 1.0)
    spec = FlowSpec(_loop_field(*coefs, kind), IntegratorSettings(step=step),
                    box)
    gen = spec.generator
    # "signs" reads x2 only through x2 x4, which folds away with c = 0, and
    # moves it only by b x4^3
    straight = kind in ("straight", "constant") or (
        kind == "signs" and 0.0 in coefs[1:])
    assert gen.straight == straight
    W0 = np.random.default_rng(frame_seed).normal(size=(4, m))
    W0[1::2] = 0.0                  # zeros, which the closed form keeps
    W0[3] = -0.0
    y0 = np.concatenate([start, [fixed], W0.ravel()])
    size = len(y0)
    layout = (*range(size), *range(size, size + 4))

    def stepped():
        return [gen.plan_step(m, box, step, layout)(y0.tolist(), t)]

    def ended(y):
        return [y, gen.rhs(0)(y[:4])]
    got = _outcome(stepped)
    if straight:
        end = y0 + t * np.array(gen.rhs(m)(y0.tolist())) if t != 0.0 else y0
        expect = ("end", np.concatenate(ended(end)).tobytes())
        if t != 0.0:
            line = line_reference(spec, y0[:4], t)
            if line[0] == "exit":
                expect = ("exit", line[1], np.array(line[2][:3]).tobytes())
    else:
        oracle = FlowSpec(ComputedVectorField(gen.rhs(m), size), spec.settings,
                          box)
        expect = _outcome(lambda: ended(integrate_flow(oracle, y0, t)))
    assert got == expect
    # `_point_flow`, `integrate_flow` and `integrate_with_transport` take the
    # same step without the time column; at t = 0 the state is the start
    alone = _outcome(lambda: [_point_flow(spec, y0.tolist(), t, m)])
    assert alone[:1] == got[:1]
    if got[0] == "exit":
        assert alone == got
    else:
        assert alone[1] == got[1][:8 * size]
    if t != 0.0:
        x0 = y0[:4]
        whole = _outcome(lambda: integrate_with_transport(spec, x0, t, W0)
                         if m else [integrate_flow(spec, x0, t)])
        assert whole == alone


@functools.cache
def _stage0_pullback(name: str) -> _Pullback:
    """The stage-1 flow of A Z^(1) of an n = 3 corpus field, pulled back to
    the stage-0 chart, at the command-line defaults."""
    data = build_corpus_field(name)
    state = induction_step(initial_frame(data["field"], data["chart"],
                                         SETTINGS, check=False))
    [gen] = [spec.generator for spec in state.pipeline.stage_chart(1).specs
             if isinstance(spec.generator, _Pullback)]
    return gen


def _pullback_rk4(gen: _Pullback, y0, t: float) -> np.ndarray:
    """A pulled-back flow on numpy arrays (the reference): `flows._rk4_step`
    on the pulled-back value solve(DPhi_P, A^p(Phi_P) DPhi_P e_col) by
    `np.linalg.solve`, and the box tested at the ambient point Phi_P(y)
    after each step k; a box exit of P's own flows inside step k is the
    flow's exit at k h, at P's point."""
    P = gen.parent

    def value(y):
        x, D = P.differential(y.tolist())
        return np.linalg.solve(D, gen.Ap(x) @ D[:, gen.col])
    y = np.array(y0, dtype=float)
    n, h = _steps(gen.spec, t)
    for k in range(1, n + 1):
        try:
            y = _rk4_step(value, y, h)
            x = P.differential(y.tolist())[0]
        except BoxExitError as err:
            raise BoxExitError(k * h, err.point) from err
        if not gen.spec.box.contains(x):
            raise BoxExitError(k * h, x)
    return y


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(name=st.sampled_from(["example35-n3", "example35-n3-xn"]),
                  start=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
                  t=st.floats(-0.8, 0.8).filter(lambda t: t != 0.0))
def test_pullback_loop_equals_numpy_rk4(name, start, t):
    # the list loop of a pulled-back flow, from chart points of its parent
    # in and near the chart's ranges, against the numpy RK4 it replaced:
    # the same end bit for bit, or the same box exit (time and point)
    gen = _stage0_pullback(name)
    y0 = np.array(start)
    expect = _outcome(lambda: [_pullback_rk4(gen, y0, t)])
    assert _outcome(lambda: [gen._rk4(y0, t)]) == expect


def test_pullback_loop_raises_on_a_singular_differential(monkeypatch):
    # where DPhi_P is singular the loop raises LinAlgError, as
    # np.linalg.solve does, and nothing warns
    gen = _stage0_pullback("example35-n3")
    differential = gen.parent.differential

    def singular(y):
        x, D = differential(y)
        D = D.copy()
        D[:, 0] = 0.0
        return x, D
    monkeypatch.setattr(gen.parent, "differential", singular)
    y0 = np.array([0.01, -0.02, 0.03])
    for run in (gen._rk4, functools.partial(_pullback_rk4, gen)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError):
                run(y0, 0.1)
        assert caught == []


@st.composite
def _multiplicities(draw) -> tuple:
    """Jordan block multiplicities (d_1, ..., d_n), d_n >= 1, of a
    dimension sum(a d_a) <= 6."""
    n = draw(st.integers(1, 6))
    mults, left = [0] * (n - 1) + [1], 6 - n
    for a in range(1, n + 1):
        extra = draw(st.integers(0, left // a))
        mults[a - 1] += extra
        left -= a * extra
    return tuple(mults)


@hypothesis.settings(max_examples=60, deadline=1000, derandomize=True)
@hypothesis.given(mults=_multiplicities(), seed=st.integers(0, 2 ** 16))
def test_rank_profile_recovers_conjugated_jordan_multiplicities(mults, seed):
    # M = P J P^-1 with P = U S V^T, U and V orthogonal and the singular
    # values S in [0.5, 2], so P's condition number is at most 4
    J = jordan_matrix(mults)
    d = len(J)
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)))
    V, _ = np.linalg.qr(rng.normal(size=(d, d)))
    P = U @ np.diag(rng.uniform(0.5, 2.0, d)) @ V.T
    M = P @ J @ np.linalg.inv(P)
    ranks = rank_profile(EndoField.from_constant(M), [0.0] * d).ranks
    assert invariant_factors(ranks).multiplicities == mults


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)

# expression texts: token soup, and the deep or long shapes that once
# ended in a traceback (nesting in the parser, sums and products in the
# compiler, variables outside the dimension)
_EXPR = st.one_of(
    st.lists(st.sampled_from(
        ["x0", "x1", "x2", "x5", "0", "1", "2.5", "1e400", "+", "-", "*",
         "/", "^", "(", ")", "exp(", "pospow(", ",", " ", "$"]),
        max_size=10).map("".join),
    st.sampled_from([
        "(" * 300 + "x1" + ")" * 300, "-" * 3000 + "x2",
        "/".join(["x1"] * 3000), "x1" + "^2" * 300,
        "+".join(["x1"] * 5000), "*".join(["x2"] * 3000),
        "x5", "x0", "x1 * x2", "exp(x2)", "1"]))

_KEYS = ["dim", "matrix", "box", "groups", "factors", "eigenvalue", "dims",
         ""]


@st.composite
def _field_documents(draw) -> str:
    """The text of a field document, nearly always malformed: not JSON, any
    JSON value, or a d x d document, strictly upper triangular with entries
    from `_EXPR`, whose keys may be overwritten or joined by others."""
    shape = draw(st.sampled_from(["text", "json", "document", "document"]))
    if shape == "text":
        return draw(st.text(max_size=20))
    if shape == "json":
        return json.dumps(draw(_JSON))
    d = draw(st.integers(1, 3))
    doc = {"dim": d, "matrix": [[draw(_EXPR) if j > i else "0"
                                 for j in range(d)] for i in range(d)]}
    if draw(st.booleans()):
        doc["groups"] = [[1, 1, 1], [2, 2, d - 1]]
    for key in draw(st.lists(st.sampled_from(_KEYS), max_size=2)):
        doc[key] = draw(_JSON)
    return json.dumps(doc)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(text=_field_documents(),
                  command=st.sampled_from(["check", "jordanize"]))
def test_malformed_field_documents_never_raise_past_main(text, command,
                                                         tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "field.json"
    path.write_text(text)
    args = [command, str(path)]
    if command == "jordanize":
        args += ["--grid", "2", "--chart-samples", "0"]
    # hypothesis raises the recursion limit while it runs a test; the
    # command line runs at Python's default, where the compiler refuses
    # the long sums and products
    limit = sys.getrecursionlimit()
    out, err = io.StringIO(), io.StringIO()
    try:
        sys.setrecursionlimit(1000)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
