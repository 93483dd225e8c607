"""Property tests over random fields (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from endochart import expr as ex  # noqa: E402
from endochart.charts import PipelineSettings, jordanize  # noqa: E402
from endochart.corpus import conjugated_constant  # noqa: E402
from endochart.expr import Box, sample_box  # noqa: E402
from endochart.fields import VectorField  # noqa: E402
from endochart.flows import (BoxExitError, ComputedVectorField,  # noqa: E402
                             FlowSpec, IntegratorSettings, integrate_flow,
                             integrate_with_transport)

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


def _loop_field(a: float, b: float, c: float) -> VectorField:
    """A field on R^3 that is not straight, with a quotient, integer powers
    and exp."""
    x1, x2, x3 = ex.var(1), ex.var(2), ex.var(3)
    return VectorField((
        ex.div(ex.mul(a, x2), ex.add(2.0, ex.mul(x1, x1))),
        ex.sub(ex.mul(b, ex.exp(ex.mul(0.5, x3))), ex.intpow(x2, 3)),
        ex.add(ex.mul(c, x1, x2), ex.intpow(x3, 2))))


def _outcome(run) -> tuple:
    """("end", the flat state's bytes), or ("exit", time, the first three
    coordinates of the point) of the BoxExitError run raises."""
    try:
        return "end", np.concatenate([np.ravel(v) for v in run()]).tobytes()
    except BoxExitError as err:
        return "exit", err.time, np.array(err.point[:3]).tobytes()


_coef = st.floats(-2.0, 2.0)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(coefs=st.tuples(_coef, _coef, _coef), m=st.integers(0, 2),
                  start=st.tuples(*[st.floats(-0.9, 0.9)] * 3),
                  t=st.floats(-2.0, 2.0), step=st.sampled_from([0.05, 0.1]),
                  frame_seed=st.integers(0, 2 ** 16))
def test_generated_rk4_loop_equals_numpy_rk4(coefs, m, start, t, step,
                                            frame_seed):
    # the oracle steps the flat state (x, W) as a numpy array by the same
    # right-hand side, compiled for single points, and tests the box with
    # `Box.contains`
    box = Box.cube(3, 1.0)
    spec = FlowSpec(_loop_field(*coefs), IntegratorSettings(step=step), box)
    gen = spec.generator
    assert not gen.straight
    p = np.array(start)
    W0 = np.random.default_rng(frame_seed).normal(size=(3, m))
    oracle = FlowSpec(ComputedVectorField(gen.rhs(m), 3 + 3 * m),
                      spec.settings, box)
    expect = _outcome(lambda: [integrate_flow(oracle, np.concatenate(
        [p, W0.ravel()]), t)])
    if m == 0:
        got = _outcome(lambda: [integrate_flow(spec, p, t)])
    else:
        got = _outcome(lambda: integrate_with_transport(spec, p, t, W0))
    assert got == expect
