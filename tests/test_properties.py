"""Property tests over random fields (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from endochart.charts import PipelineSettings, jordanize  # noqa: E402
from endochart.corpus import conjugated_constant  # noqa: E402
from endochart.expr import sample_box  # noqa: E402
from endochart.flows import (BoxExitError, ComputedVectorField,  # noqa: E402
                             FlowSpec, integrate_flow)

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
