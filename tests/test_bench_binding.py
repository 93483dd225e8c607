"""The benchmark's tracer (bench/tracer.py) still binds to the library.

The tracer wraps layer functions by name from outside the package; a
renamed or deleted function would break traced benchmark runs only.
"""

import importlib.util
import pathlib

import numpy as np

import endochart.corpus  # noqa: F401  (the tracer wraps build_corpus_field)
from endochart import charts, flows
from endochart.fields import coordinate_field

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    originals = (flows.integrate_flow, charts.integrate_flow,
                 charts.hk_residuals, charts.ChartMap.forward,
                 flows.ComputedVectorField.value)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert charts.integrate_flow is not originals[1]
        spec = flows.FlowSpec(coordinate_field(2, 1),
                              flows.IntegratorSettings(step=0.1))
        p = charts.integrate_flow(spec, np.zeros(2), 0.5)
        assert np.allclose(p, (0.5, 0.0))
        assert tracer.counts["flows.rk4_steps"] == 5
        field = flows.ComputedVectorField(lambda q: np.ones(2), 2)
        field.value((0.1, 0.2))
        field.value((0.1, 0.2))
        assert tracer.counts["flows.computed.values"] == 2
        assert tracer.counts["flows.computed.misses"] == 1
    finally:
        tracer.uninstall()
    assert (flows.integrate_flow, charts.integrate_flow, charts.hk_residuals,
            charts.ChartMap.forward, flows.ComputedVectorField.value) == originals


def test_traced_check_records_structure_spans():
    from endochart import corpus, structure
    data = corpus.build_corpus_field("example37")
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        structure.theorem13_report(data["field"], data["box"])
    finally:
        tracer.uninstall()
    _, _, calls = tracer.self_times()
    # structure.rank: rank_profile at the box center, then constancy_check
    assert calls["structure.rank"] == 2
    assert calls["structure.torsion"] == 1
    assert calls["structure.involutivity"] == 1
    assert calls["structure.frames"] == 1
