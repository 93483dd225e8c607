"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LISTED_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, results: Path, seed: int = 7,
              cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--results",
         str(results)], cwd=cwd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    out = {}
    for workload in LISTED_WORKLOADS:
        out[workload] = [run_bench(workload, 1, tmp_path_factory.mktemp("r"))
                         for _ in range(2)]
    return out


@pytest.mark.parametrize("workload", LISTED_WORKLOADS)
def test_count_metrics_repeat_across_traced_runs(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["correct"] and second["correct"]
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    assert any(first["metrics"][k]["value"] > 0 for k in counts)
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key


def test_every_metric_emitted_with_its_unit(traced_twice, tmp_path):
    line = run_bench("check-corpus", 0, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, runs in traced_twice.items():
        got = {k: m["unit"] for k, m in runs[0]["metrics"].items()}
        assert got == declared, workload
    for m in line["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0


def _coords(ops) -> np.ndarray:
    return np.array([op.run.args[1] for op in ops])


def test_seed_changes_sampled_points():
    inputs = workloads.WORKLOADS["chart-coords"].setup()
    make = workloads.WORKLOADS["chart-coords"].make_pass
    a = _coords(make(inputs, 1, 0))
    assert np.array_equal(a, _coords(make(inputs, 1, 0)))   # same seed, same points
    for other in (make(inputs, 2, 0), make(inputs, 1, 1)):  # new seed, next pass
        assert not np.any(np.all(a == _coords(other), axis=1))
    make = workloads.WORKLOADS["check-corpus"].make_pass
    inputs = workloads.WORKLOADS["check-corpus"].setup()
    seeds = [[op.run.args[-1] for op in make(inputs, s, 0)] for s in (1, 2)]
    assert all(x != y for x, y in zip(*seeds))


def test_latin_hypercube_fills_every_slice():
    ranges = [(-0.1, 0.1), (0.0, 2.0), (5.0, 6.0)]
    ys = workloads.latin_hypercube(ranges, 16, seed=3)
    for (lo, hi), col in zip(ranges, ys.T):
        slices = np.floor((col - lo) / (hi - lo) * 16)
        assert sorted(slices) == list(range(16))


def _bindings() -> dict:
    mods = [m for n, m in sys.modules.items()
            if n == "endochart" or n.startswith("endochart.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for m in mods:
        for k, cls in vars(m).items():
            if isinstance(cls, type) and cls.__module__.startswith("endochart"):
                out.update({(cls.__qualname__, a): v for a, v in vars(cls).items()})
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # charts binds integrate_flow by name; the package re-exports it
        for key in [("endochart.flows", "integrate_flow"),
                    ("endochart.charts", "integrate_flow"),
                    ("endochart", "integrate_flow"),
                    ("ChartMap", "coords"), ("ComputedVectorField", "value")]:
            assert key in changed, key
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", LISTED_WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
