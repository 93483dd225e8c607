"""Benchmark workloads: inputs, operations and answer checks.

Each workload is a closed loop with one caller: the runner issues the next
operation only when the previous one has returned.  Work is issued in
passes; a pass is one round over the workload's input set.  Every operation
gets its own seed derived from the benchmark seed, the pass's index in the
run and the operation's index in the pass, so the same seed gives the same
sequence of passes, and a run's passes draw many seeds for each input.  No
cache outlives a pass: the library caches only per pipeline and chart, and
each `jordanize` call and each chart-coords pass builds its own.  An
operation raises `WrongAnswer` when its result disagrees with the known
answer and returns the answer values the benchmark reports (residuals,
round-trip errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from endochart import corpus
from endochart.charts import (PipelineSettings, build_chart, induction_step,
                              initial_frame, jordanize)
from endochart.fieldfile import load_field_document
from endochart.flows import IntegratorSettings
from endochart.structure import corollary15_report, theorem13_report

DOCS = Path(__file__).resolve().parents[1] / "docs" / "examples"

# Known verdicts of the shipped example documents; the corpus carries its own
# (`CorpusEntry.expected`).
DOC_EXPECTED = {"diagonalizable": "integrable", "triangular-n3": "integrable"}

# Pipeline settings of `endochart jordanize` at its defaults.
STEP = 1e-2
GRID = 5
VERIFY_TOL = 1e-5

# A round trip coords(forward(y)) must give y back to this tolerance; the
# largest error seen on the example35-n3 chart is about 1e-10.
COORDS_TOL = 1e-8
# Round trips per pass; each pass draws a new Latin hypercube of points.
COORDS_PER_PASS = 32

JORDANIZE_INPUTS = {
    "jordanize-n2": ("example35-n2", "constant-jordan", "conjugated-n2",
                     "conjugated-n2-d4"),
    "jordanize-n3": ("example35-n3", "example35-n3-xn"),
}
COORDS_INPUT = "example35-n3"


class WrongAnswer(Exception):
    """An operation returned, but its answer is not the known one."""


@dataclass(frozen=True)
class Op:
    label: str                  # "check.<input>", "jordanize.<input>", "coords"
    run: Callable[[], dict]     # returns answer values, raises on a wrong answer


@dataclass(frozen=True)
class Workload:
    setup: Callable[[], object]                     # -> inputs
    make_pass: Callable[[object, int, int], list]   # (inputs, seed, pass) -> ops


def op_seed(seed: int, pass_index: int, op_index: int) -> int:
    return int(np.random.SeedSequence(
        [seed, pass_index, op_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# check-corpus

def _verdict(integrable: bool, torsion_ok: bool, involutive: bool) -> str:
    if integrable:
        return "integrable"
    if not torsion_ok:
        return "fails-torsion"
    if not involutive:
        return "fails-involutivity"
    return "fails-constancy"


def _check(field, box, factors, expected: str, seed: int) -> dict:
    if factors:
        rep = corollary15_report(field, factors, box, seed=seed)
        got = _verdict(rep.integrable_conditions, rep.torsion.passed,
                       all(bool(r) for _, r in rep.factor_involutivity))
    else:
        rep = theorem13_report(field, box, seed=seed)
        _, torsion_ok, involutive = rep.condition_flags()
        got = _verdict(rep.integrable, torsion_ok, involutive)
    if got != expected:
        raise WrongAnswer(f"expected {expected}, got {got}")
    return {}


def _check_setup() -> list:
    inputs = []
    for name, entry in corpus.CORPUS.items():
        data = corpus.build_corpus_field(name)
        inputs.append((name, data["field"], data["box"], None, entry.expected))
    for stem, expected in DOC_EXPECTED.items():
        doc = load_field_document(DOCS / f"{stem}.json")
        inputs.append((f"docs-{stem}", doc.field, doc.box, doc.factors, expected))
    return inputs


def _check_pass(inputs, seed: int, index: int) -> list:
    return [Op(f"check.{name}", partial(_check, field, box, factors, expected,
                                        op_seed(seed, index, j)))
            for j, (name, field, box, factors, expected) in enumerate(inputs)]


# ---------------------------------------------------------------------------
# jordanize-n2, jordanize-n3

def _jordanize(field, chart, seed: int) -> dict:
    settings = PipelineSettings(
        integrator=IntegratorSettings(step=STEP, seed=seed), seed=seed)
    result = jordanize(field, chart, settings, grid=GRID, verify_tol=VERIFY_TOL)
    failed = [rep.k for rep in result.stage_reports if not rep.passed]
    if failed:
        raise WrongAnswer(f"stage reports {failed} did not pass")
    ver = result.verification
    if not ver.passed:
        raise WrongAnswer(f"verification failed: deviation {ver.max_deviation:.3e}")
    return {"verify.max_deviation": ver.max_deviation,
            "verify.max_bracket": ver.max_bracket}


def _jordanize_setup(names) -> list:
    inputs = []
    for name in names:
        data = corpus.build_corpus_field(name)
        inputs.append((name, data["field"], data["chart"]))
    return inputs


def _jordanize_pass(inputs, seed: int, index: int) -> list:
    return [Op(f"jordanize.{name}",
               partial(_jordanize, field, chart, op_seed(seed, index, j)))
            for j, (name, field, chart) in enumerate(inputs)]


# ---------------------------------------------------------------------------
# chart-coords

def _coords_setup():
    data = corpus.build_corpus_field(COORDS_INPUT)
    return data["field"], data["chart"]


def _assemble_chart(field, adapted):
    """The integral chart; stage charts build lazily, so this is cheap."""
    state = initial_frame(field, adapted, check=False)
    for _ in range(adapted.index - 1):
        state = induction_step(state)
    return build_chart(state, check=False)


def _roundtrip(chart, y) -> dict:
    err = float(np.max(np.abs(chart.coords(chart.forward(y)) - y)))
    if not err <= COORDS_TOL:
        raise WrongAnswer(f"round trip error {err:.3e} at {list(y)}")
    return {"coords.roundtrip_max": err}


def latin_hypercube(ranges, count: int, seed: int) -> np.ndarray:
    """`count` points in the box `ranges`, one in each of `count` equal
    slices of every coordinate's range.

    A round trip's cost grows with the flow times, so covering each range
    evenly keeps the mean cost of a point set nearly the same from seed to
    seed, where independent uniform points would not.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.array(ranges, dtype=float).T
    slices = np.column_stack([rng.permutation(count) for _ in ranges])
    u = (slices + rng.uniform(size=slices.shape)) / count
    return lo + u * (hi - lo)


def _coords_pass(inputs, seed: int, index: int) -> list:
    """Round trips on a freshly assembled chart.

    A new chart per pass starts every pass from empty point caches, so
    memory and cache state do not depend on how many passes a run gets
    through.
    """
    chart = _assemble_chart(*inputs)
    ys = latin_hypercube(chart.chart_ranges(), COORDS_PER_PASS,
                         op_seed(seed, index, 0))
    return [Op("coords", partial(_roundtrip, chart, y)) for y in ys]


WORKLOADS = {
    "check-corpus": Workload(_check_setup, _check_pass),
    **{name: Workload(partial(_jordanize_setup, names), _jordanize_pass)
       for name, names in JORDANIZE_INPUTS.items()},
    "chart-coords": Workload(_coords_setup, _coords_pass),
}
