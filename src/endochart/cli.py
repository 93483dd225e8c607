"""Command-line driver.

Subcommands:
    check <field-file>       condition report (general check when factors given)
    jordanize <field-file>   full constructive pipeline plus verification
    corpus <name>            run a built-in example end to end
    selftest                 run the internal invariant suites

Exit codes: 0 on pass, 2 on a condition/verification failure, 1 on usage,
I/O or field-document errors and on fields without a finite value on the
box (a zero denominator, an overflow).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import corpus as corpus_mod
from .charts import (AdaptedChart, AdaptedChartError, InductionError,
                     NewtonError, PipelineSettings, build_chart,
                     induction_step, initial_frame, jordanize,
                     validate_adapted_chart)
from .expr import Box, EvaluationError
from .fieldfile import FieldFileError, load_field_document
from .flows import BoxExitError, IntegratorSettings
from .reporting import (corollary15_to_dict, hk_to_dict, render_report,
                        report_to_dict, theorem13_to_dict,
                        verification_to_dict)
from .structure import (AnnihilationError, NonNilpotentError,
                        PivotDegenerationError, corollary15_report,
                        theorem13_report)

__all__ = ["main"]


class UsageError(Exception):
    """An option value the command cannot run with."""


def _parse_box(text: str, dim: int) -> Box:
    try:
        intervals = [tuple(float(v) for v in part.split(":"))
                     for part in text.split(",")]
        if len(intervals) == 1:
            intervals *= dim
        if len(intervals) != dim or any(len(iv) != 2 for iv in intervals):
            raise ValueError(f"needs 1 or {dim} intervals lo:hi")
        return Box(tuple(intervals))
    except ValueError as err:
        raise UsageError(f"--box {text!r}: {err}") from None


_LOWEST = {"samples": 1, "grid": 1, "chart_samples": 0}   # integer options


def _check_options(args):
    """UsageError for an option value outside the range the commands take."""
    for name, lowest in _LOWEST.items():
        value = getattr(args, name, lowest)   # pipeline options: not on check
        if value < lowest:
            raise UsageError(f"--{name.replace('_', '-')} must be >= "
                             f"{lowest}, got {value}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be positive and finite, got {args.step}")


def _settings(args) -> PipelineSettings:
    integ = IntegratorSettings(step=args.step, seed=args.seed)
    return PipelineSettings(integrator=integ, seed=args.seed)


def _write_report(args, report: dict):
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _statusline(label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {label}" + (f": {detail}" if detail else ""))


def _run_conditions(field, box, factors, args):
    """Returns (conditions dict, pass flag)."""
    if factors:
        rep = corollary15_report(field, factors, box, samples=args.samples,
                                 seed=args.seed, tol=args.tol)
        cond = corollary15_to_dict(rep)
        _statusline("constant factor ranks", all(
            f["constant"] for f in cond["factor_ranks"]))
        _statusline("torsion tensor vanishes", cond["nijenhuis_zero"]["pass"],
                    f"max residual {cond['nijenhuis_zero']['max_residual']}")
        _statusline("factor kernels involutive", all(
            f["involutive"] for f in cond["factor_involutivity"]))
        return cond, rep.integrable_conditions
    rep = theorem13_report(field, box, samples=args.samples, seed=args.seed,
                           tol=args.tol)
    cond = theorem13_to_dict(rep)
    _statusline("constant invariant factors",
                cond["constant_invariant_factors"]["pass"])
    _statusline("torsion tensor vanishes", cond["nijenhuis_zero"]["pass"],
                f"max residual {cond['nijenhuis_zero']['max_residual']}")
    _statusline("kernel distributions involutive",
                cond["kernel_involutivity"]["pass"],
                "; ".join(f"p={e['p']}: {e['max_residual']}"
                          for e in cond["kernel_involutivity"]["per_power"]))
    return cond, rep.integrable


def _field_info(doc_or_name, dim, box) -> dict:
    return {"source": str(doc_or_name), "dim": dim,
            "box": [[lo, hi] for lo, hi in box.bounds]}


def _cmd_check(args) -> int:
    doc = load_field_document(args.field_file)
    box = _parse_box(args.box, doc.dim) if args.box else doc.box
    conditions, ok = _run_conditions(doc.field, box, doc.factors, args)
    report = report_to_dict(
        "corollary15" if doc.factors else "theorem13",
        _field_info(doc.source, doc.dim, box),
        _args_settings(args), conditions=conditions, overall_pass=ok)
    _write_report(args, report)
    return 0 if ok else 2


def _chart_samples(chart, count, seed) -> list:
    ys = chart.sample_coords(count, seed)
    out = []
    for y in ys:
        p = chart.forward(y)
        out.append({"coords": [float(v) for v in y],
                    "point": [float(v) for v in p]})
    return out


def _construct(args, kind, source, field, box, chart, eigenvalue) -> int:
    """The condition checks (skipped when eigenvalue != 0), then the
    pipeline when they pass or with --force, and one report of both.
    Both run on `box`: the adapted chart takes it in place of its own."""
    conditions, ok = ((None, True) if eigenvalue != 0.0
                      else _run_conditions(field, box, None, args))
    if chart is not None and chart.box != box:
        chart = AdaptedChart(chart.dim, chart.groups, box)
    stages = {}
    if chart is not None and (ok or args.force):
        try:
            result = jordanize(field, chart, _settings(args),
                               eigenvalue=eigenvalue, grid=args.grid,
                               verify_tol=args.verify_tol)
        except InductionError as err:
            _statusline("induction residuals", False, str(err))
            stages = {"induction": [hk_to_dict(err.report)], "error": str(err)}
            ok = False
        else:
            ver = verification_to_dict(result.verification)
            induction = [hk_to_dict(rep) for rep in result.stage_reports]
            _statusline("induction residuals",
                        all(r["pass"] for r in induction),
                        "; ".join(f"k={r['k']}" for r in induction))
            _statusline("constant matrix in chart frame",
                        result.verification.passed,
                        f"max deviation {ver['max_deviation']}, "
                        f"frame brackets {ver['max_frame_bracket']}")
            samples = _chart_samples(result.chart, args.chart_samples,
                                     args.seed)
            stages = {"induction": induction,
                      "verification": {**ver, "chart_samples": samples}}
            ok = ok and result.verification.passed
    report = report_to_dict(
        kind, _field_info(source, field.dim, box), _args_settings(args),
        conditions=conditions, overall_pass=ok, **stages)
    _write_report(args, report)
    return 0 if ok else 2


def _cmd_jordanize(args) -> int:
    doc = load_field_document(args.field_file)
    box = _parse_box(args.box, doc.dim) if args.box else doc.box
    if doc.chart is None:
        print("error: field file has no adapted-chart groups", file=sys.stderr)
        return 1
    return _construct(args, "jordanize", doc.source, doc.field, box,
                      doc.chart, doc.eigenvalue)


def _cmd_corpus(args) -> int:
    try:
        data = corpus_mod.build_corpus_field(args.name)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 1
    entry = corpus_mod.CORPUS[args.name]
    field = data["field"]
    box = _parse_box(args.box, field.dim) if args.box else data["box"]
    print(f"corpus field {entry.name}: {entry.description}")
    return _construct(args, "corpus", entry.name, field, box,
                      data.get("chart"), 0.0)


def _cmd_selftest(args) -> int:
    """Fast invariant suites across the modules."""
    from . import expr as ex
    from .fields import (coordinate_field, nijenhuis, prop22_residual,
                         _nprime_raw, endo_power)
    from .flows import (CompiledField, ComputedVectorField, FlowSpec,
                        IntegratorSettings, integrate_flow, numeric_bracket)
    from .fields import VectorField, lie_bracket
    from .structure import (image_frame, involutivity_residual,
                            nijenhuis_residual)

    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        _statusline(label, ok, detail)
        failures += 0 if ok else 1

    A37 = corpus_mod.example37_field()
    A38 = corpus_mod.example38_field()
    box4 = Box.cube(4, 1.0)
    pts = ex.sample_box(box4, 20, args.seed, include_corners=False)

    # expression engine: exact derivatives against central differences
    e = ex.mul(ex.exp(ex.mul(ex.const(0.4), ex.var(2))),
               ex.add(ex.var(1), ex.intpow(ex.var(3), 3)))
    de = ex.compile_expr(ex.differentiate(e, 2))
    f = ex.compile_expr(e)
    worst = 0.0
    for p in pts:
        up = p.copy(); up[1] += 1e-5
        dn = p.copy(); dn[1] -= 1e-5
        worst = max(worst, abs(de(p) - (f(up) - f(dn)) / 2e-5))
    check("exact derivatives vs central differences", worst <= 1e-6,
          f"residual {worst:.2e}")

    # tensor identities
    X, Y = coordinate_field(4, 3), coordinate_field(4, 4)
    anti = nijenhuis(A38, X, Y) + nijenhuis(A38, Y, X)
    worst = max(float(np.max(np.abs(anti(p)))) for p in pts)
    check("torsion antisymmetry", worst <= 1e-12, f"residual {worst:.2e}")
    Aq = endo_power(A38, 1)
    swap = _nprime_raw(A38, Aq, X, Y) + _nprime_raw(Aq, A38, Y, X)
    worst = max(float(np.max(np.abs(swap(p)))) for p in pts)
    check("auxiliary torsion swap identity", worst <= 1e-12,
          f"residual {worst:.2e}")

    r = prop22_residual(A37, 2, 1, box4, samples=40, seed=args.seed)
    check("torsion reduction identities (vanishing torsion)",
          r.max_residual <= 1e-9, f"residual {r.max_residual:.2e}")
    r = prop22_residual(A38, 2, 1, box4, samples=40, seed=args.seed)
    check("torsion reduction identities (nonzero torsion)",
          r.max_residual <= 1e-9, f"residual {r.max_residual:.2e}")

    t37 = nijenhuis_residual(A37, box4, samples=60, seed=args.seed)
    check("counterexample pair: vanishing torsion", t37.passed,
          f"residual {t37.max_residual:.2e}")
    t38 = nijenhuis_residual(A38, box4, samples=60, seed=args.seed)
    check("counterexample pair: nonzero torsion", not t38.passed,
          f"residual {t38.max_residual:.2e}")

    D = image_frame(A37, 1, box4, seed=args.seed)
    res = involutivity_residual(D, box4, samples=40, seed=args.seed)
    check("image distribution involutive", bool(res),
          f"residual {res.max_residual:.2e}")

    # flow engine: group law, determinism, numeric-vs-exact brackets
    V = VectorField((ex.add(ex.mul(ex.const(0.3), ex.var(2)), ex.const(0.2)),
                     ex.mul(ex.const(-0.4), ex.mul(ex.var(1), ex.var(1)))))
    spec = FlowSpec(V, IntegratorSettings(step=1e-2))
    a = integrate_flow(spec, (0.1, 0.2), 0.23 + 0.41)
    b = integrate_flow(spec, integrate_flow(spec, (0.1, 0.2), 0.41), 0.23)
    worst = float(np.max(np.abs(a - b)))
    check("flow group law", worst <= 10 * spec.settings.accuracy(),
          f"residual {worst:.2e}")
    c = integrate_flow(FlowSpec(V, IntegratorSettings(step=1e-2)), (0.1, 0.2), 0.64)
    check("flow determinism", a.tobytes() == c.tobytes())
    # x1 and x2 read only x3, which they do not move: the closed form
    S = VectorField((ex.exp(ex.mul(ex.const(0.5), ex.var(3))),
                     ex.mul(ex.const(0.3), ex.var(3), ex.var(3)),
                     ex.const(0.0)))
    line = FlowSpec(S, spec.settings)
    rk4 = FlowSpec(ComputedVectorField(line.generator.value, 3), spec.settings)
    worst = float(np.max(np.abs(integrate_flow(line, (0.1, 0.2, 0.3), 0.64)
                                - integrate_flow(rk4, (0.1, 0.2, 0.3), 0.64))))
    check("straight flow vs RK4",
          line.generator.straight and worst <= 10 * spec.settings.accuracy(),
          f"residual {worst:.2e}")
    W = VectorField((ex.exp(ex.var(2)), ex.const(0.0)))
    exact = lie_bracket(V, W)((0.2, -0.1))
    num = numeric_bracket(CompiledField(V), CompiledField(W), (0.2, -0.1), h=1e-4)
    worst = float(np.max(np.abs(num - exact)))
    check("numeric bracket vs exact bracket", worst <= 1e-7,
          f"residual {worst:.2e}")

    spec35 = corpus_mod.Example35Spec.from_theta(3)
    resid = corpus_mod.example35_compat_residual(spec35)
    check("triangular family compatibility", resid <= 1e-12,
          f"residual {resid:.2e}")

    oracle = corpus_mod.conjugated_constant(seed=args.seed, d=3,
                                            multiplicities=(1, 1),
                                            shear_degree=2)
    t = nijenhuis_residual(oracle.field, oracle.chart.box, samples=60,
                           seed=args.seed)
    check("conjugated-constant torsion vanishes", t.passed,
          f"residual {t.max_residual:.2e}")
    rep = validate_adapted_chart(oracle.field, oracle.chart, seed=args.seed)
    check("conjugated-constant chart adapted", rep.passed)

    # chart frame: DPhi's columns against central differences of Phi
    data = corpus_mod.build_corpus_field("conjugated-n2")
    state = initial_frame(data["field"], data["chart"], check=False)
    cmap = build_chart(induction_step(state), check=False)
    worst, h = 0.0, 1e-5
    for y in cmap.sample_coords(3, args.seed):
        _, frame = cmap.forward_with_frame(y)
        for j, e in enumerate(np.eye(len(y))):
            fd = (cmap.forward(y + h * e) - cmap.forward(y - h * e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(frame[:, j] - fd))))
    check("chart frame is the chart differential", worst <= 1e-6,
          f"residual {worst:.2e}")
    return 0 if failures == 0 else 2


def _args_settings(args) -> dict:
    return {"tol": args.tol, "samples": args.samples, "seed": args.seed,
            "step": args.step, "grid": getattr(args, "grid", None),
            "verify_tol": getattr(args, "verify_tol", None)}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="tensor nullity tolerance (default: scaled 1e-9)")
    common.add_argument("--samples", type=int, default=100)
    common.add_argument("--seed", type=int, default=2026)
    common.add_argument("--step", type=float, default=1e-2,
                        help="RK4 step for the flow integrators")
    common.add_argument("--box", type=str, default=None,
                        help="override box: 'lo:hi' or per-axis 'l:h,l:h,...'")
    common.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this path")

    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--grid", type=int, default=5,
                          help="verification grid points per chart axis")
    pipeline.add_argument("--verify-tol", dest="verify_tol", type=float,
                          default=1e-5)
    pipeline.add_argument("--chart-samples", dest="chart_samples", type=int,
                          default=20, help="chart sample grid written to the report")
    pipeline.add_argument("--force", action="store_true",
                          help="run the pipeline even if a condition check fails")

    ap = argparse.ArgumentParser(
        prog="endochart",
        description="integrability analysis and integral-chart construction "
                    "for endomorphism fields")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run the integrability condition checks")
    p.add_argument("field_file")

    p = sub.add_parser("jordanize", parents=[common, pipeline],
                       help="construct and verify the chart")
    p.add_argument("field_file")

    p = sub.add_parser("corpus", parents=[common, pipeline],
                       help="run a built-in example end to end")
    p.add_argument("name", help=", ".join(sorted(corpus_mod.CORPUS)))

    sub.add_parser("selftest", parents=[common],
                   help="run the internal invariant suites")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        _check_options(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "jordanize":
            return _cmd_jordanize(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        return 1
    except (UsageError, FieldFileError, FileNotFoundError,
            IsADirectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (EvaluationError, OverflowError) as err:
        print(f"error: field has no finite value on the box ({err}); "
              "shrink or move the box", file=sys.stderr)
        return 1
    except ZeroDivisionError as err:
        print(f"error: field has a zero denominator on the box ({err}); "
              "shrink or move the box", file=sys.stderr)
        return 1
    except (NonNilpotentError, AnnihilationError, PivotDegenerationError,
            AdaptedChartError, BoxExitError, NewtonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError:
        # the verification grid's stacked solve raises this on a singular
        # chart frame; the pipeline's lstsq and SVD calls raise it only on
        # non-finite values
        print("error: chart frame is singular on the verification grid",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
