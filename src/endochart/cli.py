"""Command-line driver.

Subcommands:
    check <field-file>       condition report (general check when factors given)
    jordanize <field-file>   full constructive pipeline plus verification
    corpus <name>            run a built-in example end to end

Exit codes: 0 on pass, 2 on a condition/verification failure, 1 on usage,
I/O or field-document errors, on fields without a finite value on the
box (a zero denominator, an overflow) and on expressions too long or deep
to compile.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import corpus as corpus_mod
from .charts import (AdaptedChart, AdaptedChartError, InductionError,
                     NewtonError, PipelineSettings, jordanize)
from .expr import Box, CompileLimitError, EvaluationError
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


# integer options
_LOWEST = {"samples": 1, "seed": 0, "grid": 1, "chart_samples": 0}


def _check_options(args):
    """UsageError for an option value outside the range the commands take."""
    for name, lowest in _LOWEST.items():
        value = getattr(args, name, lowest)   # pipeline options: not on check
        if value < lowest:
            raise UsageError(f"--{name.replace('_', '-')} must be >= "
                             f"{lowest}, got {value}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be positive and finite, got {args.step}")
    for name in ("tol", "verify_tol"):
        value = getattr(args, name, None)   # --tol: None unless given
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise UsageError(f"--{name.replace('_', '-')} must be finite "
                             f"and >= 0, got {value}")


def _settings(args) -> PipelineSettings:
    return PipelineSettings(integrator=IntegratorSettings(step=args.step),
                            seed=args.seed)


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


def _run_conditions(field, box, factors, eigenvalue, args):
    """Returns (conditions dict, pass flag).  Without factors the checks run
    on A - eigenvalue * Id, whose torsion and kernel flag are A's own."""
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
    try:
        rep = theorem13_report(field.shifted(eigenvalue) if eigenvalue
                               else field, box, samples=args.samples,
                               seed=args.seed, tol=args.tol)
    except NonNilpotentError:
        if not eigenvalue:
            raise
        raise NonNilpotentError(
            f"A - {eigenvalue!r} * Id is not nilpotent at the box center: "
            f"{eigenvalue!r} is not the field's only eigenvalue there") from None
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
    conditions, ok = _run_conditions(doc.field, box, doc.factors,
                                     doc.eigenvalue, args)
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
    """The condition checks, then the pipeline when they pass or with
    --force, and one report of both.  Both run on `box`: the adapted chart
    takes it in place of its own."""
    conditions, ok = _run_conditions(field, box, None, eigenvalue, args)
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
        return 1
    except (UsageError, FieldFileError, FileNotFoundError,
            IsADirectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CompileLimitError as err:
        print(f"error: field expressions are too long or deep to compile "
              f"({err})", file=sys.stderr)
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
        # solves by the chart differential raise this where it is singular:
        # the stage checks' (fields pulled back to chart coordinates) and
        # the verification grid's; the pipeline's lstsq and SVD calls raise
        # it only on non-finite values
        print("error: chart differential is singular at a stage-check "
              "sample or on the verification grid", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
