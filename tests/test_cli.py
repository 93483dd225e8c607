import json
import os
import pathlib
import subprocess
import sys

import pytest

from endochart.cli import main

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class TestCorpusCommand:
    def test_example37_fails_involutivity(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["corpus", "example37", "--samples", "60",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        cond = report["conditions"]
        assert cond["nijenhuis_zero"]["pass"]
        assert not cond["kernel_involutivity"]["pass"]
        witness = cond["kernel_involutivity"]["per_power"][0]
        assert witness["max_residual"] >= 0.05
        assert witness["witness_point"] is not None

    def test_constant_jordan_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["corpus", "constant-jordan", "--grid", "3",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["overall"]["pass"]
        assert report["verification"]["max_deviation"] <= 1e-9

    def test_unknown_corpus_name(self, capsys):
        assert main(["corpus", "does-not-exist"]) == 1
        assert "unknown corpus field" in capsys.readouterr().err

    def test_forced_example38_reports_witness(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["corpus", "example38", "--samples", "40", "--force",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["error"]
        clause = report["induction"][0]["clauses"]
        bad = [c for c in clause.values() if not c["pass"]]
        assert bad and bad[0]["witness"] is not None

    def test_forced_pipeline_is_reported(self, tmp_path, capsys, monkeypatch):
        # with failed conditions, --force runs the pipeline and reports it
        from endochart import cli
        run = cli._run_conditions
        monkeypatch.setattr(cli, "_run_conditions",
                            lambda *args: (run(*args)[0], False))
        out = tmp_path / "r.json"
        code = main(["corpus", "constant-jordan", "--grid", "3", "--force",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert not report["overall"]["pass"]
        assert [r["k"] for r in report["induction"]] == [0, 1]
        assert report["verification"]["max_deviation"] == 0.0
        assert "[PASS] constant matrix in chart frame" in capsys.readouterr().out

    def test_box_override_reaches_the_pipeline(self, tmp_path):
        # the chart takes the override box too: chart samples lie in the
        # chart ranges of the 0.2 box (grid scale 0.35)
        out = tmp_path / "r.json"
        code = main(["corpus", "constant-jordan", "--box=-0.2:0.2",
                     "--grid", "2", "--chart-samples", "4",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["field"]["box"][0] == [-0.2, 0.2]
        for sample in report["verification"]["chart_samples"]:
            assert max(abs(v) for v in sample["coords"]) <= 0.35 * 0.2


class TestFileCommands:
    def test_check_diagonalizable(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["check", str(DOCS / "diagonalizable.json"),
                     "--samples", "40", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "corollary15"
        assert report["overall"]["pass"]

    def test_jordanize_triangular(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["jordanize", str(DOCS / "triangular-n3.json"),
                     "--samples", "50", "--grid", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verification"]["max_deviation"] <= 1e-5
        assert len(report["verification"]["chart_samples"]) == 20

    def test_jordanize_scalar_field(self, tmp_path):
        # lambda * Id has n = 1: a chart without flows
        doc = tmp_path / "scalar.json"
        doc.write_text(json.dumps({
            "dim": 2, "matrix": [["1.5", "0"], ["0", "1.5"]],
            "box": [[-0.5, 0.5], [-0.5, 0.5]], "groups": [[1, 1, 2]],
            "eigenvalue": 1.5}))
        out = tmp_path / "r.json"
        code = main(["jordanize", str(doc), "--grid", "3", "--out", str(out)])
        assert code == 0
        ver = json.loads(out.read_text())["verification"]
        assert ver["max_deviation"] == 0.0
        assert ver["chart_samples"]
        for sample in ver["chart_samples"]:
            assert sample["coords"] == sample["point"]

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.json"]) == 1

    def test_box_override(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["check", str(DOCS / "triangular-n3.json"),
                     "--box=-0.2:0.2", "--samples", "40",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["field"]["box"][0] == [-0.2, 0.2]

    def test_bad_usage(self):
        assert main(["check"]) == 1

    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command in ("check", "jordanize", "corpus")
        for option in ("--box=1:0", "--box=a:b", "--box=0:1,0:1,0:1",
                       "--samples=0", "--step=0", "--step=nan", "--seed=-1",
                       "--tol=nan", "--tol=-1")
    ] + [(command, option)
         for command in ("jordanize", "corpus")
         for option in ("--chart-samples=-1", "--grid=0", "--verify-tol=nan",
                        "--verify-tol=-1")])
    def test_bad_option_value(self, tmp_path, capsys, command, option):
        # every input is d = 2: example35-n2 and a nilpotent Jordan block
        path = tmp_path / "block.json"
        path.write_text('{"dim": 2, "matrix": [["0", "1"], ["0", "0"]], '
                        '"groups": [[1, 1, 1], [2, 2, 1]]}')
        target = "example35-n2" if command == "corpus" else str(path)
        assert main([command, target, option]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_zero_denominator_on_box(self, tmp_path, capsys):
        path = tmp_path / "pole.json"
        path.write_text('{"dim": 1, "matrix": [["1/x1"]]}')
        assert main(["check", str(path)]) == 1
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, reason", [
        ('[["0", "1/(x1+1)"], ["0", "0"]]', "zero denominator"),  # pole at a corner
        ('[["0", "exp(exp(exp(10*x1)))"], ["0", "0"]]', "overflow"),
    ])
    def test_no_finite_value_on_box(self, tmp_path, capsys, matrix, reason):
        path = tmp_path / "field.json"
        path.write_text(f'{{"dim": 2, "matrix": {matrix}}}')
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err

    def test_non_finite_derived_constant(self, tmp_path, capsys):
        # finite on the box, but d/dx2 folds 2 * 1e308 to inf
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 2, "matrix": [["0", "1e308*x2^2"], ["0", "0"]]}')
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite constant inf" in err

    def test_compiled_zero_division(self, tmp_path, capsys, monkeypatch):
        # compiled evaluators raise ZeroDivisionError at plain-float points
        from endochart import cli

        def divide(*args, **kwargs):
            return 1.0 / 0.0
        monkeypatch.setattr(cli, "theorem13_report", divide)
        assert main(["check", str(DOCS / "triangular-n3.json")]) == 1
        assert "zero denominator" in capsys.readouterr().err

    def test_scalar_overflow(self, tmp_path, capsys, monkeypatch):
        # the scalar path (math.exp) raises OverflowError
        import math

        from endochart import cli
        monkeypatch.setattr(cli, "theorem13_report",
                            lambda *args, **kwargs: math.exp(1e3))
        assert main(["check", str(DOCS / "triangular-n3.json")]) == 1
        assert "no finite value" in capsys.readouterr().err

    def test_singular_verification_frame(self, capsys, monkeypatch):
        # the stacked solve of the verification grid raises LinAlgError
        import numpy as np

        from endochart import charts

        def singular(*args, **kwargs):
            return np.linalg.solve(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
        monkeypatch.setattr(charts, "verify_integral_chart", singular)
        assert main(["jordanize", str(DOCS / "triangular-n3.json")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: chart differential is singular at a stage-check sample "
            "or on the verification grid")

    def test_singular_stage_check_differential(self, capsys, monkeypatch):
        # the stage-1 check pulls fields back by solves with DPhi of the
        # stage-0 chart, which raise LinAlgError where DPhi is singular
        import numpy as np

        from endochart import charts
        original = charts._StageChart.forward_differential
        verified = []

        def singular(self, y):
            x, D = original(self, y)
            return x, np.zeros_like(D)
        monkeypatch.setattr(charts._StageChart, "forward_differential",
                            singular)
        monkeypatch.setattr(charts, "verify_integral_chart",
                            lambda *args, **kwargs: verified.append(args))
        assert main(["jordanize", str(DOCS / "triangular-n3.json")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: chart differential is singular at a stage-check sample "
            "or on the verification grid")
        assert verified == []     # the stage check raised first

    def test_newton_failure(self, capsys, monkeypatch):
        # a chart inversion that does not converge is a pipeline failure
        import numpy as np

        from endochart import cli
        from endochart.charts import NewtonError

        def diverge(*args, **kwargs):
            raise NewtonError(np.zeros(3), 1.0)
        monkeypatch.setattr(cli, "jordanize", diverge)
        assert main(["jordanize", str(DOCS / "triangular-n3.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: chart inversion did not converge at "
                       "(0.0, 0.0, 0.0) (last residual 1.000e+00)"]

    FAST2 = ('{"dim": 2, "matrix": [["0", "20"], ["0", "0"]], '
             '"groups": [[1, 1, 1], [2, 2, 1]]}')
    FAST3 = ('{"dim": 3, "matrix": [["0", "20", "0"], '
             '["0", "0", "20"], ["0", "0", "0"]], '
             '"groups": [[1, 1, 1], [2, 2, 1], [3, 3, 1]]}')

    @staticmethod
    def unchecked_chart(path):
        """The document's chart, assembled without stage checks."""
        from endochart.charts import build_chart, induction_step, initial_frame
        from endochart.fieldfile import load_field_document
        doc = load_field_document(path)
        state = initial_frame(doc.field, doc.chart, check=False)
        for _ in range(doc.chart.index - 1):
            state = induction_step(state)
        return doc.field, build_chart(state, check=False)

    def test_grid_block_leaves_box(self, tmp_path, capsys):
        # the image field 20 d/dx1 carries the stage-1 check's chart points
        # out of the working box before the verification grid runs
        path = tmp_path / "fast.json"
        path.write_text(self.FAST2)
        assert main(["jordanize", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trajectory left the working box at t = -0.078172"]
        # the grid alone: the first time group is transported as one block,
        # and its first start leaves the box first
        from endochart.charts import verify_integral_chart
        from endochart.flows import BoxExitError
        field, chart = self.unchecked_chart(path)
        with pytest.raises(BoxExitError, match=r"at t = -0\.080000$"):
            verify_integral_chart(field, chart)

    def test_computed_flow_leaves_box(self, tmp_path, capsys, monkeypatch):
        # n = 3 with speed 20: the stage-1 check's chart points leave the
        # working box first
        path = tmp_path / "fast3.json"
        path.write_text(self.FAST3)
        assert main(["jordanize", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trajectory left the working box at t = 0.078351"]
        # the grid alone: the first grid flow to leave the working box is
        # the computed generator A Z^(1), integrated in the stage-0 chart's
        # coordinates.  The stage-0 flows leave inside its 8th step of
        # -0.01, at t = -0.075 of theirs; the exit is the computed flow's
        from endochart import charts
        from endochart.flows import BoxExitError
        left = []
        original = charts._Pullback.flow

        def recording(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            except BoxExitError:
                left.append(args)
                raise
        monkeypatch.setattr(charts._Pullback, "flow", recording)
        field, chart = self.unchecked_chart(path)
        with pytest.raises(BoxExitError, match=r"at t = -0\.080000$") as err:
            charts.verify_integral_chart(field, chart)
        assert left
        assert err.value.__cause__.time == pytest.approx(-0.075)
        assert err.value.point == err.value.__cause__.point

    def test_chart_sample_leaves_box(self, tmp_path, capsys, monkeypatch):
        # a chart sample whose flow leaves the working box: the single-point
        # composition raises the flow's own BoxExitError, and the command
        # exits 2 with its message
        import numpy as np

        from endochart import charts, flows
        path = tmp_path / "jordan2.json"
        path.write_text('{"dim": 2, "matrix": [["0", "1"], ["0", "0"]], '
                        '"groups": [[1, 1, 1], [2, 2, 1]]}')
        y = np.array([3.0, 0.05])
        _, chart = self.unchecked_chart(path)
        stage = chart._chart
        with pytest.raises(flows.BoxExitError) as alone:
            flows._point_flow(stage.specs[0], [0.0, 0.05], 3.0, 0)
        monkeypatch.setattr(charts.ChartMap, "sample_coords",
                            lambda self, count, seed: y[None])
        assert main(["jordanize", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: trajectory left the working box at t = "
            f"{alone.value.time:.6f}"]


class TestScalarPlusNilpotent:
    """Documents with an eigenvalue: A = lambda * Id + N is decided by the
    conditions on N = A - lambda * Id, whose torsion and kernel flag are
    A's own for constant lambda."""

    @staticmethod
    def run(tmp_path, command, doc):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = main([command, str(path), "--out", str(out)])
        return code, json.loads(out.read_text()) if out.exists() else None

    @pytest.mark.parametrize("command", ["check", "jordanize"])
    def test_jordan_block_passes(self, tmp_path, command):
        code, report = self.run(tmp_path, command, {
            "dim": 2, "matrix": [["2", "1"], ["0", "2"]], "eigenvalue": 2.0,
            "groups": [[1, 1, 1], [2, 2, 1]]})
        assert code == 0
        cond = report["conditions"]
        assert cond["constant_invariant_factors"]["pass"]
        assert cond["nijenhuis_zero"]["pass"]
        if command == "jordanize":
            assert report["verification"]["max_deviation"] == 0.0

    def test_conjugated_field_passes(self, tmp_path):
        from endochart.corpus import conjugated_constant
        from endochart.fieldfile import FieldDocument, dump_field_document
        oracle = conjugated_constant(seed=3, d=3, multiplicities=(1, 1),
                                     eigenvalue=-0.75)
        doc = FieldDocument(3, oracle.field, oracle.chart.box, oracle.chart,
                            None, -0.75, "conjugated")
        code, report = self.run(tmp_path, "jordanize",
                                json.loads(dump_field_document(doc)))
        assert code == 0
        assert report["conditions"]["nijenhuis_zero"]["pass"]
        assert report["verification"]["max_deviation"] <= 1e-5

    @pytest.mark.parametrize("command", ["check", "jordanize"])
    def test_wrong_eigenvalue_names_it(self, tmp_path, command, capsys):
        code, report = self.run(tmp_path, command, {
            "dim": 2, "matrix": [["2", "1"], ["0", "3"]], "eigenvalue": 2.0,
            "groups": [[1, 1, 1], [2, 2, 1]]})
        assert code == 2 and report is None
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: A - 2.0 * Id is not nilpotent at the box center: 2.0 is "
            "not the field's only eigenvalue there")

    @pytest.mark.parametrize("command", ["check", "jordanize"])
    def test_torsion_failure(self, tmp_path, command):
        # 2 * Id plus the nonzero-torsion field of example 3.8
        code, report = self.run(tmp_path, command, {
            "dim": 4, "eigenvalue": 2.0, "groups": [[1, 1, 2], [2, 2, 2]],
            "matrix": [["2", "0", "exp(x2)", "0"], ["0", "2", "0", "1"],
                       ["0", "0", "2", "0"], ["0", "0", "0", "2"]]})
        assert code == 2
        assert not report["conditions"]["nijenhuis_zero"]["pass"]
        assert "verification" not in report


class TestModuleEntryPoint:
    def test_python_m_endochart_runs_a_corpus_entry(self):
        # `python -m endochart` needs only the source tree on the path
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "endochart", "corpus", "constant-jordan",
             "--grid", "2", "--chart-samples", "0"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert "[PASS] constant matrix in chart frame" in run.stdout

    def test_importing_the_package_generates_no_code(self):
        # every compile happens on first use: importing `charts` and `cli`
        # after `expr` defines no generated function, so start-up time does
        # not grow with the code generators.  The package's __init__, which
        # imports `charts`, is stood in for until `expr._define` is wrapped.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        script = (f"import sys, types\n"
                  f"package = types.ModuleType('endochart')\n"
                  f"package.__path__ = [{str(src / 'endochart')!r}]\n"
                  f"sys.modules['endochart'] = package\n"
                  f"from endochart import expr\n"
                  f"defined, define = [], expr._define\n"
                  f"expr._define = lambda *args: (defined.append(args)\n"
                  f"                              or define(*args))\n"
                  f"import endochart.charts, endochart.cli\n"
                  f"print(len(defined), 'cli' in dir(package))\n")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "0 True\n"


class TestReadmeLibrary:
    def test_library_block_runs_as_written(self, capsys):
        # the README's python block is the documented API: it imports from
        # the package root and prints the theorem13_report verdict first
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(block, {})
        assert capsys.readouterr().out.splitlines()[0] == "True"


class TestGoldenReport:
    def test_example37_report_stable(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["corpus", "example37", "--samples", "100",
                     "--seed", "2026", "--out", str(out)])
        assert code == 2
        expect = (GOLDEN / "example37_report.json").read_text()
        assert out.read_text() == expect
