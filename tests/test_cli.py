import json
import pathlib

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
                       "--samples=0", "--step=0", "--step=nan")
    ] + [(command, option)
         for command in ("jordanize", "corpus")
         for option in ("--chart-samples=-1", "--grid=0")])
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
            "error: chart frame is singular on the verification grid")

    def test_grid_block_leaves_box(self, tmp_path, capsys):
        # the image field 20 d/dx1 carries every grid row out of the
        # working box; the first time group is transported as one block
        path = tmp_path / "fast.json"
        path.write_text('{"dim": 2, "matrix": [["0", "20"], ["0", "0"]], '
                        '"groups": [[1, 1, 1], [2, 2, 1]]}')
        assert main(["jordanize", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trajectory left the working box at t = -0.080000"]

    def test_computed_flow_leaves_box(self, tmp_path, capsys, monkeypatch):
        # n = 3 with speed 20: the first grid flow to leave the working box
        # is the computed generator A Z^(1), integrated in the stage-0
        # chart's coordinates
        from endochart import charts
        from endochart.flows import BoxExitError
        left = []
        original = charts._StageChart._computed_flow

        def recording(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            except BoxExitError:
                left.append(args)
                raise
        monkeypatch.setattr(charts._StageChart, "_computed_flow", recording)
        path = tmp_path / "fast3.json"
        path.write_text('{"dim": 3, "matrix": [["0", "20", "0"], '
                        '["0", "0", "20"], ["0", "0", "0"]], '
                        '"groups": [[1, 1, 1], [2, 2, 1], [3, 3, 1]]}')
        assert main(["jordanize", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trajectory left the working box at t = -0.075000"]
        assert left


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[PASS]") for line in lines if line.startswith("["))


class TestGoldenReport:
    def test_example37_report_stable(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["corpus", "example37", "--samples", "100",
                     "--seed", "2026", "--out", str(out)])
        assert code == 2
        expect = (GOLDEN / "example37_report.json").read_text()
        assert out.read_text() == expect
