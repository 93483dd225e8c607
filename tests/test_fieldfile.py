import numpy as np
import pytest

from endochart.corpus import build_corpus_field
from endochart.fieldfile import (FieldDocument, FieldFileError,
                                 dump_field_document, load_field_document,
                                 loads_field_document)

MINIMAL = """
{
  "dim": 2,
  "matrix": [["0", "exp(x2)"], ["0", "0"]]
}
"""

WITH_EVERYTHING = """
{
  "dim": 2,
  "matrix": ["0", "1", "0", "0"],
  "box": [[-0.5, 0.5], [-0.25, 0.25]],
  "groups": [[1, 1, 1], [2, 2, 1]],
  "factors": [[0.0, 0.0, 1.0]]
}
"""


class TestLoading:
    def test_minimal(self):
        doc = loads_field_document(MINIMAL)
        assert doc.dim == 2
        assert doc.box.bounds == ((-1.0, 1.0), (-1.0, 1.0))
        assert doc.chart is None
        M = doc.field((0.0, 1.0))
        assert M[0, 1] == pytest.approx(np.e)

    def test_flat_matrix_and_options(self):
        doc = loads_field_document(WITH_EVERYTHING)
        assert doc.box.bounds[1] == (-0.25, 0.25)
        assert doc.chart is not None
        assert doc.chart.groups == {(1, 1): (0,), (2, 2): (1,)}
        assert doc.factors == ((0.0, 0.0, 1.0),)

    def test_round_trip(self):
        data = build_corpus_field("example35-n3-xn")
        doc = FieldDocument(3, data["field"], data["box"], data["chart"],
                            None, 0.0)
        text = dump_field_document(doc)
        back = loads_field_document(text)
        assert back.dim == 3
        assert back.chart.groups == data["chart"].groups
        p = (0.1, -0.2, 0.3)
        assert np.allclose(back.field(p), data["field"](p), atol=1e-15)

    def test_shipped_example_loads(self):
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "triangular-n3.json"
        doc = load_field_document(path)
        assert doc.dim == 3 and doc.chart is not None


class TestErrors:
    def test_invalid_json_has_position(self):
        with pytest.raises(FieldFileError) as err:
            loads_field_document("{\n  'dim': 2\n}")
        assert "line 2" in str(err.value)

    def test_missing_dim(self):
        with pytest.raises(FieldFileError, match="dim"):
            loads_field_document('{"matrix": []}')

    def test_wrong_matrix_size(self):
        with pytest.raises(FieldFileError, match="4 entries"):
            loads_field_document('{"dim": 2, "matrix": ["0"]}')

    def test_bad_expression_reports_entry(self):
        with pytest.raises(FieldFileError, match="entry 1"):
            loads_field_document('{"dim": 2, "matrix": ["0", "x1 +", "0", "0"]}')

    def test_bad_box(self):
        with pytest.raises(FieldFileError, match="box"):
            loads_field_document(
                '{"dim": 2, "matrix": ["0","0","0","0"], "box": [[1, 1], [0, 1]]}')

    def test_bad_groups(self):
        with pytest.raises(FieldFileError, match="groups"):
            loads_field_document(
                '{"dim": 2, "matrix": ["0","0","0","0"], "groups": [[1, 1, 1]]}')


MALFORMED = [
    '{"dim": "abc"}',
    '{"dim": 1, "matrix": 5}',
    '{"dim": 1, "matrix": [["0"]], "box": 3}',
    '{"dim": 1, "matrix": [["0"]], "eigenvalue": "x"}',
    '{"dim": 1, "matrix": [["0"]], "factors": [["a", 1]]}',
    '{"dim": 1, "matrix": [["0"]], "factors": 5}',
    '{"dim": 1, "matrix": [["0"]], "groups": 5}',
    '{"dim": 1, "matrix": [["1/0"]]}',
    # non-finite numbers: bare nan or inf in the generated evaluators
    '{"dim": 1, "matrix": [["0"]], "eigenvalue": "nan"}',
    '{"dim": 1, "matrix": [["0"]], "eigenvalue": 1e400}',
    '{"dim": 1, "matrix": [["0"]], "factors": [["nan", 1], [-2, 1]]}',
    '{"dim": 1, "matrix": [["0"]], "box": [[-1, 1e400]]}',
    '{"dim": 2, "matrix": [["0", "1e400"], ["0", "0"]]}',
    '{"dim": 2, "matrix": [["0", "1e200*1e200"], ["0", "0"]]}',
    '{"dim": 2, "matrix": [["0", "x2*(1e200*1e200 - 1e200*1e200)"], ["0", "0"]]}',
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_value_is_a_field_file_error(text, tmp_path, capsys):
    from endochart.cli import main
    with pytest.raises(FieldFileError):
        loads_field_document(text)
    path = tmp_path / "field.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
