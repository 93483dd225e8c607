"""Field document format: a JSON key-value file describing a field.

Keys:
    dim      int, ambient dimension d
    matrix   row-major d x d expression strings; column j holds the
             components of A(d/dx_j)
    box      optional per-variable [lo, hi] pairs (default [-1, 1]^d)
    groups   optional adapted-chart group sizes, entries [i, j, size];
             axes are assigned consecutively in ascending (i, j) order
    factors  optional invariant-factor polynomials, ascending coefficients
    eigenvalue  optional real scalar shift (the field is lambda*Id + nilpotent)

A worked example ships with the package documentation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .charts import AdaptedChart
from .expr import Box, constants
from .fields import EndoField
from .grammar import ParseError, parse_expr

__all__ = ["FieldDocument", "FieldFileError", "load_field_document",
           "loads_field_document", "dump_field_document"]


class FieldFileError(ValueError):
    pass


@dataclass(frozen=True)
class FieldDocument:
    dim: int
    field: EndoField
    box: Box
    chart: AdaptedChart | None
    factors: tuple | None
    eigenvalue: float
    source: str = "<memory>"


def _fail(msg: str) -> FieldFileError:
    return FieldFileError(msg)


def loads_field_document(text: str, source: str = "<string>") -> FieldDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise _fail(f"{source}: invalid JSON at line {err.lineno}, "
                    f"column {err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise _fail(f"{source}: top level must be an object")
    try:
        d = int(raw["dim"])
    except KeyError:
        raise _fail(f"{source}: missing key 'dim'") from None
    except (TypeError, ValueError):
        raise _fail(f"{source}: dim must be an integer") from None
    if d < 1:
        raise _fail(f"{source}: dim must be >= 1")

    matrix = raw.get("matrix")
    if matrix is None:
        raise _fail(f"{source}: missing key 'matrix'")
    if not isinstance(matrix, list):
        raise _fail(f"{source}: matrix must be a list")
    if all(isinstance(r, list) for r in matrix):
        flat = [e for row in matrix for e in row]
    else:
        flat = list(matrix)
    if len(flat) != d * d:
        raise _fail(f"{source}: matrix must have {d * d} entries, got {len(flat)}")
    entries = []
    for k, text_entry in enumerate(flat):
        if not isinstance(text_entry, str):
            raise _fail(f"{source}: matrix entry {k} is not a string")
        try:
            entries.append(parse_expr(text_entry))
        except (ParseError, ZeroDivisionError) as err:
            raise _fail(f"{source}: matrix entry {k} ({text_entry!r}): {err}") from err
        if not all(math.isfinite(c) for c in constants(entries[-1])):
            raise _fail(f"{source}: matrix entry {k} ({text_entry!r}) has a "
                        "non-finite constant")
    rows = tuple(tuple(entries[i * d: (i + 1) * d]) for i in range(d))
    A = EndoField(rows)

    box_raw = raw.get("box")
    if box_raw is None:
        box = Box.cube(d, 1.0)
    else:
        if not isinstance(box_raw, list) or len(box_raw) != d:
            raise _fail(f"{source}: box must list {d} intervals")
        try:
            box = Box(tuple((float(lo), float(hi)) for lo, hi in box_raw))
        except (TypeError, ValueError) as err:
            raise _fail(f"{source}: bad box: {err}") from err

    chart = None
    groups_raw = raw.get("groups")
    if groups_raw is not None:
        if not isinstance(groups_raw, list):
            raise _fail(f"{source}: groups must be a list of [i, j, size]")
        sizes = {}
        for item in groups_raw:
            try:
                i, j, size = (int(v) for v in item)
            except (TypeError, ValueError) as err:
                raise _fail(f"{source}: group entries must be [i, j, size]") from err
            sizes[(i, j)] = size
        try:
            chart = AdaptedChart.from_group_sizes(d, sizes, box)
        except ValueError as err:
            raise _fail(f"{source}: bad groups: {err}") from err

    factors = None
    factors_raw = raw.get("factors")
    if factors_raw is not None:
        try:
            factors = tuple(tuple(float(c) for c in f) for f in factors_raw)
        except (TypeError, ValueError) as err:
            raise _fail(f"{source}: factors must be lists of numbers") from err
        if any(len(f) < 2 for f in factors):
            raise _fail(f"{source}: each factor needs degree >= 1")
        if not all(math.isfinite(c) for f in factors for c in f):
            raise _fail(f"{source}: factor coefficients must be finite")

    try:
        eigenvalue = float(raw.get("eigenvalue", 0.0))
    except (TypeError, ValueError) as err:
        raise _fail(f"{source}: eigenvalue must be a number") from err
    if not math.isfinite(eigenvalue):
        raise _fail(f"{source}: eigenvalue must be finite")
    return FieldDocument(d, A, box, chart, factors, eigenvalue, source)


def load_field_document(path) -> FieldDocument:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_field_document(text, source=str(path))


def dump_field_document(doc: FieldDocument) -> str:
    data: dict = {
        "dim": doc.dim,
        "matrix": [[str(e) for e in row] for row in doc.field.entries],
        "box": [[lo, hi] for lo, hi in doc.box.bounds],
    }
    if doc.chart is not None:
        data["groups"] = [[i, j, len(axes)]
                          for (i, j), axes in sorted(doc.chart.groups.items())]
    if doc.factors is not None:
        data["factors"] = [list(f) for f in doc.factors]
    if doc.eigenvalue:
        data["eigenvalue"] = doc.eigenvalue
    return json.dumps(data, indent=2)
