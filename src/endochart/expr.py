"""Minimal closed-form scalar expression engine.

Expression trees over d real variables with exact symbolic partial
derivatives, numeric evaluation, and deterministic sampled zero tests on
boxes.  There is deliberately no general simplifier: only constant folding
and 0/1 absorption happen at construction time.  Deciding whether an
expression vanishes is done numerically (`is_zero_on_box`).

Trees are compiled by one emitter, which computes each subtree that
occurs more than once (equal subtrees from `differentiate` are distinct
objects) once into a local, for one of two paths:

- batch (`compile_batch`), for sample sets known up front: one numpy
  evaluation over a (d, N) point array gives an (m, N) value array, as
  every sampled check evaluates its sample set.  A non-finite value raises
  `EvaluationError` naming the failing subtree.
- scalar (`compile_expr`, `compile_vector`), for sequential single points
  (flow steps, Newton iterations): Python float arithmetic at any point (an
  ndarray point is converted once), which beats numpy on one point.  Only
  sums, products and quotients agree bit for bit with the batch path:
  numpy's array kernels round `**` and `exp` differently in the last place.

`evaluate` walks the tree directly; it is the reference the compiled paths
are tested against and the way a failing subtree is located.  Both paths
refuse, when compiling, a tree that holds a non-finite constant (constant
folding can overflow, as in d/dx of 1e308*x^2) with `EvaluationError`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ScalarExpr", "Const", "Var", "Sum", "Product", "Quotient", "IntPow",
    "Exp", "PosPow", "Box", "ZeroTestResult", "EvaluationError",
    "const", "var", "add", "sub", "mul", "div", "intpow", "exp", "pospow",
    "negate", "differentiate", "evaluate", "substitute", "compile_expr",
    "compile_vector", "compile_batch", "sample_box", "is_zero_on_box",
    "kink_arguments", "kink_mask", "constants", "variables",
]

class EvaluationError(ArithmeticError):
    """Raised when evaluation hits a vanishing quotient denominator, or a
    batch evaluation produces a non-finite value.

    Carries the offending subtree so callers can report which part of a
    larger expression failed.
    """

    def __init__(self, message: str, subtree: "ScalarExpr"):
        super().__init__(message)
        self.subtree = subtree


class ScalarExpr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return intpow(self, k)

    def __neg__(self):
        return negate(self)

    def __repr__(self):
        return f"<expr {self}>"


def _coerce(value) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True, repr=False)
class Const(ScalarExpr):
    value: float

    def __str__(self):
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(ScalarExpr):
    index: int  # 1-based variable index

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices are 1-based")

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True, repr=False)
class Sum(ScalarExpr):
    terms: tuple

    def __str__(self):
        parts = [str(self.terms[0])]
        for t in self.terms[1:]:
            parts.append(f" + {t}")
        return "(" + "".join(parts) + ")"


@dataclass(frozen=True, repr=False)
class Product(ScalarExpr):
    factors: tuple

    def __str__(self):
        return "(" + " * ".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True, repr=False)
class Quotient(ScalarExpr):
    num: ScalarExpr
    den: ScalarExpr

    def __str__(self):
        return f"({self.num} / {self.den})"


@dataclass(frozen=True, repr=False)
class IntPow(ScalarExpr):
    base: ScalarExpr
    power: int

    def __str__(self):
        return f"({self.base})^{self.power}"


@dataclass(frozen=True, repr=False)
class Exp(ScalarExpr):
    arg: ScalarExpr

    def __str__(self):
        return f"exp({self.arg})"


@dataclass(frozen=True, repr=False)
class PosPow(ScalarExpr):
    """arg^k for arg >= 0, and 0 otherwise; of class C^(k-1) for k >= 1."""

    arg: ScalarExpr
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("pospow exponent must be >= 0")

    def __str__(self):
        return f"pospow({self.arg}, {self.power})"


_ZERO = Const(0.0)
_ONE = Const(1.0)


def const(v: float) -> Const:
    return Const(float(v))


def var(i: int) -> Var:
    return Var(i)


def add(*terms) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    c = 0.0
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Const):
            c += t.value
        elif isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if c != 0.0 or not flat:
        flat.append(Const(c))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def sub(a, b) -> ScalarExpr:
    return add(a, mul(Const(-1.0), b))


def negate(a) -> ScalarExpr:
    return mul(Const(-1.0), a)


def mul(*factors) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    c = 1.0
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Const):
            c *= f.value
        elif isinstance(f, Product):
            for g in f.factors:
                if isinstance(g, Const):
                    c *= g.value
                else:
                    flat.append(g)
        else:
            flat.append(f)
    if c == 0.0:
        return _ZERO
    if c != 1.0 or not flat:
        flat.insert(0, Const(c))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def div(num, den) -> ScalarExpr:
    num = _coerce(num)
    den = _coerce(den)
    if isinstance(den, Const):
        if den.value == 0.0:
            raise ZeroDivisionError("constant zero denominator")
        if den.value == 1.0:
            return num
        if isinstance(num, Const):
            return Const(num.value / den.value)
    if isinstance(num, Const) and num.value == 0.0:
        return _ZERO
    return Quotient(num, den)


def intpow(base, k: int) -> ScalarExpr:
    base = _coerce(base)
    k = int(k)
    if k == 0:
        return _ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** k)
    return IntPow(base, k)


def exp(arg) -> ScalarExpr:
    arg = _coerce(arg)
    if isinstance(arg, Const):
        return Const(math.exp(arg.value))
    return Exp(arg)


def pospow(arg, k: int) -> ScalarExpr:
    arg = _coerce(arg)
    k = int(k)
    if isinstance(arg, Const):
        return Const(arg.value ** k if arg.value >= 0.0 else 0.0)
    return PosPow(arg, k)


def differentiate(e: ScalarExpr, i: int) -> ScalarExpr:
    """Exact partial derivative of `e` with respect to x_i (1-based)."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == i else _ZERO
    if isinstance(e, Sum):
        return add(*[differentiate(t, i) for t in e.terms])
    if isinstance(e, Product):
        terms = []
        fs = e.factors
        for k in range(len(fs)):
            dk = differentiate(fs[k], i)
            if isinstance(dk, Const) and dk.value == 0.0:
                continue
            terms.append(mul(dk, *fs[:k], *fs[k + 1:]))
        return add(*terms) if terms else _ZERO
    if isinstance(e, Quotient):
        du = differentiate(e.num, i)
        dv = differentiate(e.den, i)
        return div(sub(mul(du, e.den), mul(e.num, dv)), intpow(e.den, 2))
    if isinstance(e, IntPow):
        db = differentiate(e.base, i)
        return mul(Const(float(e.power)), intpow(e.base, e.power - 1), db)
    if isinstance(e, Exp):
        return mul(e, differentiate(e.arg, i))
    if isinstance(e, PosPow):
        # d/dt pospow(t, k) = k * pospow(t, k-1); C^(k-1) at the kink.
        da = differentiate(e.arg, i)
        return mul(Const(float(e.power)), pospow(e.arg, e.power - 1), da)
    raise TypeError(f"unknown node {e!r}")


def evaluate(e: ScalarExpr, point) -> float:
    """Evaluate `e` at a point (sequence of length >= max variable index)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(point[e.index - 1])
    if isinstance(e, Sum):
        return math.fsum(evaluate(t, point) for t in e.terms)
    if isinstance(e, Product):
        r = 1.0
        for f in e.factors:
            r *= evaluate(f, point)
        return r
    if isinstance(e, Quotient):
        den = evaluate(e.den, point)
        if den == 0.0:
            raise EvaluationError(f"zero denominator in {e}", e)
        return evaluate(e.num, point) / den
    if isinstance(e, IntPow):
        b = evaluate(e.base, point)
        if e.power < 0 and b == 0.0:
            raise EvaluationError(f"zero base with negative power in {e}", e)
        return b ** e.power
    if isinstance(e, Exp):
        return math.exp(evaluate(e.arg, point))
    if isinstance(e, PosPow):
        a = evaluate(e.arg, point)
        if a < 0.0:
            return 0.0
        return 1.0 if e.power == 0 else a ** e.power
    raise TypeError(f"unknown node {e!r}")


def substitute(e: ScalarExpr, mapping: dict[int, ScalarExpr]) -> ScalarExpr:
    """Replace variables by expressions (1-based index -> expression)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Sum):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, Quotient):
        return div(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, IntPow):
        return intpow(substitute(e.base, mapping), e.power)
    if isinstance(e, Exp):
        return exp(substitute(e.arg, mapping))
    if isinstance(e, PosPow):
        return pospow(substitute(e.arg, mapping), e.power)
    raise TypeError(f"unknown node {e!r}")


def _children(e: ScalarExpr) -> tuple:
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Quotient):
        return (e.num, e.den)
    if isinstance(e, IntPow):
        return (e.base,)
    if isinstance(e, (Exp, PosPow)):
        return (e.arg,)
    return ()


def kink_arguments(e: ScalarExpr) -> list[ScalarExpr]:
    """Arguments of all pospow nodes; their zero sets are the kink loci."""
    out: list[ScalarExpr] = []

    def walk(node):
        if isinstance(node, PosPow):
            out.append(node.arg)
        for child in _children(node):
            walk(child)

    walk(e)
    return out


def constants(e: ScalarExpr) -> list[float]:
    """Values of all constant nodes, folded ones included."""
    if isinstance(e, Const):
        return [e.value]
    return [c for child in _children(e) for c in constants(child)]


def variables(e: ScalarExpr) -> set[int]:
    """1-based indices of the variables that occur in e."""
    if isinstance(e, Var):
        return {e.index}
    return set().union(*(variables(child) for child in _children(e)))


# ---------------------------------------------------------------------------
# Compilation.  One emitter serves both paths: `x[i]` indexes a point on the
# scalar path and selects the row of variable i+1 on the batch path, and the
# namespace supplies the matching exp and pospow.  An operation's source is
# open + sep.join(operands' source) + close, with its power put in close.

def _pospow_rt(a: float, k: int) -> float:
    if a < 0.0:
        return 0.0
    return 1.0 if k == 0 else a ** k


def _pospow_batch(a: np.ndarray, k: int) -> np.ndarray:
    return np.where(a < 0.0, 0.0, 1.0 if k == 0 else a ** k)


_FORMS = {Sum: ("(", "+", ")"), Product: ("(", "*", ")"), Quotient: ("(", "/", ")"),
          IntPow: ("(", "", ")**{}"), Exp: ("_exp(", "", ")"),
          PosPow: ("_pp(", "", ",{})")}


def _emit(exprs) -> tuple[list[str], list[str]]:
    """(assignments, one expression per tree) computing the trees exprs, each
    operation used more than once computed once into a local `_k`.  Keyed by
    text, with operands by value number, equal subtrees that are distinct
    objects (as `differentiate` builds them) share one local."""
    numbers: dict = {}   # (type, operands, power) -> value number, in order

    def ref(e):     # the source of a leaf, or the value number of an operation
        kind = type(e)
        if kind is Const:
            if not math.isfinite(e.value):
                # constant folding (say of a derivative) can overflow a
                # finite field's constants; the generated source would not run
                raise EvaluationError(
                    f"non-finite constant {e.value!r} in a derived expression", e)
            return repr(e.value)
        if kind is Var:
            return f"x[{e.index - 1}]"
        key = (kind, tuple(map(ref, _children(e))),
               e.power if kind is IntPow or kind is PosPow else None)
        return numbers.setdefault(key, len(numbers))

    roots = [ref(e) for e in exprs]
    uses = Counter(roots + [a for _, args, _ in numbers for a in args])
    lines, texts = [], []
    for vn, (kind, args, power) in enumerate(numbers):
        op, sep, close = _FORMS[kind]
        texts.append(op + sep.join([texts[a] if type(a) is int else a for a in args])
                     + close.format(power))
        if uses[vn] > 1:
            lines.append(f"_{vn} = {texts[vn]}")
            texts[vn] = f"_{vn}"
    return lines, [texts[r] if type(r) is int else r for r in roots]


_NAMESPACE = {"_exp": math.exp, "_pp": _pospow_rt, "_ndarray": np.ndarray}


def _define(body: list[str], namespace: dict):
    """The function `f(x)` with the body lines, in a copy of namespace."""
    namespace = dict(namespace)
    exec("def f(x):\n    " + "\n    ".join(body), namespace)  # noqa: S102
    return namespace.pop("f")   # no function <-> globals cycle to wait on gc for


_TO_FLOATS = "x = x.tolist() if x.__class__ is _ndarray else x"


def compile_expr(e: ScalarExpr):
    """Compile to `f(x) -> float` with x an indexable point.  A zero
    denominator raises ZeroDivisionError, an integer power that overflows
    OverflowError; `evaluate` names the offending subtree."""
    lines, (value,) = _emit([e])
    return _define([_TO_FLOATS, *lines, f"return {value}"], _NAMESPACE)


def compile_vector(exprs) -> "callable":
    """Compile a sequence of expressions to `f(x) -> list[float]`."""
    exprs = tuple(exprs)
    lines, values = _emit(exprs)
    if all(type(e) is Const for e in exprs):    # no code to generate
        consts = [e.value for e in exprs]
        return lambda x: list(consts)
    return _define([_TO_FLOATS, *lines, f"return [{','.join(values)}]"], _NAMESPACE)


def compile_batch(exprs) -> "callable":
    """Compile m expressions to `f(x) -> (m, N) array` for a (d, N) point
    array x (column n is the n-th point).

    Constant rows are filled, never evaluated.  Any non-finite value
    raises `EvaluationError` naming the innermost failing subtree at the
    first point (in sample order) where a value is not finite.
    """
    exprs = tuple(exprs)
    consts = np.array([[e.value if type(e) is Const else 0.0] for e in exprs])
    if not np.isfinite(consts).all():
        _emit(exprs)    # raises EvaluationError naming the constant
    rows = [i for i, e in enumerate(exprs) if type(e) is not Const]
    lines, values = _emit([exprs[i] for i in rows])
    raw = rows and _define(
        ["out = _consts.repeat(x.shape[1], 1)", *lines,
         *(f"out[{i}] = {v}" for i, v in zip(rows, values)), "return out"],
        {"_exp": np.exp, "_pp": _pospow_batch, "_consts": consts})

    def f(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not raw:
            return consts.repeat(x.shape[1], 1)
        with np.errstate(all="ignore"):
            out = raw(x)
        if not np.isfinite(out).all():
            _raise_nonfinite(exprs, x, out)
        return out
    return f


def _raise_nonfinite(exprs, x: np.ndarray, out: np.ndarray):
    bad = ~np.isfinite(out)
    n = int(np.argmax(bad.any(axis=0)))
    point = tuple(float(v) for v in x[:, n])
    e = exprs[int(np.argmax(bad[:, n]))]
    subtree, reason = _failing_subtree(e, point) or (e, f"non-finite value in {e}")
    where = ", ".join(f"{v:.6g}" for v in point)
    raise EvaluationError(f"{reason} at ({where})", subtree)


def _failing_subtree(e: ScalarExpr, point):
    """(innermost subtree of e that `evaluate` rejects at point, reason), or
    None when every subtree evaluates to a finite value there."""
    for child in _children(e):
        hit = _failing_subtree(child, point)
        if hit is not None:
            return hit
    try:
        value = evaluate(e, point)
    except EvaluationError as err:
        return e, str(err)
    except OverflowError:
        return e, f"overflow in {e}"
    return None if math.isfinite(value) else (e, f"non-finite value in {e}")


def kink_mask(exprs, x) -> np.ndarray:
    """Boolean (N,) mask of the points of a (d, N) array x that lie within
    1e-4 of a pospow kink of any of the expressions.

    One-sided derivatives differ at a kink, so sampled tests skip these
    points.
    """
    args = [a for e in exprs for a in kink_arguments(e)]
    if not args:
        return np.zeros(np.shape(x)[1], dtype=bool)
    return np.any(np.abs(compile_batch(args)(x)) < 1e-4, axis=0)


# ---------------------------------------------------------------------------
# Boxes and deterministic sampling.

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, one closed interval per variable."""

    bounds: tuple  # tuple of (lo, hi)

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite interval [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"degenerate interval [{lo}, {hi}]")

    @staticmethod
    def cube(dim: int, radius: float) -> "Box":
        return Box(tuple((-radius, radius) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.bounds])

    @property
    def diameter(self) -> float:
        return max(hi - lo for lo, hi in self.bounds)

    @cached_property
    def mid_half(self) -> tuple:
        """Midpoints and half widths, as (d, 1) arrays and as lists."""
        mid = [(lo + hi) / 2.0 for lo, hi in self.bounds]
        half = [(hi - lo) / 2.0 for lo, hi in self.bounds]
        return np.array(mid)[:, None], np.array(half)[:, None], mid, half

    def contains(self, p) -> bool:
        p = p.tolist() if isinstance(p, np.ndarray) else p
        return not any(abs(v - m) > h for v, m, h in zip(p, *self.mid_half[2:]))

    def inflate(self, factor: float) -> "Box":
        _, _, mid, half = self.mid_half
        return Box(tuple((m - h * factor, m + h * factor) for m, h in zip(mid, half)))

    def corners(self) -> np.ndarray:
        """All 2^d corners; bit i of the row index selects hi on axis i."""
        lo, hi = np.array(self.bounds, dtype=float).T
        bits = (np.arange(2 ** self.dim)[:, None] >> np.arange(self.dim)) & 1
        return np.where(bits == 1, hi, lo)


def sample_box(box: Box, samples: int, seed: int,
               include_corners: bool = True,
               include_center: bool = True) -> np.ndarray:
    """Deterministic sample set: fixed-seed uniforms plus corners and center."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box.bounds])
    hi = np.array([b[1] for b in box.bounds])
    pts = [rng.uniform(lo, hi, size=(samples, box.dim))]
    if include_center:
        pts.append(box.center[None, :])
    if include_corners and box.dim <= 10:
        pts.append(box.corners())
    return np.vstack(pts)


@dataclass(frozen=True)
class ZeroTestResult:
    passed: bool
    max_abs: float
    witness: tuple
    tol: float

    def __bool__(self):
        return self.passed


def is_zero_on_box(e: ScalarExpr, box: Box, samples: int = 100,
                   tol: float = 1e-9, seed: int = 2026) -> ZeroTestResult:
    """Sampled zero test; reports the max |value| and its argmax point.

    Points near a pospow kink hyperplane (`kink_mask`) are skipped,
    because one-sided derivatives of upstream expressions differ there.
    """
    x = sample_box(box, samples, seed).T
    vals = np.abs(compile_batch([e])(x)[0])
    vals[kink_mask([e], x)] = 0.0
    n = int(np.argmax(vals))
    worst = float(vals[n])
    witness = tuple(float(v) for v in x[:, n]) if worst > 0.0 else tuple(box.center)
    return ZeroTestResult(worst <= tol, worst, witness, tol)
