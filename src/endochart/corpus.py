"""Built-in example fields, the triangular family oracle, and ground-truth
conjugated-constant fields.

The triangular family `A(d/dx_1) = 0, A(d/dx_i) = d/dx_(i-1),
A(d/dx_n) = sum alpha_i d/dx_i` admits an independent route to its integral
coordinates: a first-order PDE system solved by nested one-dimensional
quadratures.  That oracle is used to cross-check the flow-based pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .charts import AdaptedChart, _orders, basis_slots, jordan_matrix
from .expr import Box, ScalarExpr, sample_box
from .fields import EndoField

__all__ = [
    "Example35Spec", "example35_field", "example35_compat_residual",
    "example35_P", "example35_solve", "OracleChart35", "example37_field",
    "example38_field", "constant_jordan", "conjugated_constant",
    "ConjugatedOracle", "PositivityError", "CompatibilityError",
    "UnsupportedMultiplicitiesError", "theta_expr", "CORPUS", "CorpusEntry",
    "build_corpus_field",
]


class PositivityError(ValueError):
    """alpha_(n-1) must stay positive on the box."""


class CompatibilityError(ValueError):
    """The coefficient tuple does not satisfy the torsion-nullity system."""


class UnsupportedMultiplicitiesError(ValueError):
    """Flag subspaces are not axis-prefixes in the slot order."""


# ---------------------------------------------------------------------------
# The paper pair of 4-dimensional counterexamples.

def example37_field() -> EndoField:
    """A(d3) = exp(x2) d1, A(d4) = d1: vanishing torsion, ker A not involutive.

    ker A is cut out by dx4 + exp(x2) dx3, as computed from this definition.
    """
    z = ex.const(0.0)
    rows = [
        [z, z, ex.exp(ex.var(2)), ex.const(1.0)],
        [z, z, z, z],
        [z, z, z, z],
        [z, z, z, z],
    ]
    return EndoField(tuple(tuple(r) for r in rows))


def example38_field() -> EndoField:
    """A(d3) = exp(x2) d1, A(d4) = d2: nonzero torsion, ker A involutive."""
    z = ex.const(0.0)
    rows = [
        [z, z, ex.exp(ex.var(2)), z],
        [z, z, z, ex.const(1.0)],
        [z, z, z, z],
        [z, z, z, z],
    ]
    return EndoField(tuple(tuple(r) for r in rows))


def example38_chart(box: Box) -> AdaptedChart:
    """Natural grouping for the involutive-kernel counterexample: two 2-blocks."""
    return AdaptedChart(4, {(1, 1): (0, 1), (2, 2): (2, 3)}, box)


# ---------------------------------------------------------------------------
# The triangular family.

def theta_expr(var_index: int, r: int, analytic: bool = True) -> ScalarExpr:
    """theta(t) = t^(r+1), either as the analytic monomial or its positive part."""
    t = ex.var(var_index)
    if analytic:
        return ex.intpow(t, r + 1)
    return ex.pospow(t, r + 1)


@dataclass(frozen=True)
class Example35Spec:
    """Triangular field on R^n with coefficients alpha_1 .. alpha_(n-1)."""

    n: int
    alphas: tuple           # tuple of ScalarExpr, length n - 1
    box: Box

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.alphas) != self.n - 1:
            raise ValueError(f"need {self.n - 1} coefficients, got {len(self.alphas)}")
        if self.box.dim != self.n:
            raise ValueError("box dimension must equal n")

    @staticmethod
    def from_theta(n: int, r: int = 3, analytic: bool = True,
                   box: Box | None = None) -> "Example35Spec":
        """The effective instance alpha_(n-1) = 1/(1 + x_(n-1) theta(x_n)).

        The remaining coefficient (n = 3) is completed so the torsion
        vanishes; only n = 2 and n = 3 are generated this way.
        """
        if n not in (2, 3):
            raise ValueError("theta-generated instances support n = 2 or 3")
        box = box or Box.cube(n, 0.3)
        theta = theta_expr(n, r, analytic)
        denom = ex.add(ex.const(1.0), ex.mul(ex.var(n - 1), theta))
        a_last = ex.div(ex.const(1.0), denom)
        if n == 2:
            return Example35Spec(2, (a_last,), box)
        a_first = ex.negate(ex.div(ex.mul(ex.var(1), theta), ex.intpow(denom, 2)))
        return Example35Spec(3, (a_first, a_last), box)

    @staticmethod
    def constant(n: int, values, box: Box | None = None) -> "Example35Spec":
        return Example35Spec(n, tuple(ex.const(v) for v in values),
                             box or Box.cube(n, 0.4))


def _alpha_min_on_box(spec: Example35Spec) -> float:
    f = ex.compile_expr(spec.alphas[-1])
    return min(f(p) for p in sample_box(spec.box, 80, 2026))


def example35_field(spec: Example35Spec) -> tuple[EndoField, AdaptedChart]:
    """The triangular field and its natural adapted chart (groups x_j <-> (j,j))."""
    n = spec.n
    if n > 1 and _alpha_min_on_box(spec) <= 0.0:
        raise PositivityError("alpha_(n-1) is not positive on the box")
    z = ex.const(0.0)
    rows = [[z] * n for _ in range(n)]
    for i in range(2, n):
        rows[i - 2][i - 1] = ex.const(1.0)   # column i is e_(i-1)
    for i in range(1, n):
        rows[i - 1][n - 1] = spec.alphas[i - 1]
    A = EndoField(tuple(tuple(r) for r in rows))
    groups = {(j, j): (j - 1,) for j in range(1, n + 1)}
    return A, AdaptedChart(n, groups, spec.box)


def _compat_defects(spec: Example35Spec) -> list:
    """The defect expressions whose joint vanishing kills the torsion.

    Derived by expanding the torsion tensor on coordinate pairs: with
    alpha_n := 0,
      d alpha_k / d x_j - d alpha_(k+1) / d x_(j+1)   (1 <= j <= n-2, 1 <= k <= n-1)
      d alpha_k / d x_1                               (2 <= k <= n-1)
    """
    n = spec.n
    alphas = list(spec.alphas) + [ex.const(0.0)]
    out = []
    for j in range(1, n - 1):
        for k in range(1, n):
            out.append(ex.sub(ex.differentiate(alphas[k - 1], j),
                              ex.differentiate(alphas[k], j + 1)))
    for k in range(2, n):
        out.append(ex.differentiate(alphas[k - 1], 1))
    return out


def example35_compat_residual(spec: Example35Spec) -> float:
    """Max sampled defect of the compatibility system over the box."""
    worst = 0.0
    for dfct in _compat_defects(spec):
        r = ex.is_zero_on_box(dfct, spec.box, tol=np.inf)
        worst = max(worst, r.max_abs)
    return worst


def example35_P(spec: Example35Spec) -> list:
    """The fractions P_1 .. P_(n-1): P_1 = 1/alpha_(n-1) and
    P_i = -sum_(j<i) (alpha_(n-i+j-1)/alpha_(n-1)) P_j."""
    n = spec.n
    alphas = spec.alphas
    last = alphas[-1]
    P = [ex.div(ex.const(1.0), last)]
    for i in range(2, n):
        terms = []
        for j in range(1, i):
            a = alphas[n - i + j - 1 - 1]  # alpha_(n-i+j-1), 1-based
            terms.append(ex.negate(ex.mul(ex.div(a, last), P[j - 1])))
        P.append(ex.add(*terms) if terms else ex.const(0.0))
    return P


def _simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson with per-panel midpoints."""
    if a == b:
        return 0.0
    h = (b - a) / panels
    total = 0.0
    for k in range(panels):
        t0 = a + k * h
        total += f(t0) + 4.0 * f(t0 + 0.5 * h) + f(t0 + h)
    return total * h / 6.0


def _cumulative_simpson(f, a: float, b: float, panels: int):
    """Cumulative integral from a at the fine nodes (panel ends and midpoints).

    Returns (nodes, cumulative values), both of length 2*panels + 1.
    """
    h = (b - a) / panels if panels else 0.0
    nodes = [a + 0.5 * h * k for k in range(2 * panels + 1)]
    vals = [0.0] * len(nodes)
    for k in range(2 * panels):
        t0, t1 = nodes[k], nodes[k + 1]
        m = 0.5 * (t0 + t1)
        vals[k + 1] = vals[k] + (t1 - t0) / 6.0 * (f(t0) + 4.0 * f(m) + f(t1))
    return nodes, vals


class OracleChart35:
    """Integral coordinates of the triangular family by direct quadrature.

    The chart is normalised like the flow pipeline: y_n = x_n and the other
    components vanish on the section {x_1 = ... = x_(n-1) = 0}.  For n <= 3
    every integrand is closed-form; larger n falls back to a recursive
    scheme with finite-difference x_n-derivatives of the already-built
    components.
    """

    def __init__(self, spec: Example35Spec, panels: int):
        self.spec = spec
        self.panels = panels
        self.n = spec.n
        P = example35_P(spec)
        self._P = [ex.compile_expr(p) for p in P]
        self._dP1_dxn = ex.compile_expr(ex.differentiate(P[0], spec.n)) \
            if spec.n >= 2 else None

    def evaluate(self, point) -> np.ndarray:
        """The chart at the point, computed afresh for every call."""
        x, n = np.asarray(point, dtype=float), self.n
        if n == 1:
            return x.copy()
        if n == 2:
            return np.array([self._y_n2(x), x[1]])
        if n == 3:
            y2, y1 = self._y_n3(x)
            return np.array([y1, y2, x[2]])
        return self._evaluate_general(x)

    __call__ = evaluate

    def _y_n2(self, x) -> float:
        P1 = self._P[0]
        return _simpson(lambda t: P1((t, x[1])), 0.0, float(x[0]), self.panels)

    def _y_n3(self, x) -> tuple[float, float]:
        P1, P2 = self._P[0], self._P[1]
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        panels = self.panels
        # y_2 = int_0^(x2) P_1(t, x3) dt  (P_1 does not depend on x_1)
        y2 = _simpson(lambda t: P1((0.0, t, x3)), 0.0, x2, panels)
        # v_2(t) = d y_2 / d x_3 at (*, t, x3), by quadrature of d P_1 / d x_3
        dP1 = self._dP1_dxn
        nodes, v2 = _cumulative_simpson(lambda t: dP1((0.0, t, x3)), 0.0, x2,
                                        panels)
        # y_1 = x1 P_1(0, x3) + int_0^(x2) [P_1 v_2 + P_2](x1, t, x3) dt
        integrand = [P1((0.0, t, x3)) * v for t, v in zip(nodes, v2)]
        integrand = [g + P2((x1, t, x3)) for g, t in zip(integrand, nodes)]
        h = (x2 - 0.0) / panels if panels else 0.0
        total = 0.0
        for k in range(panels):
            total += integrand[2 * k] + 4.0 * integrand[2 * k + 1] + integrand[2 * k + 2]
        y1 = x1 * P1((0.0, 0.0, x3)) + total * h / 6.0
        return y2, y1

    # -- general n (recursive, FD-based x_n derivatives) -------------------

    def _component_general(self, m: int, x: np.ndarray) -> float:
        n = self.n
        if m == n:
            return float(x[n - 1])
        total = 0.0
        for j in range(m, n):           # segments j = m .. n-1 (1-based)
            upper = float(x[j - 1])
            if upper == 0.0:
                continue

            def integrand(t, j=j):
                pt = np.array(x, dtype=float)
                pt[j - 1] = t
                pt[j:n - 1] = 0.0
                return self._dy_dxj(m, j, pt)

            total += _simpson(integrand, 0.0, upper, max(self.panels // 8, 16))
        return total

    def _dy_dxj(self, m: int, j: int, pt: np.ndarray) -> float:
        """d y_m / d x_j = sum_i P_i * v_(n+m-j-1+i)."""
        n = self.n
        total = 0.0
        for i in range(1, j - m + 2):
            l = n + m - j - 1 + i
            total += self._P[i - 1](pt) * self._v(l, pt)
        return total

    def _v(self, l: int, pt: np.ndarray) -> float:
        n = self.n
        if l == n:
            return 1.0
        h = 5e-4
        up = pt.copy()
        dn = pt.copy()
        up[n - 1] += h
        dn[n - 1] -= h
        return (self._component_general(l, up) - self._component_general(l, dn)) / (2 * h)

    def _evaluate_general(self, x: np.ndarray) -> np.ndarray:
        return np.array([self._component_general(m, x) for m in range(1, self.n + 1)])


def example35_solve(spec: Example35Spec, panels: int = 1024) -> OracleChart35:
    """Quadrature chart for the triangular family; requires zero torsion."""
    resid = example35_compat_residual(spec)
    if resid > 1e-8:
        raise CompatibilityError(
            f"compatibility residual {resid:.3e} exceeds 1.0e-08")
    return OracleChart35(spec, panels)


# ---------------------------------------------------------------------------
# Constant and conjugated-constant ground-truth fields.

def _slot_groups(multiplicities) -> dict:
    """Axis grouping of the slot basis: slot (a, i) sits in group
    (n - a, q(i) - a)."""
    orders = _orders(multiplicities)
    n = max(orders)
    groups: dict = {}
    for axis, (a, i) in enumerate(basis_slots(multiplicities)):
        key = (n - a, orders[i] - a)
        groups.setdefault(key, []).append(axis)
    return {k: tuple(v) for k, v in groups.items()}


def constant_jordan(multiplicities,
                    box: Box | None = None) -> tuple[EndoField, AdaptedChart]:
    """The constant field in its own slot basis, with the natural grouping."""
    M = jordan_matrix(multiplicities)
    d = M.shape[0]
    box = box or Box.cube(d, 0.5)
    return EndoField.from_constant(M), AdaptedChart(d, _slot_groups(multiplicities), box)


def _check_prefix_flags(multiplicities):
    """Triangular shears preserve exactly the axis-prefix subspaces, so every
    flag subspace must be a slot-order prefix."""
    orders = _orders(multiplicities)
    n = max(orders)
    slots = basis_slots(multiplicities)
    for m in range(0, n):
        for q in range(0, n + 1):
            members = [(a >= m) and (a >= orders[i] - q) for (a, i) in slots]
            k = sum(members)
            if not all(members[:k]):
                raise UnsupportedMultiplicitiesError(
                    f"flag Im^{m} ∩ ker^{q} is not a slot prefix for "
                    f"multiplicities {tuple(multiplicities)}")


@dataclass(frozen=True)
class ConjugatedOracle:
    """A field integrable by construction, with its exact chart."""

    field: EndoField
    chart: AdaptedChart
    known_chart: tuple        # expressions for phi^(-1), the exact integral chart
    shear: tuple              # expressions g_c, phi_c = x_c + g_c(later vars)
    jordan: np.ndarray
    multiplicities: tuple
    eigenvalue: float = 0.0

    def known_chart_evaluator(self):
        fn = ex.compile_vector(self.known_chart)
        return lambda p: np.array(fn(p))


def conjugated_constant(seed: int, d: int, multiplicities,
                        shear_degree: int = 2, box: Box | None = None,
                        eigenvalue: float = 0.0) -> ConjugatedOracle:
    """A(x) = Dphi(w) M Dphi(w)^(-1) at w = phi^(-1)(x), for a triangular
    polynomial shear phi.

    The shear perturbs only the image slots (a >= 1) by polynomials in
    strictly later variables, so the natural coordinates remain adapted and
    the quotient coordinates agree with the constant model's.
    """
    multiplicities = tuple(int(v) for v in multiplicities)
    if sum(a * da for a, da in enumerate(multiplicities, start=1)) != d:
        raise ValueError("multiplicities do not sum to the dimension")
    _check_prefix_flags(multiplicities)
    slots = basis_slots(multiplicities)
    M = jordan_matrix(multiplicities, eigenvalue)
    box = box or Box.cube(d, 0.5)
    rng = np.random.default_rng(seed)

    # shear generators g_c on image slots, in variables x_(c+2) .. x_d
    g: list[ScalarExpr] = []
    for c, (a, i) in enumerate(slots):
        if a == 0 or shear_degree < 1 or c == d - 1:
            g.append(ex.const(0.0))
            continue
        terms = []
        later = list(range(c + 1, d))
        n_terms = int(rng.integers(1, 3))
        for _ in range(n_terms):
            deg = int(rng.integers(1, shear_degree + 1))
            coeff = float(rng.uniform(0.08, 0.25) * rng.choice([-1.0, 1.0]))
            factor = ex.const(coeff)
            for _ in range(deg):
                v = int(rng.choice(later))
                factor = ex.mul(factor, ex.var(v + 1))
            terms.append(factor)
        g.append(ex.add(*terms) if terms else ex.const(0.0))

    # phi^(-1) by back substitution: w_c = x_c - g_c(w_(c+1), ..., w_d)
    w: list[ScalarExpr] = [None] * d
    for c in range(d - 1, -1, -1):
        mapping = {k + 1: w[k] for k in range(c + 1, d)}
        w[c] = ex.sub(ex.var(c + 1), ex.substitute(g[c], mapping))

    # Dphi at w: unit upper triangular
    subs_w = {k + 1: w[k] for k in range(d)}
    U_rows = [[ex.const(0.0)] * d for _ in range(d)]
    for c in range(d):
        for j in range(c + 1, d):
            dg = ex.differentiate(g[c], j + 1)
            if not (isinstance(dg, ex.Const) and dg.value == 0.0):
                U_rows[c][j] = ex.substitute(dg, subs_w)
    U = EndoField(tuple(tuple(r) for r in U_rows))
    Dphi = EndoField.identity(d).add(U)
    # (I + U)^(-1) = sum (-U)^k, finite since U is strictly triangular
    inv = EndoField.identity(d)
    term = EndoField.identity(d)
    for _ in range(d - 1):
        term = term.matmul(U).scaled(-1.0)
        inv = inv.add(term)
    A = Dphi.matmul(EndoField.from_constant(M)).matmul(inv)
    chart = AdaptedChart(d, _slot_groups(multiplicities), box)
    return ConjugatedOracle(A, chart, tuple(w), tuple(g), M, multiplicities,
                            eigenvalue)


# ---------------------------------------------------------------------------
# The corpus registry.

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    expected: str      # "integrable" | "fails-involutivity" | "fails-torsion"
    build: object      # () -> dict with field, box, and optional chart/extras


def _entry_example37():
    box = Box.cube(4, 1.0)
    return {"field": example37_field(), "box": box, "chart": None}


def _entry_example38():
    box = Box.cube(4, 1.0)
    return {"field": example38_field(), "box": box,
            "chart": example38_chart(box)}


def _entry_example35(n, radius=0.3):
    spec = Example35Spec.from_theta(n, box=Box.cube(n, radius))
    A, chart = example35_field(spec)
    return {"field": A, "box": spec.box, "chart": chart, "spec": spec}


def _entry_example35_xn():
    box = Box.cube(3, 0.4)
    alphas = (ex.mul(ex.const(0.5), ex.var(3)),
              ex.add(ex.const(1.0), ex.mul(ex.const(0.4), ex.var(3))))
    spec = Example35Spec(3, alphas, box)
    A, chart = example35_field(spec)
    return {"field": A, "box": box, "chart": chart, "spec": spec}


def _entry_example35_n4():
    spec = Example35Spec.constant(4, [0.3, -0.2, 1.0], Box.cube(4, 0.4))
    A, chart = example35_field(spec)
    return {"field": A, "box": spec.box, "chart": chart, "spec": spec}


def _entry_constant_jordan():
    A, chart = constant_jordan((1, 1), Box.cube(3, 0.5))
    return {"field": A, "box": chart.box, "chart": chart}


def _entry_conjugated_n2():
    oracle = conjugated_constant(seed=20260811, d=3, multiplicities=(1, 1),
                                 shear_degree=2)
    return {"field": oracle.field, "box": oracle.chart.box,
            "chart": oracle.chart, "oracle": oracle}


def _entry_conjugated_n2_d4():
    oracle = conjugated_constant(seed=4, d=4, multiplicities=(0, 2),
                                 shear_degree=2)
    return {"field": oracle.field, "box": oracle.chart.box,
            "chart": oracle.chart, "oracle": oracle}


def _entry_block_mixed():
    """diag(example37 field, constant cyclic 3-block) on R^7.

    Torsion-free with nilpotency index 3 and a 4-dimensional non-involutive
    kernel: kernel-pair brackets genuinely leave ker A yet stay in ker A^2.
    """
    z = ex.const(0.0)
    rows = [[z] * 7 for _ in range(7)]
    rows[0][2] = ex.exp(ex.var(2))
    rows[0][3] = ex.const(1.0)
    rows[4][5] = ex.const(1.0)
    rows[5][6] = ex.const(1.0)
    A = EndoField(tuple(tuple(r) for r in rows))
    return {"field": A, "box": Box.cube(7, 0.8), "chart": None}


CORPUS: dict[str, CorpusEntry] = {
    "example37": CorpusEntry(
        "example37", "torsion-free field with non-involutive kernel",
        "fails-involutivity", _entry_example37),
    "example38": CorpusEntry(
        "example38", "involutive-kernel field with nonzero torsion",
        "fails-torsion", _entry_example38),
    "example35-n2": CorpusEntry(
        "example35-n2", "triangular family, n = 2, theta coefficient",
        "integrable", lambda: _entry_example35(2, radius=0.4)),
    "example35-n3": CorpusEntry(
        "example35-n3", "triangular family, n = 3, theta coefficient",
        "integrable", lambda: _entry_example35(3)),
    "example35-n3-xn": CorpusEntry(
        "example35-n3-xn", "triangular family, n = 3, coefficients in x_n only",
        "integrable", _entry_example35_xn),
    "example35-n4-const": CorpusEntry(
        "example35-n4-const", "triangular family, n = 4, constant coefficients",
        "integrable", _entry_example35_n4),
    "constant-jordan": CorpusEntry(
        "constant-jordan", "constant nilpotent matrix, multiplicities (1, 1)",
        "integrable", _entry_constant_jordan),
    "conjugated-n2": CorpusEntry(
        "conjugated-n2", "quadratic shear of a constant field, d = 3",
        "integrable", _entry_conjugated_n2),
    "conjugated-n2-d4": CorpusEntry(
        "conjugated-n2-d4", "quadratic shear of a constant field, d = 4",
        "integrable", _entry_conjugated_n2_d4),
    "block-mixed": CorpusEntry(
        "block-mixed", "non-involutive-kernel block plus a cyclic 3-block",
        "fails-involutivity", _entry_block_mixed),
}


def build_corpus_field(name: str) -> dict:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus field {name!r}; "
                       f"known: {', '.join(sorted(CORPUS))}")
    return CORPUS[name].build()
