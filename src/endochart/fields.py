"""Vector fields, endomorphism fields, Lie brackets, and torsion tensors.

The tensors come two ways.  `nijenhuis`, `nprime` and `torsion_S` build
expression trees; they are the reference.  Every sampled torsion of the
condition layer comes from one numeric kernel instead, `nprime_kernel`:
N'_{A,B} depends only on the 1-jets of A and B at a point, so it is an
einsum over A, B and their first partials evaluated on the sample block
(`jet_evaluator`, and `power_jets` for the powers of A).  N_A is N'_{A,A}.
Tensoriality means evaluating a torsion on the d^2 coordinate-field pairs
determines it completely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Box, ScalarExpr

__all__ = [
    "VectorField", "EndoField", "coordinate_field",
    "apply_endo", "endo_power", "lie_bracket", "nijenhuis", "nprime",
    "torsion_S", "prop22_residual", "NonCommutingError", "Prop22Report",
    "first_max", "jet_evaluator", "power_jets", "nprime_kernel",
]


class NonCommutingError(ValueError):
    def __init__(self, max_residual: float):
        super().__init__(
            f"endomorphism fields do not commute (max residual {max_residual:.3e})")
        self.max_residual = max_residual


@dataclass(frozen=True)
class VectorField:
    """d expression components; component i multiplies d/dx_(i+1)."""

    components: tuple

    def __post_init__(self):
        for c in self.components:
            if not isinstance(c, ScalarExpr):
                raise TypeError("components must be ScalarExpr")

    @property
    def dim(self) -> int:
        return len(self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(ex.add(a, b) for a, b in
                                 zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(ex.sub(a, b) for a, b in
                                 zip(self.components, other.components)))

    def scaled(self, f) -> "VectorField":
        return VectorField(tuple(ex.mul(f, c) for c in self.components))

    def evaluator(self):
        fn = ex.compile_vector(self.components)
        return lambda p: np.array(fn(p))

    def jacobian_exprs(self) -> list:
        d = self.dim
        return [[ex.differentiate(self.components[i], j + 1) for j in range(d)]
                for i in range(d)]

    def __call__(self, p) -> np.ndarray:
        return np.array([ex.evaluate(c, p) for c in self.components])


def coordinate_field(d: int, i: int) -> VectorField:
    """The coordinate vector field d/dx_i (1-based) on R^d."""
    comps = [ex.const(0.0)] * d
    comps[i - 1] = ex.const(1.0)
    return VectorField(tuple(comps))


@dataclass(frozen=True)
class EndoField:
    """d x d matrix of expressions; column j holds the components of A(d/dx_j)."""

    entries: tuple  # tuple of rows, each a tuple of ScalarExpr

    def __post_init__(self):
        d = len(self.entries)
        for row in self.entries:
            if len(row) != d:
                raise ValueError("endomorphism field must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_constant(M: np.ndarray) -> "EndoField":
        return EndoField(tuple(tuple(ex.const(v) for v in row) for row in M))

    @staticmethod
    def identity(d: int) -> "EndoField":
        return EndoField.from_constant(np.eye(d))

    @staticmethod
    def zero(d: int) -> "EndoField":
        return EndoField.from_constant(np.zeros((d, d)))

    def column(self, j: int) -> VectorField:
        """The image A(d/dx_j), 1-based j."""
        return VectorField(tuple(self.entries[i][j - 1] for i in range(self.dim)))

    def matmul(self, other: "EndoField") -> "EndoField":
        d = self.dim
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                row.append(ex.add(*[ex.mul(self.entries[i][k], other.entries[k][j])
                                    for k in range(d)]))
            rows.append(tuple(row))
        return EndoField(tuple(rows))

    def add(self, other: "EndoField") -> "EndoField":
        return EndoField(tuple(tuple(ex.add(a, b) for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def scaled(self, c: float) -> "EndoField":
        return EndoField(tuple(tuple(ex.mul(c, e) for e in row)
                               for row in self.entries))

    def shifted(self, lam: float) -> "EndoField":
        """A - lam * Id."""
        rows = []
        for i, row in enumerate(self.entries):
            rows.append(tuple(ex.sub(e, lam) if i == j else e
                              for j, e in enumerate(row)))
        return EndoField(tuple(rows))

    def evaluator(self):
        d = self.dim
        flat = ex.compile_vector([self.entries[i][j]
                                  for i in range(d) for j in range(d)])
        return lambda p: np.array(flat(p)).reshape(d, d)

    def batch_evaluator(self):
        """x -> (N, d, d) values at the points of a (d, N) array x."""
        d = self.dim
        flat = ex.compile_batch([e for row in self.entries for e in row])
        return lambda x: flat(x).T.reshape(-1, d, d)

    def __call__(self, p) -> np.ndarray:
        return np.array([[ex.evaluate(e, p) for e in row] for row in self.entries])

    def entry_scale(self, box: Box, seed: int = 2026) -> float:
        """Max |entry| over a deterministic sample set; tolerance scaling."""
        x = ex.sample_box(box, 40, seed).T
        return float(np.max(np.abs(self.batch_evaluator()(x))))


def apply_endo(A: EndoField, X: VectorField) -> VectorField:
    """Pointwise matrix-vector product A X."""
    if A.dim != X.dim:
        raise ValueError("dimension mismatch")
    comps = []
    for i in range(A.dim):
        comps.append(ex.add(*[ex.mul(A.entries[i][j], X.components[j])
                              for j in range(A.dim)]))
    return VectorField(tuple(comps))


def endo_power(A: EndoField, p: int) -> EndoField:
    """Pointwise p-th power, from p - 1 products; p = 0 gives the identity."""
    if p < 0:
        raise ValueError("power must be >= 0")
    out = EndoField.identity(A.dim) if p == 0 else A
    for _ in range(p - 1):
        out = out.matmul(A)
    return out


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j), exactly."""
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    d = X.dim
    comps = []
    for i in range(d):
        terms = []
        for j in range(d):
            terms.append(ex.mul(X.components[j],
                                ex.differentiate(Y.components[i], j + 1)))
            terms.append(ex.negate(ex.mul(Y.components[j],
                                          ex.differentiate(X.components[i], j + 1))))
        comps.append(ex.add(*terms))
    return VectorField(tuple(comps))


def nijenhuis(A: EndoField, X: VectorField, Y: VectorField) -> VectorField:
    """[AX, AY] - A[X, AY] - A[AX, Y] + A^2 [X, Y]."""
    AX = apply_endo(A, X)
    AY = apply_endo(A, Y)
    A2 = endo_power(A, 2)
    return (lie_bracket(AX, AY)
            - apply_endo(A, lie_bracket(X, AY))
            - apply_endo(A, lie_bracket(AX, Y))
            + apply_endo(A2, lie_bracket(X, Y)))


def _nprime_raw(A: EndoField, B: EndoField, X: VectorField,
                Y: VectorField) -> VectorField:
    """[AX, BY] - A[X, BY] - B[AX, Y] + AB[X, Y], no commutation check."""
    AX = apply_endo(A, X)
    BY = apply_endo(B, Y)
    AB = A.matmul(B)
    return (lie_bracket(AX, BY)
            - apply_endo(A, lie_bracket(X, BY))
            - apply_endo(B, lie_bracket(AX, Y))
            + apply_endo(AB, lie_bracket(X, Y)))


def commutator_residual(A: EndoField, B: EndoField, box: Box) -> float:
    """Max sampled |AB - BA| entry, skipping points near pospow kinks."""
    AB = A.matmul(B)
    BA = B.matmul(A)
    diffs = [ex.sub(a, b) for r1, r2 in zip(AB.entries, BA.entries)
             for a, b in zip(r1, r2)]
    x = ex.sample_box(box, 60, 2026).T
    vals = np.abs(ex.compile_batch(diffs)(x))
    vals[:, ex.kink_mask(diffs, x)] = 0.0
    return float(np.max(vals))


def nprime(A: EndoField, B: EndoField, X: VectorField, Y: VectorField,
           box: Box) -> VectorField:
    """The auxiliary torsion of a commuting pair (A, B).

    The pointwise commutation of A and B is a precondition; it is verified
    numerically on `box`, to 1e-9 (1 + scale^2) with scale the larger
    entry scale of A and B.
    """
    scale = max(A.entry_scale(box), B.entry_scale(box))
    worst = commutator_residual(A, B, box)
    if worst > 1e-9 * (1.0 + scale * scale):
        raise NonCommutingError(worst)
    return _nprime_raw(A, B, X, Y)


def torsion_S(A: EndoField, B: EndoField, X: VectorField,
              Y: VectorField) -> VectorField:
    """S_{A,B} = N'_{A,B} + N'_{B,A}, by direct expansion.

    Well-defined without any commutation assumption, so this bypasses
    nprime's precondition.
    """
    return _nprime_raw(A, B, X, Y) + _nprime_raw(B, A, X, Y)


@dataclass(frozen=True)
class Prop22Report:
    max_residual_i: float
    max_residual_ii: float
    witness_i: tuple
    witness_ii: tuple

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_i, self.max_residual_ii)


def first_max(vals: np.ndarray) -> tuple[float, int, int]:
    """Maximum of a (pairs, N) array of sampled values, with the pair and
    the point of its first occurrence, pairs in order and points in sample
    order within a pair; (0.0, 0, 0) when there are no pairs."""
    if vals.size == 0:
        return 0.0, 0, 0
    r, n = divmod(int(np.argmax(vals)), vals.shape[1])
    return float(vals[r, n]), r, n


def jet_evaluator(A: EndoField):
    """x -> the 1-jet of A at the points of a (d, N) array x: the values
    [m, j, n] = A_mj and the first partials [l, m, j, n] = d_l A_mj."""
    d = A.dim
    entries = [e for row in A.entries for e in row]
    derivs = [ex.differentiate(e, l) for l in range(1, d + 1) for e in entries]
    values = ex.compile_batch(entries + derivs)

    def jet(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals = values(x)
        return vals[:d * d].reshape(d, d, -1), vals[d * d:].reshape(d, d, d, -1)
    return jet


def power_jets(jet: tuple, k: int) -> list:
    """The 1-jets of A^0 .. A^k from A's, by the product rule
    d(A^k) = d(A^(k-1)) A + A^(k-1) dA."""
    A, dA = jet
    d = A.shape[0]
    jets = [(np.broadcast_to(np.eye(d)[:, :, None], A.shape), np.zeros(dA.shape)),
            jet]
    for _ in range(2, k + 1):
        P, dP = jets[-1]
        jets.append((np.einsum("mon,ojn->mjn", P, A),
                     np.einsum("lmon,ojn->lmjn", dP, A)
                     + np.einsum("mon,lojn->lmjn", P, dA)))
    return jets[:k + 1]


def nprime_kernel(a: tuple, b: tuple, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """N'_{A,B}(d_i, d_j) from the 1-jets a of A and b of B (`jet_evaluator`)
    on the coordinate pairs of the index arrays i and j (0-based), as a
    (pairs, d, N) array [p, m, n] = N'_{A,B}(d_(i_p), d_(j_p))^m:

        sum_l (A_li d_l B_mj - B_lj d_l A_mi)
        - sum_l (A_ml d_i B_lj - B_ml d_j A_li).

    N_A is N'_{A,A}.  Nothing here assumes that A and B commute.
    """
    (A, dA), (B, dB) = a, b
    bracket = (np.einsum("lpn,lmpn->pmn", A[:, i], dB[:, :, j])
               - np.einsum("lpn,lmpn->pmn", B[:, j], dA[:, :, i]))
    inner = (np.einsum("mln,pln->pmn", A, dB[i, :, j])
             - np.einsum("mln,pln->pmn", B, dA[j, :, i]))
    return bracket - inner


def prop22_residual(A: EndoField, p: int, q: int, box: Box,
                    samples: int = 100, seed: int = 2026) -> Prop22Report:
    """Residuals of the two reduction identities for iterated-power torsions.

    (i)  N'_{A, A^q}(X, Y)  = sum_{k=1}^q A^(q-k) N_A(X, A^(k-1) Y)
    (ii) N'_{A^p, A^q}(X, Y) = sum_{k=1}^p A^(p-k) N'_{A, A^q}(X, A^(k-1) Y)

    Both hold for any nilpotent A, vanishing torsion or not; the report is
    the max over coordinate-field pairs and sampled points.  Every torsion
    comes from the 1-jets of the powers (`nprime_kernel`); the right-hand
    sides contract them with the powers, by tensoriality:
    T(d_i, A^(k-1) d_j) = sum_l (A^(k-1))_lj T(d_i, d_l), which holds for
    N_A and, since A and A^q commute, for N'_{A, A^q}.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    d = A.dim
    x = ex.sample_box(box, samples, seed, include_corners=False).T
    powers = power_jets(jet_evaluator(A)(x), max(p, q))
    pairs = np.indices((d, d)).reshape(2, -1)

    def torsion(a: int, b: int) -> np.ndarray:    # [i, j, m, n]
        return nprime_kernel(powers[a], powers[b], *pairs).reshape(d, d, d, -1)

    def reduced(T: np.ndarray, r: int) -> np.ndarray:
        return sum(np.einsum("mon,ljn,ilon->ijmn", powers[r - k][0],
                             powers[k - 1][0], T) for k in range(1, r + 1))

    def worst(R: np.ndarray) -> tuple[float, tuple]:
        value, _, n = first_max(np.max(np.abs(R.reshape(d * d, d, -1)), axis=1))
        return value, (tuple(x[:, n]) if value > 0.0 else tuple(box.center))

    n_aq = torsion(1, q)
    worst_i, wit_i = worst(n_aq - reduced(torsion(1, 1), q))
    worst_ii, wit_ii = worst(torsion(p, q) - reduced(n_aq, p))
    return Prop22Report(worst_i, worst_ii, wit_i, wit_ii)
