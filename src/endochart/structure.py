"""Pointwise and box-uniform linear-algebraic structure of endomorphism fields.

Rank profiles of powers, nilpotency index and invariant-factor
multiplicities, smooth kernel/image frames from symbolic elimination with a
frozen pivot pattern, involutivity residual tests, and the structured
condition reports for the nilpotent and general (user-supplied factors)
integrability checks.

Each condition report draws one sample set and passes its (d, N) point
block to the rank, torsion and involutivity checks.  Every check evaluates
it point-batched (`expr.compile_batch`) and works on stacked arrays: ranks
by stacked SVD, torsion by the 1-jet kernel `fields.nprime_kernel`,
involutivity by frame brackets from the frame's 1-jet and stacked QR
projections (`span_residuals`, which the induction clauses of `charts`
share).  A witness is the first sample point attaining the strict maximum,
pairs in (i, j) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import Box, sample_box
from .fields import (EndoField, VectorField, endo_power, first_max,
                     jet_evaluator, nprime_kernel)

__all__ = [
    "StructureProfile", "Distribution", "RankResult", "rank_profile",
    "invariant_factors", "constancy_check", "kernel_frame", "image_frame",
    "nullspace_frame", "column_frame", "involutivity_residual",
    "sum_distribution", "theorem13_report", "corollary15_report",
    "Theorem13Report", "Corollary15Report", "InvolutivityResult",
    "ConstancyResult", "PivotDegenerationError", "NonNilpotentError",
    "InconsistentRanksError", "AnnihilationError", "poly_endo",
    "nijenhuis_residual", "torsion_tol", "span_residuals",
]

SVD_RELATIVE_THRESHOLD = 1e-8
ABSOLUTE_FLOOR = 1e-12
INVOLUTIVITY_TOL = 1e-8   # bracket residual gate, times 1 + frame scale


class PivotDegenerationError(ValueError):
    """A frozen pivot degenerates somewhere on the box; shrink the box."""


class NonNilpotentError(ValueError):
    """Input is not nilpotent on the box; use the invariant-factor check."""


class InconsistentRanksError(ValueError):
    """Rank sequence yields a negative block count."""


class AnnihilationError(ValueError):
    """Supplied factor polynomials do not annihilate the field."""


# ---------------------------------------------------------------------------
# Rank profiles and invariant factors.

@dataclass(frozen=True)
class RankResult:
    ranks: tuple
    warnings: tuple = ()


def _numeric_ranks(Ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numeric ranks of a stack of matrices, and whether each has a
    singular value near its rank threshold."""
    live = np.any(Ms != 0.0, axis=(1, 2))   # exact zeros skip the SVD
    s = np.zeros((len(Ms), min(Ms.shape[1:])))
    s[live] = np.linalg.svd(Ms[live], compute_uv=False)
    if s.shape[-1] == 0:
        return np.zeros(len(Ms), dtype=int), np.zeros(len(Ms), dtype=bool)
    threshold = SVD_RELATIVE_THRESHOLD * s[:, :1] * Ms.shape[1]
    ranks = np.sum(s > threshold, axis=1)
    shaky = np.any((s > threshold / 10.0) & (s < threshold * 10.0), axis=1)
    vanishing = s[:, 0] <= ABSOLUTE_FLOOR
    ranks[vanishing] = 0
    shaky[vanishing] = False
    return ranks, shaky


def _numeric_rank(M: np.ndarray) -> int:
    return int(_numeric_ranks(M[None])[0][0])


def _power_ranks(Ms: np.ndarray) -> list:
    """Per matrix M of a stack: the ranks of M^0 .. M^k, stopping at the
    first zero rank, and the powers whose singular values sit near the rank
    threshold."""
    count, d, _ = Ms.shape
    ranks, shaky = [np.full(count, d)], [np.zeros(count, dtype=bool)]
    P = Ms
    reached_zero = np.zeros(count, dtype=bool)
    for _ in range(d):
        r, s = _numeric_ranks(P)
        ranks.append(r)
        shaky.append(s)
        reached_zero |= r == 0
        if reached_zero.all():
            break
        P = P @ Ms
    out = []
    for r, s in zip(np.array(ranks).T.tolist(), np.array(shaky).T.tolist()):
        stop = r.index(0) + 1 if 0 in r else len(r)
        out.append((tuple(r[:stop]), [k for k in range(1, stop) if s[k]]))
    return out


def rank_profile(A: EndoField, p) -> RankResult:
    """Numeric ranks of A^0 .. A^d at the point `p` via SVD thresholding."""
    ranks, shaky = _power_ranks(np.asarray(A(p), dtype=float)[None])[0]
    return RankResult(ranks, tuple(
        f"singular value near rank threshold for power {k}" for k in shaky))


@dataclass(frozen=True)
class StructureProfile:
    """Rank sequence of powers, nilpotency index, block-size multiplicities."""

    ranks: tuple
    index: int              # nilpotency index n
    multiplicities: tuple   # (d_1, ..., d_n), d_a = number of Jordan blocks of size a

    @property
    def dim(self) -> int:
        return self.ranks[0]


def invariant_factors(ranks) -> StructureProfile:
    """Block-size multiplicities d_a = r_(a-1) - 2 r_a + r_(a+1).

    Requires a valid nilpotent rank sequence (strictly decreasing to 0).
    """
    ranks = tuple(int(r) for r in ranks)
    d = ranks[0]
    if ranks[-1] != 0:
        raise NonNilpotentError(f"rank sequence {ranks} does not reach 0")
    n = next(i for i, r in enumerate(ranks) if r == 0)
    seq = list(ranks[:n + 1]) + [0]  # pad r_(n+1) = 0
    for a in range(1, n + 1):
        if seq[a] >= seq[a - 1]:
            raise InconsistentRanksError(f"rank sequence {ranks} not strictly decreasing")
    mults = []
    for a in range(1, n + 1):
        da = seq[a - 1] - 2 * seq[a] + seq[a + 1]
        if da < 0:
            raise InconsistentRanksError(
                f"negative multiplicity d_{a} = {da} from ranks {ranks}")
        mults.append(da)
    if sum(a * da for a, da in enumerate(mults, start=1)) != d:
        raise InconsistentRanksError(f"multiplicities from {ranks} do not sum to {d}")
    return StructureProfile(tuple(seq[:n + 1]), n, tuple(mults))


@dataclass(frozen=True)
class ConstancyResult:
    constant: bool
    profile: StructureProfile | None
    ranks: tuple
    witness: tuple | None   # (point_a, ranks_a, point_b, ranks_b) on disagreement
    warnings: tuple = ()

    def __bool__(self):
        return self.constant


def constancy_check(A: EndoField, x: np.ndarray) -> ConstancyResult:
    """True iff the rank profile of powers is identical at the points of
    a (d, N) array x."""
    profiles = _power_ranks(A.batch_evaluator()(x))
    first = profiles[0][0]
    bad = next((n for n, (r, _) in enumerate(profiles) if r != first), None)
    warnings = [
        f"singular value near threshold for power {k} at "
        f"{tuple(round(float(v), 6) for v in x[:, n])}"
        for n in range(len(profiles) if bad is None else bad + 1)
        for k in profiles[n][1]][:5]
    if bad is not None:
        return ConstancyResult(False, None, first,
                               (tuple(float(v) for v in x[:, 0]), first,
                                tuple(float(v) for v in x[:, bad]),
                                profiles[bad][0]),
                               tuple(warnings))
    profile = None
    if first[-1] == 0:
        try:
            profile = invariant_factors(first)
        except (NonNilpotentError, InconsistentRanksError):
            profile = None
    return ConstancyResult(True, profile, first, None, tuple(warnings))


# ---------------------------------------------------------------------------
# Smooth frames from symbolic elimination with frozen pivots.

@dataclass(frozen=True)
class Distribution:
    """A distribution given by a generating smooth frame on a box."""

    frame: tuple            # tuple of VectorField
    rank: int
    provenance: str
    box: Box

    def __post_init__(self):
        if len(self.frame) != self.rank:
            raise ValueError("frame length must equal nominal rank")

    @property
    def dim(self) -> int:
        return self.frame[0].dim if self.frame else self.box.dim

    @cached_property
    def _batch(self):
        """The frame's components, one field after another, compiled for
        blocks on first use."""
        return ex.compile_batch([c for F in self.frame for c in F.components])

    def values_on(self, x: np.ndarray) -> np.ndarray:
        """(N, d, k) frame matrices at the points of a (d, N) array x."""
        if not self.frame:
            return np.zeros((x.shape[1], self.box.dim, 0))
        flat = self._batch(x)
        return flat.reshape(self.rank, self.dim, -1).transpose(2, 1, 0)

    def brackets_on(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Frame values [i, m, n] = X_i^m at the points of a (d, N) array x,
        and the (d, N) brackets [X_i, X_j] = DX_j X_i - DX_i X_j of pairs
        i < j in order, from the frame's 1-jet compiled as one list.  A
        frame of constants has zero brackets and compiles no partials."""
        k, d = self.rank, self.dim
        comps = [c for F in self.frame for c in F.components]
        if all(isinstance(c, ex.Const) for c in comps):
            zero = np.zeros((d, x.shape[1]))
            return (self._batch(x).reshape(k, d, -1),
                    [zero] * (k * (k - 1) // 2))
        flat = ex.compile_batch(comps + [
            ex.differentiate(c, l) for l in range(1, d + 1) for c in comps])(x)
        X, dX = flat[:k * d].reshape(k, d, -1), flat[k * d:].reshape(d, k, d, -1)
        return X, [np.einsum("ln,lmn->mn", X[i], dX[:, j])
                   - np.einsum("ln,lmn->mn", X[j], dX[:, i])
                   for i, j in zip(*np.triu_indices(k, 1))]


def nullspace_frame(M: EndoField, box: Box, provenance: str,
                    seed: int = 2026) -> Distribution:
    """Smooth frame spanning ker M(x) on the box.

    Symbolic Gauss-Jordan elimination with the pivot pattern chosen at the
    box center; pivots must keep a fixed sign over the box.
    """
    d = M.dim
    center = box.center
    M0 = np.asarray(M(center), dtype=float)
    rank = _numeric_rank(M0)

    rows = [list(r) for r in M.entries]
    work = M0.copy()
    pivots: list[tuple[int, int]] = []  # (row, col)
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    for _ in range(rank):
        best, br, bc = 0.0, -1, -1
        for i in range(d):
            if i in used_rows:
                continue
            for j in range(d):
                if j in used_cols:
                    continue
                if abs(work[i, j]) > best:
                    best, br, bc = abs(work[i, j]), i, j
        if br < 0 or best <= ABSOLUTE_FLOOR:
            break
        pivots.append((br, bc))
        used_rows.add(br)
        used_cols.add(bc)
        # eliminate column bc from every other row, numerically and symbolically
        for i in range(d):
            if i == br:
                continue
            factor_num = work[i, bc] / work[br, bc]
            factor_sym = ex.div(rows[i][bc], rows[br][bc])
            for j in range(d):
                work[i, j] -= factor_num * work[br, j]
                rows[i][j] = ex.sub(rows[i][j], ex.mul(factor_sym, rows[br][j]))
            work[i, bc] = 0.0
            rows[i][bc] = ex.const(0.0)

    x = sample_box(box, 60, seed).T        # the pivot checks' points
    pivot_exprs = [rows[pr][pc] for pr, pc in pivots]
    try:
        values = list(ex.compile_batch(pivot_exprs)(x)) if pivots else []
    except ex.EvaluationError:
        # not finite somewhere: one at a time, so earlier pivots check first
        values = (ex.compile_batch([e])(x)[0] for e in pivot_exprs)
    for (pr, pc), vals in zip(pivots, values):
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if min(abs(lo), abs(hi)) < 1e-7 or lo * hi <= 0.0:
            raise PivotDegenerationError(
                f"elimination pivot at row {pr + 1}, column {pc + 1} "
                f"degenerates on the box (range [{lo:.3e}, {hi:.3e}]); "
                "shrink the box")

    free_cols = [j for j in range(d) if j not in used_cols]
    frame = []
    for fcol in free_cols:
        comps = [ex.const(0.0)] * d
        comps[fcol] = ex.const(1.0)
        for (pr, pc) in pivots:
            comps[pc] = ex.negate(ex.div(rows[pr][fcol], rows[pr][pc]))
        frame.append(VectorField(tuple(comps)))
    return Distribution(tuple(frame), len(frame), provenance, box)


def kernel_frame(A: EndoField, p: int, box: Box,
                 seed: int = 2026) -> Distribution:
    """Smooth frame spanning ker A^p on the box."""
    return nullspace_frame(endo_power(A, p), box, provenance=f"ker A^{p}",
                           seed=seed)


def _frame_full_rank_check(dist: Distribution, seed: int = 2026):
    if not dist.frame:
        return
    x = sample_box(dist.box, 60, seed).T
    s = np.linalg.svd(dist.values_on(x), compute_uv=False)
    lost = (s[:, -1] <= SVD_RELATIVE_THRESHOLD * np.maximum(s[:, 0], 1.0)
            * dist.dim)
    if lost.any():
        n = int(np.argmax(lost))
        raise PivotDegenerationError(
            f"frame ({dist.provenance}) loses rank at "
            f"{tuple(round(float(v), 6) for v in x[:, n])}; "
            "shrink the box")


def _select_columns(M: np.ndarray, rank: int) -> list:
    """Indices of `rank` independent columns of M, ascending, chosen greedily
    by largest residual norm (modified Gram-Schmidt)."""
    residual = M.copy()
    chosen: list[int] = []
    for _ in range(rank):
        norms = np.linalg.norm(residual, axis=0)
        for c in chosen:
            norms[c] = -1.0
        j = int(np.argmax(norms))
        chosen.append(j)
        q = residual[:, j] / max(norms[j], ABSOLUTE_FLOOR)
        residual -= np.outer(q, q @ residual)
    return sorted(chosen)


def image_frame(A: EndoField, p: int, box: Box,
                seed: int = 2026) -> Distribution:
    """Frame of rank(A^p) columns of A^p on the box."""
    return column_frame(endo_power(A, p), box, provenance=f"Im A^{p}",
                        seed=seed)


def column_frame(M: EndoField, box: Box, provenance: str,
                 seed: int = 2026) -> Distribution:
    """Frame of rank(M) columns of M, selected by pivoting at the box center."""
    M0 = np.asarray(M(box.center), dtype=float)
    chosen = _select_columns(M0, _numeric_rank(M0))
    frame = tuple(M.column(j + 1) for j in chosen)
    dist = Distribution(frame, len(frame), provenance, box)
    _frame_full_rank_check(dist, seed)
    return dist


def sum_distribution(D1: Distribution, D2: Distribution) -> Distribution:
    """Concatenated frame reduced to full rank by pivoting at the box center."""
    if D1.box != D2.box:
        raise ValueError("distributions must share a box")
    box = D1.box
    fields = list(D1.frame) + list(D2.frame)
    if not fields:
        return Distribution((), 0, f"{D1.provenance} + {D2.provenance}", box)
    cols = np.column_stack([F(box.center) for F in fields])
    rank = _numeric_rank(cols)
    chosen = _select_columns(cols, rank)
    dist = Distribution(tuple(fields[j] for j in chosen), rank,
                        f"{D1.provenance} + {D2.provenance}", box)
    _frame_full_rank_check(dist)
    return dist


# ---------------------------------------------------------------------------
# Involutivity.

@dataclass(frozen=True)
class InvolutivityResult:
    involutive: bool
    max_residual: float
    threshold: float
    frame_scale: float
    witness_point: tuple | None
    witness_pair: tuple | None

    def __bool__(self):
        return self.involutive


def span_residuals(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Norms of sampled vectors minus their projections onto a frame span.

    F is an (N, d, k) stack of full-rank frame values at N points, V a
    sequence of m (d, N) arrays of vectors at the points.  Returns the
    (m, N) norms of each vector minus its orthogonal projection onto the
    span of F's columns, taken with F's stacked QR factor.
    """
    Q = np.linalg.qr(F)[0]
    R = np.empty((len(V), len(F)))
    # one vector at a time keeps the temporaries at (d, N)
    for p, v in enumerate(V):
        proj = np.einsum("ndk,nk->dn", Q, np.einsum("ndk,dn->nk", Q, v))
        R[p] = np.linalg.norm(v - proj, axis=0)
    return R


def involutivity_residual(D: Distribution, x: np.ndarray) -> InvolutivityResult:
    """Residual of frame brackets against the frame span, at the points of
    a (d, N) array x.

    A distribution is involutive iff any generating frame is closed under
    brackets modulo the frame, which is what this measures: the norm of
    each bracket minus its orthogonal projection onto the frame span.  The
    projection needs a full-rank frame, which kernel frames are by
    construction and image and sum frames are checked to be.  The brackets
    come from the frame's 1-jet (`Distribution.brackets_on`), as the
    torsion comes from A's.
    """
    k = len(D.frame)
    X, V = D.brackets_on(x) if k > 1 else (D.values_on(x).T, None)
    scale = float(np.max(np.abs(X))) if k else 0.0
    threshold = INVOLUTIVITY_TOL * (1.0 + scale)
    if k <= 1:
        return InvolutivityResult(True, 0.0, threshold, scale, None, None)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    R = span_residuals(X.T, V)
    worst, r, n = first_max(R)
    witness = ((tuple(float(v) for v in x[:, n]), pairs[r])
               if worst > 0.0 else (None, None))
    return InvolutivityResult(worst <= threshold, worst, threshold, scale,
                              *witness)


# ---------------------------------------------------------------------------
# Torsion nullity residual (sampled, over coordinate pairs).

@dataclass(frozen=True)
class TensorResidual:
    passed: bool
    max_residual: float
    tol: float
    witness_point: tuple | None
    witness_pair: tuple | None

    def __bool__(self):
        return self.passed


# Points per torsion evaluation: bounds the (d^2 + d^3, points) 1-jet of A
# (0.2 MB at d = 7).
_TORSION_CHUNK = 64


def torsion_tol(A: EndoField, box: Box, seed: int = 2026) -> float:
    """The default torsion gate, 1e-9 (1 + A's entry scale on the box)."""
    return 1e-9 * (1.0 + A.entry_scale(box, seed=seed))


def nijenhuis_residual(A: EndoField, x: np.ndarray, tol: float) -> TensorResidual:
    """Max norm of the torsion tensor over the coordinate pairs i < j at the
    points of a (d, N) array x, against the gate `tol` (`torsion_tol`).

    The torsion is N'_{A,A} from A's 1-jet (`fields.nprime_kernel`).
    Points near a pospow kink of A are skipped.
    """
    d = A.dim
    jet = jet_evaluator(A)
    pairs = np.triu_indices(d, 1)

    def torsion(xc: np.ndarray) -> np.ndarray:
        a = jet(xc)
        return nprime_kernel(a, a, *pairs)
    R = np.concatenate([np.max(np.abs(torsion(x[:, n:n + _TORSION_CHUNK])), axis=1)
                        for n in range(0, x.shape[1], _TORSION_CHUNK)], axis=1)
    R[:, ex.kink_mask([e for row in A.entries for e in row], x)] = 0.0
    worst, r, n = first_max(R)
    witness = ((tuple(float(v) for v in x[:, n]),
                tuple(int(ij[r]) + 1 for ij in pairs))
               if worst > 0.0 else (None, None))
    return TensorResidual(worst <= tol, worst, tol, *witness)


# ---------------------------------------------------------------------------
# Condition reports.

@dataclass(frozen=True)
class Theorem13Report:
    profile: StructureProfile | None
    constancy: ConstancyResult
    torsion: TensorResidual
    kernel_involutivity: tuple   # tuples (p, InvolutivityResult)
    integrable: bool

    def condition_flags(self) -> tuple[bool, bool, bool]:
        return (self.constancy.constant and self.profile is not None,
                self.torsion.passed,
                all(bool(r) for _, r in self.kernel_involutivity))


@ex.shared_compiles()
def theorem13_report(A: EndoField, box: Box, samples: int = 100,
                     seed: int = 2026,
                     tol: float | None = None) -> Theorem13Report:
    """Verdicts for the three integrability conditions of a nilpotent field,
    each on the one sample set the report draws, with each expression list
    compiled once (`expr.shared_compiles`): A's, for one, by the constancy
    check and the torsion gate."""
    ranks = rank_profile(A, box.center)
    if ranks.ranks[-1] != 0:
        raise NonNilpotentError(
            "field is not nilpotent at the box center; supply its invariant "
            "factors and run the general check instead")
    x = sample_box(box, samples, seed).T
    constancy = constancy_check(A, x)
    profile = constancy.profile
    torsion = nijenhuis_residual(
        A, x, torsion_tol(A, box, seed) if tol is None else tol)
    kernel_inv = []
    if profile is not None:
        for p in range(1, profile.index):
            D = kernel_frame(A, p, box, seed=seed)
            kernel_inv.append((p, involutivity_residual(D, x)))
    ok = (constancy.constant and profile is not None and torsion.passed
          and all(bool(r) for _, r in kernel_inv))
    return Theorem13Report(profile, constancy, torsion, tuple(kernel_inv), ok)


def poly_endo(A: EndoField, coeffs) -> EndoField:
    """P(A) for P given by ascending coefficients (c_0, c_1, ...)."""
    *rest, lead = [float(c) for c in coeffs] or [0.0]
    out = EndoField.identity(A.dim).scaled(lead)     # Horner from c_n I
    for c in reversed(rest):
        out = out.matmul(A).add(EndoField.identity(A.dim).scaled(c))
    return out


@dataclass(frozen=True)
class Corollary15Report:
    factor_ranks: tuple          # tuples (coeffs, ranks, constant: bool)
    torsion: TensorResidual
    factor_involutivity: tuple   # tuples (coeffs, InvolutivityResult)
    integrable_conditions: bool


@ex.shared_compiles()
def corollary15_report(A: EndoField, factors, box: Box, samples: int = 100,
                       seed: int = 2026,
                       tol: float | None = None) -> Corollary15Report:
    """Condition verdicts for a general field with user-supplied invariant
    factors, with each expression list compiled once
    (`expr.shared_compiles`)."""
    factors = [tuple(float(c) for c in f) for f in factors]
    if not factors:
        raise ValueError("at least one invariant factor is required")
    # product of all P(A) must annihilate A's tangent action
    PAs = [poly_endo(A, coeffs) for coeffs in factors]
    prod = PAs[0]
    for PA in PAs[1:]:
        prod = prod.matmul(PA)
    scale = A.entry_scale(box, seed=seed)
    x = sample_box(box, samples, seed).T
    worst = float(np.max(np.abs(prod.batch_evaluator()(x))))
    if worst > 1e-8 * (1.0 + max(scale, 1.0) ** A.dim):
        raise AnnihilationError(
            f"product of supplied factors has residual {worst:.3e} on the box")

    factor_ranks = []
    factor_inv = []
    for coeffs, PA in zip(factors, PAs):
        ranks, _ = _numeric_ranks(PA.batch_evaluator()(x))
        factor_ranks.append((coeffs, int(ranks[0]), bool(np.all(ranks == ranks[0]))))
        D = nullspace_frame(PA, box, provenance=f"ker P(A), P={list(coeffs)}",
                            seed=seed)
        factor_inv.append((coeffs, involutivity_residual(D, x)))
    torsion = nijenhuis_residual(   # the `torsion_tol` gate, from that scale
        A, x, 1e-9 * (1.0 + scale) if tol is None else tol)
    ok = (all(c for _, _, c in factor_ranks) and torsion.passed
          and all(bool(r) for _, r in factor_inv))
    return Corollary15Report(tuple(factor_ranks), torsion, tuple(factor_inv), ok)
