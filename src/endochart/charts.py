"""Constructive integral-chart pipeline for nilpotent endomorphism fields.

Given a field that passes the three integrability conditions in
flag-adapted coordinates, this module runs the frame induction: starting
from the adapted coordinate fields, each stage transports the section frame
by the flows of the current image fields, tightening the commutation depth
one power at a time.  The final stage yields a chart whose coordinate frame
conjugates the field to a constant Jordan matrix, which is then verified on
a grid.

Orderings are fixed once and for all: basis slots (a, i) — the a-th image
of the i-th section field — are sorted by descending power a, then
ascending field index i.  Flow times and section coordinates inherit this
order as chart coordinates.  The application order of the flows inside the
parametrisation is configurable (`flow_order`), and the results of two
orders can be compared with `compare_charts`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Box, compile_batch, sample_box
from .fields import (EndoField, apply_endo, coordinate_field,
                     endo_power, first_max, lie_bracket)
from .flows import (CompiledField, ComputedVectorField, FlowSpec,
                    IntegratorSettings, integrate_flow,
                    integrate_with_transport, transport_block)
from .structure import image_frame, kernel_frame, span_residuals

__all__ = [
    "AdaptedChart", "Section", "PipelineSettings", "FrameState", "ChartMap",
    "AdaptedChartError", "InductionError", "NewtonError",
    "validate_adapted_chart", "initial_frame", "induction_step",
    "hk_residuals", "build_chart", "jordan_matrix", "verify_integral_chart",
    "compare_charts", "jordanize", "basis_slots",
]


class AdaptedChartError(ValueError):
    """Chart grouping is not adapted to the field's flag of foliations."""


class InductionError(RuntimeError):
    """An induction-hypothesis residual exceeded its tolerance."""

    def __init__(self, message: str, report: "HKReport"):
        super().__init__(message)
        self.report = report


class NewtonError(RuntimeError):
    def __init__(self, point, residual: float):
        super().__init__(
            f"chart inversion did not converge at {_pt(np.round(point, 6))} "
            f"(last residual {residual:.3e})")
        self.point = tuple(point)
        self.residual = residual


# ---------------------------------------------------------------------------
# Configuration.

@dataclass(frozen=True)
class PipelineSettings:
    """The values callers set (the command line and benchmark the first two,
    tests the rest); every other number is a module constant below."""

    integrator: IntegratorSettings = IntegratorSettings(step=1e-2)
    seed: int = 2026
    box_margin: float = 1.5          # working-box inflation for flow monitoring
    hk_samples: int = 5
    flow_order: str = "desc"         # composition order: "desc" | "asc"
    section_offsets: tuple | None = None   # ((axis, value), ...) for sigma


NEWTON_TOL = 1e-10       # chart inversion, relative to 1 + |q|
NEWTON_MAXITER = 50
H_BRACKET = 2e-3         # FD step in chart coordinates for brackets
H_TRANSPORT = 1e-3       # FD step for transports along computed flows
HK_TOL_SYMBOLIC = 1e-8   # gate for stage-0 (exact symbolic) residuals
HK_TOL_NUMERIC = 1e-5    # gate for transported-stage residuals
GRID_SCALE = 0.35        # chart-grid extent relative to the box
BRACKET_SAMPLES = 4      # chart points of the verification's frame brackets
ADAPTED_CHART_TOL = 1e-7   # gate of `validate_adapted_chart`


# ---------------------------------------------------------------------------
# Adapted charts and sections.

@dataclass(frozen=True)
class AdaptedChart:
    """Ambient coordinates partitioned into flag groups x^(i,j), n>=i>=j>=1.

    The axes of the groups with i <= p, j <= q are required to span
    Im A^(n-p) ∩ ker A^q at every point of the box (checked by
    `validate_adapted_chart`).
    """

    dim: int
    groups: dict      # (i, j) -> tuple of 0-based axes
    box: Box

    def __post_init__(self):
        seen = []
        for (i, j), axes in self.groups.items():
            if not (i >= j >= 1):
                raise AdaptedChartError(f"bad group index ({i}, {j})")
            seen.extend(axes)
        if sorted(seen) != list(range(self.dim)):
            raise AdaptedChartError("groups must partition the coordinate axes")

    @property
    def index(self) -> int:
        """Nilpotency index n implied by the grouping."""
        return max(i for i, _ in self.groups)

    @property
    def multiplicities(self) -> tuple:
        n = self.index
        d = [len(self.groups.get((n, j), ())) for j in range(1, n + 1)]
        for (i, j), axes in self.groups.items():
            a = n - i + j
            if not (1 <= a <= n) or len(axes) != d[a - 1]:
                raise AdaptedChartError(
                    f"group ({i},{j}) has size {len(axes)}, expected d_{a} = "
                    f"{d[a - 1] if 1 <= a <= n else 0}")
        return tuple(d)

    def section_axes(self) -> list:
        """Axes of the groups x^(n, j), ascending j then axis order."""
        n = self.index
        out = []
        for j in range(1, n + 1):
            out.extend(self.groups.get((n, j), ()))
        return out

    @staticmethod
    def from_group_sizes(dim: int, sizes: dict, box: Box) -> "AdaptedChart":
        """Assign consecutive axes to groups in ascending (i, j) order."""
        groups = {}
        axis = 0
        for key in sorted(sizes):
            size = sizes[key]
            groups[key] = tuple(range(axis, axis + size))
            axis += size
        if axis != dim:
            raise AdaptedChartError(f"group sizes sum to {axis}, expected {dim}")
        return AdaptedChart(dim, groups, box)


@dataclass(frozen=True)
class Section:
    """A level set of the non-quotient adapted coordinates.

    Parametrised by the x^(n,*) coordinates; the remaining axes are pinned
    to constant offsets (the arbitrary choice of sigma).
    """

    dim: int
    axes: tuple            # parametrising axes, in field order
    offsets: tuple         # length-dim constants; entries on `axes` ignored

    @staticmethod
    def for_chart(chart: AdaptedChart, offsets=None) -> "Section":
        base = [0.0] * chart.dim
        if offsets is not None:
            for axis, value in offsets.items():
                base[axis] = float(value)
        return Section(chart.dim, tuple(chart.section_axes()), tuple(base))

    def embed(self, s) -> np.ndarray:
        """The point sigma(s); for an (m, N) array s, the (d, N) points of
        its columns."""
        x = np.array(self.offsets, dtype=float)
        if np.ndim(s) == 2:
            x = np.repeat(x[:, None], len(s[0]), axis=1)
        for axis, v in zip(self.axes, s):
            x[axis] = v
        return x

    def project(self, q) -> np.ndarray:
        """Quotient coordinates of q (preserved by all image flows)."""
        q = np.asarray(q, dtype=float)
        return q[list(self.axes)]

    def basis_matrix(self) -> np.ndarray:
        E = np.zeros((self.dim, len(self.axes)))
        for col, axis in enumerate(self.axes):
            E[axis, col] = 1.0
        return E


def _orders(multiplicities) -> list:
    """Kernel order q(i) of each field: d_j fields of order j, ascending j."""
    orders = []
    for j, dj in enumerate(multiplicities, start=1):
        orders.extend([j] * dj)
    return orders


def basis_slots(multiplicities) -> list:
    """Basis slots (a, i): descending power a, ascending field index i.

    Field i has kernel order q(i); slot (a, i) exists for 0 <= a < q(i).
    """
    orders = _orders(multiplicities)
    slots = []
    n = max(orders) if orders else 0
    for a in range(n - 1, -1, -1):
        for i, qi in enumerate(orders):
            if a < qi:
                slots.append((a, i))
    return slots


def jordan_matrix(multiplicities, eigenvalue: float = 0.0) -> np.ndarray:
    """Matrix of the field in the slot basis: slot (a,i) maps to (a+1,i) or 0."""
    orders = _orders(multiplicities)
    slots = basis_slots(multiplicities)
    pos = {slot: k for k, slot in enumerate(slots)}
    d = len(slots)
    M = np.zeros((d, d))
    for c, (a, i) in enumerate(slots):
        if a + 1 < orders[i]:
            M[pos[(a + 1, i)], c] = 1.0
    return M + eigenvalue * np.eye(d)


# ---------------------------------------------------------------------------
# Chart validation.

def _pt(p) -> tuple:
    return tuple(float(v) for v in p)


@dataclass(frozen=True)
class AdaptedChartReport:
    passed: bool
    max_kernel_residual: float
    max_image_residual: float
    witness: tuple | None    # (p, q, axis, point) of the worst residual

    def __bool__(self):
        return self.passed


def validate_adapted_chart(A: EndoField, chart: AdaptedChart,
                           samples: int = 40,
                           seed: int = 2026) -> AdaptedChartReport:
    """Check that the designated coordinate subspaces realise the flag array.

    For each (p, q), every axis e of the groups with i <= p, j <= q must lie
    in ker A^q (residual |A^q e| / scale^q) and in Im A^(n-p) (residual of e
    off the left singular vectors of A^(n-p) above the rank threshold) at
    the sample points, evaluated as one block.  Of the first places, in
    (p, q), point, axis order, of each kind's worst residual over
    ADAPTED_CHART_TOL, the later one is the witness.
    """
    n = chart.index
    mults = chart.multiplicities
    box = chart.box
    d = A.dim
    x = sample_box(box, samples, seed, include_corners=False).T
    scale = max(1.0, A.entry_scale(box, seed=seed))
    M = A.batch_evaluator()(x)
    powers = [np.linalg.matrix_power(M, e) for e in range(n + 1)]

    # per (p, q): (N, d) residuals of every axis, -1 off the groups' axes
    flags, kernel, image = [], [], []
    for p in range(1, n + 1):
        U, s, _ = np.linalg.svd(powers[n - p])
        Q = U * (s > 1e-10 * np.maximum(1.0, s[:, :1]) * d)[:, None, :]
        off = np.linalg.norm(np.eye(d) - Q @ Q.transpose(0, 2, 1), axis=1)
        for q in range(1, p + 1):
            axes = [ax for (i, j), g in chart.groups.items()
                    if i <= p and j <= q for ax in g]
            if len(axes) != sum(min(q, max(0, a - (n - p))) * da
                                for a, da in enumerate(mults, start=1)):
                return AdaptedChartReport(False, math.inf, math.inf,
                                          (p, q, -1, tuple(box.center)))
            member = np.isin(np.arange(d), axes)
            flags.append((p, q))
            kernel.append(np.where(member, np.linalg.norm(powers[q], axis=1)
                                   / scale ** q, -1.0))
            image.append(np.where(member, off, -1.0))
    worst_k, fk, at_k = first_max(np.reshape(kernel, (len(flags), -1)))
    worst_im, fi, at_im = first_max(np.reshape(image, (len(flags), -1)))
    kinds = ((worst_k, fk, at_k), (worst_im, fi, at_im))
    over = [(f, at) for worst, f, at in kinds if worst > ADAPTED_CHART_TOL]
    witness = None
    if over:
        f, at = max(over)
        point, axis = divmod(at, d)
        witness = (*flags[f], axis, _pt(x[:, point]))
    return AdaptedChartReport(not over, worst_k, worst_im, witness)


# ---------------------------------------------------------------------------
# Stage charts: flow compositions from the section.

class _StageChart:
    """Parametrisation (s, t) -> Phi(sigma(s), t) by the stage's flows."""

    MEMO = 4096     # differentials kept

    def __init__(self, pipeline: "_Pipeline", stage: int):
        self.pipeline = pipeline
        self.section = pipeline.section
        st = pipeline.settings
        slots = [(a, i) for (a, i) in pipeline.slots if a >= 1]
        self.flow_slots = slots      # canonical (desc a, asc i) order
        self.generators = [pipeline.generator(a, i, stage) for a, i in slots]
        order = list(range(len(slots)))
        if st.flow_order == "desc":
            order.reverse()          # lowest power applied first (innermost)
        self.application_order = order
        # chart order (t by slot, s) of the composition's (s, t applied) rows
        m = len(self.section.axes)
        self.chart_order = [m + order.index(a) for a in range(len(slots))]
        self.chart_order += list(range(m))
        box = pipeline.working_box
        self.specs = []
        for a, i in slots:
            gen = pipeline.flow_generator(a, i, stage)
            self.specs.append(gen.spec if isinstance(gen, _Pullback)
                              else FlowSpec(gen, st.integrator, box))
        self._differentials: dict[bytes, tuple] = {}

    @property
    def n_flows(self) -> int:
        return len(self.flow_slots)

    def forward(self, s, t) -> np.ndarray:
        x, at = self.section.embed(s), None
        for alpha in self.application_order:
            spec = self.specs[alpha]
            if spec.generator.symbolic:
                x, at = integrate_flow(spec, x, float(t[alpha])), None
            else:
                x, at, _ = self._computed_flow(alpha, x, float(t[alpha]), at)
        return x

    def _computed_flow(self, alpha: int, x, t: float, at=None,
                       near=None) -> tuple:
        """The computed flow alpha from x after time t: (endpoint, where it
        is in the parent chart, start coordinates).

        A pulled-back generator runs in its parent chart's coordinates
        (`_Pullback.flow`), starting from `at` = (parent, y) when that
        places x in the same parent chart (x is the end of an earlier flow
        there); the end's place is (parent, y_end).  Any other computed
        generator runs on x itself: place None, start x.
        """
        gen = self.specs[alpha].generator
        if not isinstance(gen, _Pullback):
            return integrate_flow(self.specs[alpha], x, t), None, x
        y0 = at[1] if at is not None and at[0] is gen.parent else None
        x, y, y0 = gen.flow(x, t, y0, near)
        return x, (None if y is None else (gen.parent, y)), y0

    def chart_ranges(self) -> list:
        """Per-coordinate ranges, flow times then section coordinates, that
        keep the chart inside the box: GRID_SCALE of the smallest half-width
        for times, of each section axis's half-width about its middle."""
        _, _, mid, half = self.pipeline.chart_box.mid_half
        out = [(-GRID_SCALE * min(half), GRID_SCALE * min(half))] * self.n_flows
        for ax in self.section.axes:
            out.append((mid[ax] - GRID_SCALE * half[ax], mid[ax] + GRID_SCALE * half[ax]))
        return out

    def start_coords(self, x, near=None) -> np.ndarray:
        """Chart coordinates y = (t, s) of x: t = 0 when x lies exactly on
        the section, else one inversion started at the flow times of the
        chart point `near` (default t = 0)."""
        x = np.asarray(x, dtype=float)
        s = self.section.project(x)
        if np.array_equal(self.section.embed(s), x):
            t = np.zeros(self.n_flows)
        else:
            t0 = np.zeros(self.n_flows) if near is None else near[:self.n_flows]
            s, t = self.inverse(x, t0)
        return np.concatenate([t, s])

    def differential(self, y) -> tuple[np.ndarray, np.ndarray]:
        """`forward_differential` at the chart point y, kept for the last
        MEMO points asked by their exact bytes.  A flow step's box check and
        the next step's first stage share a point, and so do the end of a
        flow and the start of the next one in this chart; trajectories of a
        pulled-back flow from one start meet the same points again.  Blocks
        (`_Samples.on`) do not pass through this memo."""
        key = y.tobytes()
        hit = self._differentials.get(key)
        if hit is None:
            hit = self.forward_differential(y)
            self._differentials[key] = hit
            if len(self._differentials) > self.MEMO:
                del self._differentials[next(iter(self._differentials))]
        return hit

    def forward_differential(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Phi(y) and the full differential DPhi(y) at y = (t, s), or at the
        columns of a (dim, N) block y as (d, N) points and (N, d, d) DPhi.

        Time columns, in canonical slot order, are each flow's generator
        value at its endpoint carried through the later flows; section
        columns are the transported section frame, as `forward_transport`
        gives them.
        """
        y = np.asarray(y, dtype=float)
        N = self.n_flows
        E = self.section.basis_matrix()
        if y.ndim == 2:
            E = np.repeat(E[None], y.shape[1], axis=0)
        x, W = self._compose(y[N:], y[:N], E, times=True)
        return x, W[..., self.chart_order]

    def forward_transport(self, s, t, W0: np.ndarray) -> tuple:
        """Transport the columns of W0 from sigma(s) through the composition."""
        return self._compose(s, t, W0, times=False)

    def section_frame(self, q) -> np.ndarray:
        """The section fields Z^(k+1)(q) of the next stage as columns: one
        inversion, then `forward_transport` there.  Not kept: the A^p Z
        fields that read it keep their own values (`ComputedVectorField`)."""
        s, t = self.inverse(q)
        return self.forward_transport(s, t, self.section.basis_matrix())[1]

    def _compose(self, s, t, W, times: bool) -> tuple:
        """Transport W from sigma(s) through the flows; with `times`, each
        flow's generator value at its endpoint joins W as a new column.  A
        block (s, t of shape (., N), W of shape (N, d, m)) takes a symbolic
        flow in one `transport_block`, a computed one column by column."""
        x, at = self.section.embed(s), None
        block = x.ndim == 2
        for alpha in self.application_order:
            spec = self.specs[alpha]
            if spec.generator.symbolic:
                at = None
                if block:
                    x, W = transport_block(spec, x, t[alpha], W)
                else:
                    x, W = integrate_with_transport(spec, x, float(t[alpha]), W)
            elif block:
                x, W, at = zip(*[
                    self._transport_computed(alpha, *start) for start in
                    zip(x.T, W, t[alpha], at or itertools.repeat(None))])
                x, W = np.column_stack(x), np.stack(W)
            else:
                x, W, at = self._transport_computed(alpha, x, W, t[alpha], at)
            if times:
                value = self.generators[alpha].value
                v = np.array([value(c) for c in x.T]) if block else value(x)
                W = np.concatenate([W, v[..., None]], axis=-1)
        return x, W

    def _transport_computed(self, alpha: int, x, W, t, at) -> tuple:
        """(endpoint, frame, the endpoint's place in the parent chart) of the
        computed flow alpha from x, at place `at`, after time t; the frame W
        goes by central differences of the flow map, step H_TRANSPORT, along
        each unit column.  A shifted start off the section is inverted from
        the central start's coordinates."""
        h, t = H_TRANSPORT, float(t)
        end, at_end, y0 = self._computed_flow(alpha, x, t, at)
        frame = np.zeros_like(W)
        for j in range(W.shape[1]):
            nw = float(np.linalg.norm(W[:, j]))
            if nw != 0.0:
                u = W[:, j] / nw
                up, _, _ = self._computed_flow(alpha, x + h * u, t, near=y0)
                dn, _, _ = self._computed_flow(alpha, x - h * u, t, near=y0)
                frame[:, j] = nw * (up - dn) / (2.0 * h)
        return end, frame, at_end

    def inverse(self, q, t0=None) -> tuple[np.ndarray, np.ndarray]:
        """Solve Phi(sigma(s), t) = q for the flow times t.

        The quotient coordinates are preserved by every flow, so s is read
        off q directly and only t is solved for, by damped Gauss-Newton
        with generator values as approximate jacobian columns.  Newton
        starts at t0, by default t = 0: the section projection, where the
        forward map costs nothing.  Only `start_coords` passes another
        start, the flow times of a neighbouring chart point its caller
        holds, so every answer depends on the arguments alone.
        """
        q = np.asarray(q, dtype=float)
        s = self.section.project(q)
        N = self.n_flows
        if N == 0:
            return s, np.zeros(0)
        t = np.zeros(N) if t0 is None else np.asarray(t0, dtype=float).copy()
        tmax = 4.0 * self.pipeline.chart_box.diameter
        x = self.forward(s, t)
        r = x - q
        rn = float(np.linalg.norm(r))
        tol = NEWTON_TOL * (1.0 + float(np.linalg.norm(q)))
        for _ in range(NEWTON_MAXITER):
            if rn <= tol:
                return s, t
            J = np.column_stack([g.value(x) for g in self.generators])
            delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
            lam = 1.0
            while lam > 1.0 / 64.0:
                t_new = np.clip(t + lam * delta, -tmax, tmax)
                x_new = self.forward(s, t_new)
                r_new = x_new - q
                rn_new = float(np.linalg.norm(r_new))
                if rn_new < rn:
                    t, x, r, rn = t_new, x_new, r_new, rn_new
                    break
                lam *= 0.5
            else:
                break
        if rn <= 1e3 * tol:  # accept marginal convergence
            return s, t
        raise NewtonError(q, rn)


class _Pullback:
    """A computed generator V = A^p Z_i^(r) in the coordinates y = (t, s) of
    its parent chart P (stage r-1).

    Z_i^(r)(Phi_P(y)) is the section column i of DPhi_P(y), so V pulls back
    to solve(DPhi_P(y), A^p(Phi_P(y)) DPhi_P(y)[:, N_P + i]) with no
    inversion of Phi_P.  One pullback serves every stage chart that flows
    along V (`_Pipeline.flow_generator`).
    """

    symbolic = False
    MEMO = 1024     # trajectories kept by each key

    def __init__(self, parent: _StageChart, Ap, i: int, settings, box):
        self.parent = parent
        self.Ap = Ap
        self.col = parent.n_flows + i
        self.spec = FlowSpec(self, settings, box)
        self._flows: dict[tuple, tuple] = {}

    def point(self, y) -> np.ndarray:
        """The ambient point Phi_P(y)."""
        return self.parent.differential(y)[0]

    def value(self, y) -> np.ndarray:
        x, D = self.parent.differential(y)
        return np.linalg.solve(D, self.Ap(x) @ D[:, self.col])

    def flow(self, x, t: float, y0=None, near=None) -> tuple:
        """The flow from the ambient point x after time t: (endpoint,
        parent coordinates of the endpoint, start coordinates).

        The flow runs in the parent's coordinates: the same RK4 loop, step
        count and step as in the ambient space, with the box check on the
        ambient points.  It starts at y0 when given (x = Phi_P(y0)), else
        at `start_coords(x, near)`.  Results are kept by the exact bytes of
        these inputs and, so that no inversion runs before a lookup, by
        those of (t, start), for every stage chart that flows along V; the
        last MEMO of each are kept, since a Newton line search, the
        transport after a Newton solve and the +-h starts on the section
        repeat recent trajectories.
        """
        x = np.asarray(x, dtype=float)
        if t == 0.0:
            return x.copy(), y0, y0
        key = (t, x.tobytes(), None if y0 is None else y0.tobytes(),
               None if near is None or y0 is not None else near.tobytes())
        hit = self._flows.get(key)
        if hit is None:
            if y0 is None:
                y0 = self.parent.start_coords(x, near)
            run = (t, y0.tobytes())
            hit = self._flows.get(run)
            if hit is None:
                y = integrate_flow(self.spec, y0, t)
                hit = (self.point(y), y, y0)
                self._keep(run, hit)
            self._keep(key, hit)
        return hit[0].copy(), hit[1], hit[2]

    def _keep(self, key: tuple, hit: tuple):
        self._flows[key] = hit
        if len(self._flows) > 2 * self.MEMO:
            del self._flows[next(iter(self._flows))]


class _SectionField:
    """The section field Z_i^(k+1) at ambient points: column i of the
    stage-k chart's `section_frame`."""

    symbolic = False

    def __init__(self, chart: _StageChart, i: int):
        self.chart = chart
        self.i = i
        self.dim = chart.section.dim

    def value(self, q) -> np.ndarray:
        return self.chart.section_frame(q)[:, self.i]


# ---------------------------------------------------------------------------
# The pipeline.

class _Pipeline:
    def __init__(self, A: EndoField, chart: AdaptedChart,
                 settings: PipelineSettings, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        self.A = A.shifted(eigenvalue) if eigenvalue != 0.0 else A
        self.chart_box = chart.box
        self.working_box = chart.box.inflate(settings.box_margin)
        self.settings = settings
        offsets = dict(settings.section_offsets) if settings.section_offsets else None
        self.section = Section.for_chart(chart, offsets)
        self.mults = chart.multiplicities
        self.orders = _orders(self.mults)
        self.n = chart.index
        self.slots = basis_slots(self.mults)
        self.d = chart.dim
        self._powers = [endo_power(self.A, p) for p in range(self.n + 1)]
        self._power_ev = [P.evaluator() for P in self._powers]
        self._power_batch: dict[int, object] = {}
        # stage data
        self._z0 = [coordinate_field(self.d, ax + 1)
                    for ax in self.section.axes]
        self._stage_charts: dict[int, _StageChart] = {}
        self._gen_cache: dict[tuple, object] = {}

    # -- frame fields ------------------------------------------------------

    def rep_stage(self, p: int, k: int) -> int:
        """Cheapest stage whose p-th images equal the stage-k ones.

        A^p Z^(k) is unchanged from stage max(0, n-p-1) on, because the
        later flows move points only along leaves that A^p collapses.
        """
        return max(0, min(k, self.n - p - 1))

    def generator(self, p: int, i: int, k: int):
        """The field A^p Z_i^(k) as a flow generator (stage-reduced)."""
        if p == 0:
            return (CompiledField(self._z0[i]) if k == 0
                    else _SectionField(self.stage_chart(k - 1), i))
        rep = self.rep_stage(p, k)
        key = (p, i, rep)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        if rep == 0:
            sym = apply_endo(self._powers[p], self._z0[i])
            gen = CompiledField(sym)
        else:
            z = self.generator(0, i, rep)
            Ap = self._power_ev[p]
            gen = ComputedVectorField(
                lambda q, z=z, Ap=Ap: Ap(q) @ z.value(q), self.d)
        self._gen_cache[key] = gen
        return gen

    def power_batch(self, p: int):
        """The batch evaluator of A^p, compiled on first use."""
        if p not in self._power_batch:
            self._power_batch[p] = self._powers[p].batch_evaluator()
        return self._power_batch[p]

    def chart_field(self, p: int, i: int, k: int) -> "_ChartField":
        """A^p Z_i^(k) as the stage checks and frame brackets read it: a
        symbolic generator as itself, any other field from the parent chart
        (stage k-1) at the chart points where the samples already are."""
        if k == 0 or (p > 0 and self.rep_stage(p, k) == 0):
            return _ChartField(gen=self.generator(p, i, k))
        return _ChartField(col=self.stage_chart(k - 1).n_flows + i,
                           power=self.power_batch(p) if p > 0 else None)

    def flow_generator(self, p: int, i: int, k: int):
        """The generator the flow of A^p Z_i^(k) is integrated on.

        A computed generator whose parent chart P (stage rep - 1) has only
        symbolic flows is pulled back to P's coordinates (`_Pullback`);
        DPhi_P then costs one variational transport per flow.  A parent
        with computed flows of its own would need central differences of
        each of them for every RK4 stage, so such a generator (n >= 4)
        flows in the ambient space on its `value`.
        """
        gen = self.generator(p, i, k)
        if gen.symbolic:
            return gen
        rep = self.rep_stage(p, k)
        parent = self.stage_chart(rep - 1)
        if not all(g.symbolic for g in parent.generators):
            return gen
        key = ("pullback", p, i, rep)
        if key not in self._gen_cache:
            self._gen_cache[key] = _Pullback(
                parent, self._power_ev[p], i, self.settings.integrator,
                self.working_box)
        return self._gen_cache[key]

    def stage_chart(self, k: int) -> _StageChart:
        if k not in self._stage_charts:
            self._stage_charts[k] = _StageChart(self, k)
        return self._stage_charts[k]


@dataclass
class FrameState:
    """Induction step k of the pipeline, whose `generator` gives the
    section fields and their image basis."""

    pipeline: _Pipeline
    k: int


# ---------------------------------------------------------------------------
# Induction-hypothesis residuals.

@dataclass(frozen=True)
class ClauseResidual:
    clause: str
    max_residual: float
    tol: float
    witness: tuple | None   # (description, point)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


@dataclass(frozen=True)
class HKReport:
    k: int
    clauses: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def worst(self) -> ClauseResidual:
        return max(self.clauses, key=lambda c: c.max_residual / max(c.tol, 1e-300))

    def clause(self, name: str) -> ClauseResidual:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class _Samples:
    """Sample points x, (d, N); on a stage chart also their chart points y,
    with x = Phi(y), and the differentials DPhi(y), (N, d, d)."""

    x: np.ndarray
    chart: _StageChart | None = None
    y: np.ndarray | None = None
    D: np.ndarray | None = None
    _shifts: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def on(chart: _StageChart, y: np.ndarray) -> "_Samples":
        """The chart points that are the columns of y, by one
        `chart.forward_differential` of the block: no chart inversion."""
        x, D = chart.forward_differential(y)
        return _Samples(x, chart, y, D)

    def along(self, f: "_ChartField", g: "_ChartField") -> np.ndarray:
        """The derivative of f's chart-coordinate values along g's at the
        chart points: 0 for a constant field f, else a central difference in
        y with step H_BRACKET.  The two blocks shifted along g are kept by
        field, since every bracket pair with g differentiates along it."""
        if f.constant:
            return np.zeros(self.y.shape)
        if g not in self._shifts:
            v = H_BRACKET * g.pulled(self)
            self._shifts[g] = (_Samples.on(self.chart, self.y + v),
                               _Samples.on(self.chart, self.y - v))
        up, dn = self._shifts[g]
        return (f.pulled(up) - f.pulled(dn)) / (2.0 * H_BRACKET)


class _ChartField:
    """A stage field as the stage checks and frame brackets read it at a
    `_Samples` block.

    A symbolic field `gen` (a `CompiledField`) is evaluated at the ambient
    points.  Any other field is A^p Z_i^(k), read where the parent chart P
    (stage k-1) already is: Z_i^(k)(Phi_P(y)) is the column `col` = N_P + i
    of DPhi_P(y), and A^p Z_i^(k) is A^p(Phi_P(y)) times that column
    (`power` the batch evaluator of A^p, None for the section field).
    """

    def __init__(self, gen=None, col: int = -1, power=None):
        self.gen, self.col, self.power = gen, col, power

    @property
    def symbolic(self) -> bool:
        return self.gen is not None

    @property
    def constant(self) -> bool:
        """True for a section field: the constant e_col in P's coordinates."""
        return self.gen is None and self.power is None

    def value(self, pts: _Samples) -> np.ndarray:
        """(d, N) values at the ambient points."""
        if self.gen is not None:
            return self.gen.batch_value(pts.x)
        z = pts.D[:, :, self.col].T
        if self.power is None:
            return z
        return np.einsum("nij,jn->in", self.power(pts.x), z)

    def pulled(self, pts: _Samples) -> np.ndarray:
        """(d, N) values in P's coordinates: solve(DPhi, value), or e_col."""
        if self.constant:
            e = np.zeros(pts.y.shape)
            e[self.col] = 1.0
            return e
        return np.linalg.solve(pts.D, self.value(pts).T[:, :, None])[:, :, 0].T


def _bracket(fa: _ChartField, fb: _ChartField):
    """pts -> [fa, fb] at the points of a `_Samples` block.

    Two symbolic fields take the exact `lie_bracket` tree, built and
    compiled once, at the ambient points.  Any other pair is bracketed in
    the chart coordinates y, since [Phi_* X, Phi_* Y] = Phi_* [X, Y]: with
    X, Y the fields' values there, [fa, fb] = DPhi (D_X Y - D_Y X) at y
    (`_Samples.along`), which needs chart differentials and no chart
    inversion.
    """
    if fa.symbolic and fb.symbolic:
        tree = compile_batch(lie_bracket(fa.gen.field, fb.gen.field).components)
        return lambda pts: tree(pts.x)

    def chart_rule(pts: _Samples) -> np.ndarray:
        return np.einsum("nij,jn->in", pts.D,
                         pts.along(fb, fa) - pts.along(fa, fb))
    return chart_rule


def _clause(name: str, R: np.ndarray, labels: list, x: np.ndarray,
            tol: float) -> ClauseResidual:
    """The clause residual of the (rows, N) sampled residuals R: their
    maximum, witnessed by the label of the first row and the first point
    attaining it, rows in order (None when every residual vanishes)."""
    worst, r, n = first_max(R)
    return ClauseResidual(name, worst, tol,
                          (labels[r], _pt(x[:, n])) if worst > 0.0 else None)


def hk_residuals(state: FrameState,
                 clauses: tuple = ("1", "2", "3", "4", "5")) -> HKReport:
    """Residuals of the induction-hypothesis clauses named in `clauses`
    at stage k; only those clauses are computed.

    Clause 4 measures bracket membership of all basis-field pairs in the
    image of A^(k+1); clause 5 the same for image-image pairs one power
    deeper.  At the final stage the target images vanish, so the clause-4/5
    residuals are raw bracket norms.  Stage 0 samples the box.  A later
    stage samples chart points y of its parent chart P (stage k-1), in
    P's `chart_ranges`, at the ambient points Phi_P(y): the stage fields
    are read off DPhi_P(y) (`_ChartField`) and brackets follow `_bracket`,
    so no value inverts a chart.  Each clause evaluates its sample set as
    one (d, N) block; span residuals are stacked QR projections
    (`structure.span_residuals`).
    """
    pipe = state.pipeline
    st = pipe.settings
    k = state.k
    samples = st.hk_samples
    seed = st.seed
    n = pipe.n
    A = pipe.A

    if k == 0:
        pts = _Samples(sample_box(pipe.chart_box.inflate(0.7), samples, seed,
                                  include_corners=False,
                                  include_center=True).T)
    else:
        parent = pipe.stage_chart(k - 1)
        pts = _Samples.on(parent, sample_box(
            Box(tuple(parent.chart_ranges())), samples, seed,
            include_corners=False, include_center=True).T)
    x = pts.x
    N = x.shape[1]
    fields = {slot: pipe.chart_field(*slot, k) for slot in pipe.slots}
    values = {slot: f.value(pts) for slot, f in fields.items()}
    scale = max(1.0, *(float(np.max(np.abs(v[:, :3])))
                       for v in values.values()))
    tol = (HK_TOL_SYMBOLIC if k == 0 else HK_TOL_NUMERIC) * (1 + scale)
    m = len(pipe.section.axes)
    out = []

    # clause 1: section values reproduce the initial frame
    if "1" in clauses:
        worst, wit = 0.0, None
        if k > 0:
            rng = np.random.default_rng(seed)
            lo, hi = np.array([pipe.chart_box.bounds[ax]
                               for ax in pipe.section.axes]).T
            s = rng.uniform(0.6 * lo, 0.6 * hi, size=(samples, m)).T
            on = _Samples.on(parent,
                             np.vstack([np.zeros((parent.n_flows, samples)), s]))
            E = pipe.section.basis_matrix()
            R = np.array([np.max(np.abs(fields[(0, i)].value(on)
                                        - E[:, i:i + 1]), axis=0)
                          for i in range(m)])
            worst, point, i = first_max(R.T)    # points outer, fields inner
            if worst > 0.0:
                wit = (f"Z[{i}] on section", _pt(on.x[:, point]))
        out.append(ClauseResidual("1", worst, tol, wit))

    # clause 2: section fields are basic for every kernel foliation
    if "2" in clauses:
        R, labels = np.zeros((0, N)), []
        for qq in range(1, n):
            K = kernel_frame(A, qq, pipe.chart_box, seed=seed)
            pairs = [(F, i) for F in K.frame for i in range(m)]
            V = [_bracket(fields[(0, i)], _ChartField(gen=CompiledField(F)))(pts)
                 for F, i in pairs]
            R = np.concatenate([R, span_residuals(K.values_on(x), V)])
            labels += [f"[Z[{i}], ker A^{qq} frame]" for _, i in pairs]
        out.append(_clause("2", R, labels, x, tol))

    # clause 3: kernel orders are preserved
    if "3" in clauses:
        R = [np.max(np.abs(np.einsum("nij,jn->in", pipe.power_batch(qi)(x),
                                     values[(0, i)])), axis=0)
             for i, qi in enumerate(pipe.orders)]
        labels = [f"A^{qi} Z[{i}]" for i, qi in enumerate(pipe.orders)]
        out.append(_clause("3", np.reshape(R, (len(R), N)), labels, x, tol))

    # clauses 4 and 5
    def pair_clause(name, min_power, target_power):
        if target_power >= n:
            F = np.zeros((N, pipe.d, 0))
        else:
            F = image_frame(A, target_power, pipe.chart_box,
                            seed=seed).values_on(x)
        slots = [(a, i) for (a, i) in pipe.slots if a >= min_power]
        pairs = list(itertools.combinations(slots, 2))
        V = [_bracket(fields[u], fields[v])(pts) for u, v in pairs]
        labels = [f"[{u}, {v}] vs Im A^{target_power}" for u, v in pairs]
        return _clause(name, span_residuals(F, V), labels, x, tol)

    if "4" in clauses:
        out.append(pair_clause("4", 0, k + 1))
    if "5" in clauses:
        out.append(pair_clause("5", 1, k + 2))
    return HKReport(k, tuple(out))


# ---------------------------------------------------------------------------
# Pipeline operations.

_FINAL_CLAUSES = ("1", "3", "4")


def _passed(report: HKReport, what: str) -> HKReport:
    """The report, or InductionError naming its worst clause."""
    if not report.passed:
        worst = report.worst()
        raise InductionError(
            f"{what} violates clause {worst.clause}: residual "
            f"{worst.max_residual:.3e} > {worst.tol:.3e} at {worst.witness}",
            report)
    return report


def initial_frame(A: EndoField, chart: AdaptedChart,
                  settings: PipelineSettings = PipelineSettings(),
                  eigenvalue: float = 0.0, check: bool = True) -> FrameState:
    """Stage-0 frame: the x^(n,*) coordinate fields ordered by kernel order."""
    pipe = _Pipeline(A, chart, settings, eigenvalue)
    state = FrameState(pipe, 0)
    if check:
        _passed(hk_residuals(state), "initial frame")
    return state


def induction_step(state: FrameState) -> FrameState:
    """Advance the induction one stage: transport the section frame by the
    flows of the current image fields."""
    pipe = state.pipeline
    if state.k >= pipe.n - 1:
        raise ValueError("induction is already complete")
    return FrameState(pipe, state.k + 1)


# ---------------------------------------------------------------------------
# The chart map.

class ChartMap:
    """The integral chart: section parametrisation plus ordered flows.

    Chart coordinates follow the slot order: one time coordinate per image
    slot (a >= 1), then the section coordinates.  Forward evaluation
    composes the flows; inversion solves for the flow times.
    """

    def __init__(self, pipeline: _Pipeline):
        self.pipeline = pipeline
        self.slots = pipeline.slots
        self.jordan = jordan_matrix(pipeline.mults, pipeline.eigenvalue)
        self._chart = pipeline.stage_chart(max(pipeline.n - 2, 0))

    @property
    def n_flows(self) -> int:
        return self._chart.n_flows

    def split(self, y):
        y = np.asarray(y, dtype=float)
        N = self.n_flows
        return y[N:], y[:N]   # (s, t)

    def forward(self, y) -> np.ndarray:
        s, t = self.split(y)
        return self._chart.forward(s, t)

    def coords(self, q) -> np.ndarray:
        """Chart coordinates of q; Newton starts at t = 0 (the section
        projection), so the answer depends on q alone."""
        s, t = self._chart.inverse(q)
        return np.concatenate([t, s])

    def forward_with_frame(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint and the chart differential DPhi(y) (columns in slot
        order)."""
        return self._chart.forward_differential(y)

    def chart_ranges(self) -> list:
        """Per-coordinate ranges in chart space staying inside the box."""
        return self._chart.chart_ranges()

    def sample_coords(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        ranges = self.chart_ranges()
        lo = np.array([r[0] for r in ranges])
        hi = np.array([r[1] for r in ranges])
        return rng.uniform(lo, hi, size=(count, len(ranges)))


def build_chart(state: FrameState, check: bool = True) -> ChartMap:
    """Assemble the chart from the final induction stage."""
    pipe = state.pipeline
    if state.k != max(pipe.n - 1, 0):
        raise ValueError(f"chart is built from stage {pipe.n - 1}, got {state.k}")
    if check and pipe.n >= 2:
        _passed(hk_residuals(state, clauses=_FINAL_CLAUSES), "final stage")
    return ChartMap(pipe)


# ---------------------------------------------------------------------------
# Verification.

@dataclass(frozen=True)
class VerificationReport:
    max_deviation: float
    max_bracket: float
    grid: int
    jordan: np.ndarray
    deviation_witness: tuple | None
    passed: bool


def _grid(chart: ChartMap, grid: int) -> tuple[list, np.ndarray]:
    """The verification grid: keys (section coordinates, then flow times in
    application order) in the order of the flows' fan-out, section
    coordinates outermost, and the (dim, grid^dim) block of chart points."""
    N, stage = chart.n_flows, chart._chart
    axes = [np.linspace(lo, hi, grid) for lo, hi in chart.chart_ranges()]
    keys = list(itertools.product(
        *axes[N:], *(axes[a] for a in stage.application_order)))
    return keys, np.array(keys, dtype=float).T[stage.chart_order]


def verify_integral_chart(A: EndoField, chart: ChartMap, grid: int = 5,
                          tol: float = 1e-5) -> VerificationReport:
    """Assemble the field's matrix in the chart differential on a grid.

    The frames DPhi(y) at the grid points (`_grid`) are one
    `forward_differential` of the grid as a block.  At each grid point the
    matrix solve(DPhi, A(p) DPhi) is compared entrywise with the constant
    Jordan matrix; the witness is (section coordinates, flow times in
    application order, point).  Pairwise brackets of the frame fields are
    measured at a few sampled chart points of the chart's own stage chart,
    the final stage's parent, by the rule of `hk_residuals` (`_bracket`):
    the fields are read off DPhi there, and no value inverts the chart.
    """
    stage = chart._chart
    keys, y = _grid(chart, grid)
    points, frames = stage.forward_differential(y)
    mats = np.linalg.solve(frames, A.batch_evaluator()(points) @ frames)
    devs = np.max(np.abs(mats - chart.jordan), axis=(1, 2))
    worst, _, n = first_max(devs[None, :])
    witness = None
    if worst > 0.0:
        m = len(chart.pipeline.section.axes)
        witness = (keys[n][:m], tuple(float(v) for v in keys[n][m:]),
                   tuple(points[:, n]))

    # pairwise brackets of the chart frame, at sampled chart points
    max_bracket = 0.0
    if len(chart.slots) > 1:
        pipe = chart.pipeline
        ys = chart.sample_coords(BRACKET_SAMPLES, pipe.settings.seed + 1)
        pts = _Samples.on(stage, ys.T)
        fields = [pipe.chart_field(*slot, pipe.n - 1) for slot in chart.slots]
        max_bracket = max(
            float(np.max(np.abs(_bracket(fa, fb)(pts))))
            for fa, fb in itertools.combinations(fields, 2))
    return VerificationReport(worst, max_bracket, grid, chart.jordan,
                              witness, worst <= tol)


def compare_charts(c1: ChartMap, c2: ChartMap, samples: int = 100,
                   seed: int = 2026) -> float:
    """Max distance between the two charts' outputs at shared coordinates."""
    if c1.slots != c2.slots:
        raise ValueError("charts must share slot structure")
    ys = c1.sample_coords(samples, seed)
    worst = 0.0
    for y in ys:
        worst = max(worst, float(np.max(np.abs(c1.forward(y) - c2.forward(y)))))
    return worst


# ---------------------------------------------------------------------------
# Driver.

@dataclass(frozen=True)
class JordanizeResult:
    chart: ChartMap
    stage_reports: tuple
    verification: VerificationReport


def jordanize(A: EndoField, chart: AdaptedChart,
              settings: PipelineSettings = PipelineSettings(),
              eigenvalue: float = 0.0, grid: int = 5,
              verify_tol: float = 1e-5) -> JordanizeResult:
    """Full pipeline: validate, run the induction, build and verify the chart."""
    N = A.shifted(eigenvalue) if eigenvalue != 0.0 else A
    validation = validate_adapted_chart(N, chart, seed=settings.seed)
    if not validation.passed:
        raise AdaptedChartError(
            f"chart grouping does not match the flag array: worst kernel "
            f"residual {validation.max_kernel_residual:.3e}, image residual "
            f"{validation.max_image_residual:.3e} at {validation.witness}")
    state = initial_frame(A, chart, settings, eigenvalue, check=False)
    reports = [_passed(hk_residuals(state), "initial frame")]
    n = chart.index
    for k in range(n - 1):
        state = induction_step(state)
        if state.k < n - 1:
            rep = hk_residuals(state)
        else:
            rep = hk_residuals(state, clauses=_FINAL_CLAUSES)
        reports.append(_passed(rep, f"stage {state.k}"))
    cmap = build_chart(state, check=False)
    verification = verify_integral_chart(A, cmap, grid=grid, tol=verify_tol)
    return JordanizeResult(cmap, tuple(reports), verification)
