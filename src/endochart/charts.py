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
parametrisation is configurable (`flow_order`).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .expr import Box, compile_batch, sample_box, shared_compiles
from .fields import (EndoField, VectorField, apply_endo, coordinate_field,
                     first_max, lie_bracket)
from .flows import (BoxExitError, CompiledField, ComputedVectorField,
                    FlowSpec, IntegratorSettings, _kept, _steps,
                    integrate_flow)
from .structure import column_frame, nullspace_frame, span_residuals

__all__ = [
    "AdaptedChart", "Section", "PipelineSettings", "FrameState", "ChartMap",
    "AdaptedChartError", "InductionError", "NewtonError",
    "validate_adapted_chart", "initial_frame", "induction_step",
    "hk_residuals", "build_chart", "jordan_matrix", "verify_integral_chart",
    "jordanize", "basis_slots",
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
    """The values callers set; every other number is a module constant below.

    The command line and the benchmark set `integrator` and `seed`.
    `flow_order` ("desc" | "asc") is the composition order of the flows:
    the flow-order independence check runs "asc" as an independent path
    that the default order is compared against.
    """

    integrator: IntegratorSettings = IntegratorSettings(step=1e-2)
    seed: int = 2026
    flow_order: str = "desc"


BOX_MARGIN = 1.5         # working-box inflation for flow monitoring
HK_SAMPLES = 5           # sample points of each induction-hypothesis check
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
    """A level set of the non-quotient adapted coordinates through the
    origin.

    Parametrised by the x^(n,*) coordinates; the remaining axes are pinned
    to 0 (the paper leaves sigma arbitrary).
    """

    dim: int
    axes: tuple            # parametrising axes, in field order

    @staticmethod
    def for_chart(chart: AdaptedChart) -> "Section":
        return Section(chart.dim, tuple(chart.section_axes()))

    def embed(self, s) -> np.ndarray:
        """The point sigma(s)."""
        x = np.zeros(self.dim)
        x[list(self.axes)] = s
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

def _chart_point(s, t) -> list:
    """The chart point (t, s) as a list of Python floats."""
    return (np.asarray(t, dtype=float).tolist()
            + np.asarray(s, dtype=float).tolist())


def _solving():
    """The error state of `np.linalg.solve`: LinAlgError if singular."""
    return np.errstate(call=_singular, invalid="call")


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(D, b) -> np.ndarray:
    """`np.linalg.solve(D, b)` for a (d, d) array D and a (d,) array b, bit
    for bit: the LAPACK gesv gufunc it calls, without its per-call checks
    and error state, which the caller holds (`_solving`)."""
    return _umath_linalg.solve1(D, b, signature="dd->d")


class _StageChart:
    """Parametrisation (s, t) -> Phi(sigma(s), t) by the stage's flows."""

    MEMO = 4096     # differentials, and start coordinates, kept

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
        self._starts: dict[bytes, np.ndarray] = {}
        self._plans: dict[tuple, object] = {}
        self._key = struct.Struct(f"{self.section.dim}d").pack

    @property
    def n_flows(self) -> int:
        return len(self.flow_slots)

    def forward(self, s, t) -> np.ndarray:
        """Phi(sigma(s), t): the point plan of an empty frame."""
        z = self._point_plan(0, False)(_chart_point(s, t))
        return np.array(z[:self.section.dim])

    def chart_ranges(self) -> list:
        """Per-coordinate ranges, flow times then section coordinates, that
        keep the chart inside the box: GRID_SCALE of the smallest half-width
        for times, of each section axis's half-width about its middle."""
        mid, half = self.pipeline.chart_box.mid_half
        out = [(-GRID_SCALE * min(half), GRID_SCALE * min(half))] * self.n_flows
        for ax in self.section.axes:
            out.append((mid[ax] - GRID_SCALE * half[ax], mid[ax] + GRID_SCALE * half[ax]))
        return out

    def start_coords(self, x) -> np.ndarray:
        """Chart coordinates y = (t, s) of x: t = 0 when x lies exactly on
        the section, else one inversion.  The last MEMO are kept by the
        exact bytes of x: a transport at the flow times a Newton solve
        found starts its computed flows where the solve's last forward map
        started them."""
        x = np.asarray(x, dtype=float)

        def solve():
            s, t = self.section.project(x), np.zeros(self.n_flows)
            if not np.array_equal(self.section.embed(s), x):
                s, t = self.inverse(x)
            return np.concatenate([t, s])
        return _kept(self._starts, x.tobytes(), solve, self.MEMO)

    def differential(self, y: list) -> tuple[np.ndarray, np.ndarray]:
        """`forward_differential` at the chart point y, a list of Python
        floats, as two views of one array of the plan's answer; the last
        MEMO points asked are kept by their exact bytes, those of y as an
        array.  The end of a flow and the start of the next one in this
        chart share a point; trajectories of a pulled-back flow from one
        start meet the same points again.  A point missed here may still
        share a prefix with the plan's last run: the RK4 stage points
        y + (h/2) k1 and y + (h/2) k2 of a pulled-back flow can share the
        section coordinates and the first flow's time, and then run that
        flow once (`_point_plan`).  Blocks (`forward_differential`) do not
        pass through this memo."""
        d = self.section.dim

        def make():
            z = np.array(self._point_plan(len(self.section.axes), True)(y))
            return z[:d], z[d:].reshape(d, d)
        return _kept(self._differentials, self._key(*y), make, self.MEMO)

    def forward_differential(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Phi(y) and the full differential DPhi(y) at y = (t, s), or at the
        columns of a (dim, N) block y as (d, N) points and (N, d, d) DPhi.

        Each point runs the single-point plan with the section frame and
        time columns, a block's columns one by one, so a column is its
        single point bit for bit and raises its own box exit; consecutive
        columns that share a prefix of flows run it once (`_point_plan`).
        Time columns, in canonical slot order, are each flow's generator
        value at its endpoint carried through the later flows; section
        columns are the transported section frame, as `section_frame` gives
        them.
        """
        y = np.asarray(y, dtype=float)
        d, run = self.section.dim, self._point_plan(len(self.section.axes), True)
        z = np.array([run(c) for c in np.atleast_2d(y.T).tolist()])
        x = np.ascontiguousarray(z[:, :d].T)
        D = np.ascontiguousarray(z[:, d:]).reshape(-1, d, d)
        return (x, D) if y.ndim == 2 else (x[:, 0], D[0])

    def section_frame(self, q) -> np.ndarray:
        """The section fields Z^(k+1)(q) of the next stage as columns: one
        inversion, then the section frame transported there by the plan
        without time columns, which would cost a computed flow more +-h
        trajectories.  Not kept: the A^p Z fields that read it keep their
        own values (`ComputedVectorField`)."""
        s, t = self.inverse(q)
        d, m = self.section.dim, len(self.section.axes)
        z = self._point_plan(m, False)(_chart_point(s, t))
        return np.array(z[d:]).reshape(d, m)

    def _point_plan(self, m: int, times: bool):
        """The composition of one start, planned on first use: `run(y) -> z`,
        with y the chart point (t, s), a list of Python floats, and z the
        end point, then the end frame flat row by row.  The plan owns its
        starting frame: none for m = 0 (`forward`), else the section frame
        (m its width).  With `times` (`differential` and each point of
        `forward_differential`, a block's columns included), each flow's
        generator value at its end joins the frame as a new column, and
        the end frame's columns are in chart order; without (`section_frame`)
        the frame is the section frame alone.  This is the one executor of
        the composition.

        Resolved once: the application order, the index list that lays out
        sigma(s), and per flow one step.  A symbolic flow's step is its
        generated plan step (`CompiledField.plan_step`) for the frame width
        it has there, the working box, its integrator step and, with
        `times`, the layout of its time column; it raises a box exit as the
        flow alone would.  A computed flow's step goes through
        `_transport_computed` on arrays, which threads the end's place in a
        parent chart to the next computed flow.

        A plan keeps the chain of its last run: the bytes of y and the
        state (z, place) after each flow.  A run resumes after the deepest
        flow whose inputs are unchanged bit for bit: s, then each flow's
        time in application order (-0.0 == 0.0, yet a section coordinate
        -0.0 gives another sigma(s)).  So consecutive points that share a
        prefix, the columns of a block in fan-out order or the RK4 stages
        of a pulled-back flow, run each shared flow once; every step is a
        pure function of (z, t, place), so no answer moves.  A run
        publishes its chain when its last flow is done, and changes no
        chain published before: a run that raises keeps nothing, so the
        next run that reaches the same flow raises its exit again, and a
        plan re-entered through a computed generator stays right.  The z
        returned is also the last state of the chain, so callers copy it
        and never change it in place.
        """
        plan = self._plans.get((m, times))
        if plan is not None:
            return plan
        key, d, axes = (m, times), self.section.dim, self.section.axes
        # sigma(s) gathered from y + [0.0]: s on the section axes, else 0
        N = self.n_flows
        start = [N + axes.index(i) if i in axes else -1 for i in range(d)]
        W = self.section.basis_matrix().ravel().tolist() if m else []
        # the bytes of y: the times, then s (`rest`)
        pack, rest = self._key, slice(8 * N, None)
        time_bytes = [slice(8 * a, 8 * a + 8) for a in self.application_order]
        flows = []
        for k, alpha in enumerate(self.application_order, 1):
            spec = self.specs[alpha]
            layout = None
            if times:
                # z + value(z) laid out with the value as column m, in chart
                # order after the last flow
                cols = self.chart_order if k == N else range(m + 1)
                layout = (*range(d), *(d + i * m + c if c < m else d + d * m + i
                                       for i in range(d) for c in cols))
            if spec.generator.symbolic:
                flows.append((alpha, True, spec.generator.plan_step(
                    m, spec.box, spec.settings.step, layout)))
            else:
                flows.append((alpha, False, self._computed_step(
                    alpha, m, layout)))
            m += times

        tails = [flows[k:] for k in range(N + 1)]
        chain = (b"", [])    # the last run's: none yet

        def run(y: list) -> list:
            nonlocal chain
            last, kept = chain
            packed = pack(*y)
            if kept and packed[rest] == last[rest]:
                states = kept[:1]
                for t, state in zip(time_bytes, kept[1:]):
                    if packed[t] != last[t]:
                        break
                    states.append(state)
            else:
                src = y + [0.0]
                states = [([src[k] for k in start] + W, None)]
            z, at = states[-1]
            for alpha, symbolic, step in tails[len(states) - 1]:
                if symbolic:
                    z, at = step(z, y[alpha]), None
                else:
                    z, at = step(z, y[alpha], at)
                states.append((z, at))
            chain = (packed, states)
            return z
        plan = self._plans[key] = run
        return plan

    def _computed_step(self, alpha: int, m: int, layout: tuple | None):
        """The plan step `f(z, t, at) -> (z, at)` of the computed flow alpha
        for a frame of width m: `_transport_computed` on arrays, then, with
        a layout, the generator's value at the end as `_point_plan` lays it
        out."""
        d, get = self.section.dim, self.generators[alpha].value

        def step(z: list, t: float, at) -> tuple:
            x, F, at = self._transport_computed(
                alpha, np.array(z[:d]), np.array(z[d:]).reshape(d, m), t, at)
            z = x.tolist() + F.ravel().tolist()
            if layout is not None:
                src = z + get(x).tolist()
                z = [src[k] for k in layout]
            return z, at
        return step

    def _transport_computed(self, alpha: int, x, W, t, at) -> tuple:
        """(endpoint, frame, the endpoint's place in the parent chart) of the
        computed flow alpha from x, at place `at`, after time t.  The frame
        W goes by central differences of the flow map, step H_TRANSPORT,
        along each unit column u.

        A pulled-back generator flows in its parent chart P's coordinates
        from y0, which is `at`'s when that names P, else P.start_coords(x),
        and differences the flows from y0 +- h w, w = DPhi_P(y0)^-1 u: the
        rule of `_Samples.along`, so no shifted start inverts P.  The end's
        place is (P, y_end).  Any other computed flow differences its flows
        from x +- h u in the ambient space, place None; so does every
        computed flow at t = 0, the identity, which leaves `at` as it is.
        """
        spec, h, t = self.specs[alpha], H_TRANSPORT, float(t)
        gen = spec.generator
        pulled = isinstance(gen, _Pullback) and t != 0.0

        def run(start):
            return (gen.point(gen.flow(start, t)) if pulled
                    else integrate_flow(spec, start, t))
        if pulled:
            P = gen.parent
            z = at[1] if at is not None and at[0] is P else P.start_coords(x)
            at = (P, gen.flow(z, t))
            end = gen.point(at[1])
        else:
            z, at = x, (at if t == 0.0 else None)
            end = run(z)
        frame = np.zeros(W.shape)
        for j in range(W.shape[1]):
            nw = float(np.linalg.norm(W[:, j]))
            if nw != 0.0:
                w = W[:, j] / nw
                if pulled:
                    with _solving():
                        w = _solve(P.differential(z.tolist())[1], w)
                frame[:, j] = nw * (run(z + h * w) - run(z - h * w)) / (2.0 * h)
        return end, frame, at

    def inverse(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Solve Phi(sigma(s), t) = q for the flow times t.

        The quotient coordinates are preserved by every flow, so s is read
        off q directly and only t is solved for, by damped Gauss-Newton
        with generator values as approximate jacobian columns.  Newton
        starts at t = 0, the section projection, where the forward map
        costs nothing, so the answer depends on q alone.
        """
        q = np.asarray(q, dtype=float)
        s = self.section.project(q)
        N = self.n_flows
        if N == 0:
            return s, np.zeros(0)
        t = np.zeros(N)
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
    inversion of Phi_P.  Its flows run from chart points of P to chart
    points of P (`flow`) by their own RK4 loop on Python floats, which
    reads DPhi_P from P's single-point plan (`_StageChart.differential`)
    and box-checks Phi_P(y).  A stage chart places a flow's start in P
    once, from the end of an earlier flow or by one inversion, and shifts
    the +-h starts of its frame differences there, so they invert nothing
    (`_StageChart._transport_computed`).  One pullback serves every stage
    chart that flows along V (`_Pipeline.flow_generator`).
    """

    symbolic = False
    MEMO = 1024     # trajectories kept

    def __init__(self, parent: _StageChart, Ap, i: int, settings, box):
        self.parent = parent
        self.Ap = Ap
        self.col = parent.n_flows + i
        self.spec = FlowSpec(self, settings, box)
        self._flows: dict[tuple, np.ndarray] = {}

    def point(self, y) -> np.ndarray:
        """The ambient point Phi_P(y)."""
        return self.parent.differential(y.tolist())[0]

    def flow(self, y0: np.ndarray, t: float) -> np.ndarray:
        """The parent coordinates of the end of the flow from the parent
        chart point y0 after time t (not 0), by `_rk4`.  The last MEMO ends
        are kept by the exact bytes of (t, y0), for every stage chart that
        flows along V: a Newton line search, the transport after a Newton
        solve and chart points that share their first flows but do not
        follow each other (a sample block and its bracket shifts) repeat
        recent trajectories."""
        return _kept(self._flows, (t, y0.tobytes()),
                     lambda: self._rk4(y0, t), self.MEMO)

    def _rk4(self, y0: np.ndarray, t: float) -> np.ndarray:
        """`flows._rk4_step`'s steps (`flows._steps`) of y' = V(y) from y0
        after time t (not 0), on a list y of Python floats: per stage one
        `differential` of P, one matvec and one LAPACK solve.  Each step
        end's Phi_P is box-checked, and its differential serves the next
        step's first stage.  A box exit that P's own flows raise inside
        step k is this flow's exit at k h, at P's point; one they raise at
        y0 itself, before any step, stays P's."""
        n, h = _steps(self.spec, t)
        h2, h6 = 0.5 * h, h / 6.0
        box, diff = self.spec.box, self.parent.differential
        Ap, col = self.Ap, self.col

        def slope(x, D) -> list:
            return _solve(D, Ap(x) @ D[:, col]).tolist()
        y = y0.tolist()
        with _solving():
            x, D = diff(y)
            for k in range(1, n + 1):
                try:
                    k1 = slope(x, D)
                    k2 = slope(*diff([a + h2 * b for a, b in zip(y, k1)]))
                    k3 = slope(*diff([a + h2 * b for a, b in zip(y, k2)]))
                    k4 = slope(*diff([a + h * b for a, b in zip(y, k3)]))
                    y = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                         for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                    x, D = diff(y)
                except BoxExitError as err:
                    raise BoxExitError(k * h, err.point) from err
                if not box.contains(x):
                    raise BoxExitError(k * h, x)
        return np.array(y)


# ---------------------------------------------------------------------------
# The pipeline.

class _Pipeline:
    def __init__(self, A: EndoField, chart: AdaptedChart,
                 settings: PipelineSettings, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        self.A = A.shifted(eigenvalue) if eigenvalue != 0.0 else A
        self.chart_box = chart.box
        self.working_box = chart.box.inflate(BOX_MARGIN)
        self.settings = settings
        self.section = Section.for_chart(chart)
        self.mults = chart.multiplicities
        self.orders = _orders(self.mults)
        self.n = chart.index
        self.slots = basis_slots(self.mults)
        self.d = chart.dim
        self._powers = [EndoField.identity(self.d)]     # A^p, p = 0 .. n
        for _ in range(self.n):
            self._powers.append(self._powers[-1].matmul(self.A))
        self._power_ev: dict[int, object] = {}
        self._power_batch: dict[int, object] = {}
        # stage data
        self._z0 = [coordinate_field(self.d, ax + 1)
                    for ax in self.section.axes]
        self._stage_charts: dict[int, _StageChart] = {}
        self._gen_cache: dict[tuple, object] = {}
        self._compiled: dict[VectorField, CompiledField] = {}
        self._frames: dict[tuple, object] = {}

    # -- frame fields ------------------------------------------------------

    def rep_stage(self, p: int, k: int) -> int:
        """Cheapest stage whose p-th images equal the stage-k ones.

        A^p Z^(k) is unchanged from stage max(0, n-p-1) on, because the
        later flows move points only along leaves that A^p collapses.
        """
        return max(0, min(k, self.n - p - 1))

    def generator(self, p: int, i: int, k: int):
        """The field A^p Z_i^(k) as a flow generator (stage-reduced), kept
        per pipeline: a symbolic one compiled, any other computed from the
        parent chart's `section_frame`, which inverts that chart."""
        rep = self.rep_stage(p, k)
        key = (p, i, rep)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        if rep == 0:
            gen = self.compiled(apply_endo(self._powers[p], self._z0[i])
                                if p else self._z0[i])
        else:
            parent, Ap = self.stage_chart(rep - 1), self.power_ev(p)
            gen = ComputedVectorField(
                lambda q: Ap(q) @ parent.section_frame(q)[:, i], self.d)
        self._gen_cache[key] = gen
        return gen

    def compiled(self, field: VectorField) -> CompiledField:
        """The pipeline's one `CompiledField` of a symbolic field, by value:
        a section field and a kernel frame field that are equal share it."""
        hit = self._compiled.get(field)
        if hit is None:
            hit = self._compiled[field] = CompiledField(field)
        return hit

    def frame(self, kind: str, power: int):
        """The frame of ker A^power (kind "ker", `structure.nullspace_frame`)
        or Im A^power ("Im", `column_frame`) on the chart box, built once per
        pipeline from its power of A: every stage's clauses read the same
        frame of a power."""
        key = (kind, power)
        if key not in self._frames:
            build = nullspace_frame if kind == "ker" else column_frame
            self._frames[key] = build(self._powers[power], self.chart_box,
                                      f"{kind} A^{power}",
                                      seed=self.settings.seed)
        return self._frames[key]

    def power_ev(self, p: int):
        """The point evaluator of A^p, compiled on first use."""
        if p not in self._power_ev:
            self._power_ev[p] = self._powers[p].evaluator()
        return self._power_ev[p]

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
                parent, self.power_ev(p), i, self.settings.integrator,
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
        """The chart points that are the columns of y, by
        `chart.forward_differential` of the block, which runs the chart's
        single-point plan on each column: no chart inversion."""
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
    (`structure.span_residuals`).  Kernel and image frames are the
    pipeline's (`_Pipeline.frame`), built once per power.
    """
    pipe = state.pipeline
    k = state.k
    seed = pipe.settings.seed
    n = pipe.n

    if k == 0:
        pts = _Samples(sample_box(pipe.chart_box.inflate(0.7), HK_SAMPLES,
                                  seed, include_corners=False,
                                  include_center=True).T)
    else:
        parent = pipe.stage_chart(k - 1)
        pts = _Samples.on(parent, sample_box(
            Box(tuple(parent.chart_ranges())), HK_SAMPLES, seed,
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
            s = rng.uniform(0.6 * lo, 0.6 * hi, size=(HK_SAMPLES, m)).T
            on = _Samples.on(parent, np.vstack(
                [np.zeros((parent.n_flows, HK_SAMPLES)), s]))
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
            K = pipe.frame("ker", qq)
            frame = [_ChartField(gen=pipe.compiled(F)) for F in K.frame]
            V = [_bracket(fields[(0, i)], F)(pts) for F in frame
                 for i in range(m)]
            R = np.concatenate([R, span_residuals(K.values_on(x), V)])
            labels += [f"[Z[{i}], ker A^{qq} frame]" for _ in frame
                       for i in range(m)]
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
            F = pipe.frame("Im", target_power).values_on(x)
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
    coordinates outermost, and the (dim, grid^dim) block of chart points.
    Consecutive points share every flow but the last, and the plan's
    retained chain (`_StageChart._point_plan`) runs each flow once per
    distinct prefix."""
    N, stage = chart.n_flows, chart._chart
    axes = [np.linspace(lo, hi, grid) for lo, hi in chart.chart_ranges()]
    keys = list(itertools.product(
        *axes[N:], *(axes[a] for a in stage.application_order)))
    return keys, np.array(keys, dtype=float).T[stage.chart_order]


def verify_integral_chart(A: EndoField, chart: ChartMap, grid: int = 5,
                          tol: float = 1e-5) -> VerificationReport:
    """Assemble the field's matrix in the chart differential on a grid.

    The frames DPhi(y) at the grid points (`_grid`) are one
    `forward_differential` of the grid as a block, each point by the
    chart's single-point plan; in the grid's fan-out order each flow runs
    once per distinct prefix of the grid.  At each grid point the matrix
    solve(DPhi, A(p) DPhi) is compared entrywise with the constant
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
    """Full pipeline: validate, run the induction, build and verify the
    chart, with each expression list compiled for sample sets once
    (`expr.shared_compiles`): A's, for one, by the validation, the stage
    checks and the verification."""
    with shared_compiles():
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
