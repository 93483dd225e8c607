"""Numeric ODE flows of vector fields and frame transport along them.

Flows use fixed-step RK4: determinism and simple error budgeting matter
more than speed at these dimensions.  A symbolic generator V whose
components read only coordinates x_j with V_j the constant 0 is
*straight* (`CompiledField.straight`, decided once per field by which
variables occur in its components): its flow never moves what V reads, so
V is constant along its own trajectory and the flow is exactly
x + tV(x), with differential I + t DV(x) (DV^2 = 0).  Straight flows, of
one start or of a block, take that closed form instead of RK4 steps; the
box check still tests the RK4 step points x + k h V(x) (Groebner, *Die
Lie-Reihen*, 1960: the Lie series of x terminates after its linear term).
In flag-adapted coordinates most stage-0 generators A^p d/ds are straight.

Derivatives in the chart construction come from one place per kind of
field, each with its own step:

- symbolic generators (`CompiledField`) transport frames by the
  variational equation W' = DV(x) W, co-integrated with the trajectory.
  A single start (`integrate_with_transport`) uses the point evaluators; a
  block of starts (`transport_block`: a stage check's sample set or the
  verification grid, as chart points) gives each column its own flow time
  and steps all columns together with the batch evaluators;
- computed generators A^p Z^(r) have no jacobian.  When the flows of the
  parent chart Phi_P (stage r-1) are all symbolic, theirs run in P's
  coordinates y = (t, s): Z^(r) at Phi_P(y) is a section column of
  DPhi_P(y), which P's variational transports give
  (`charts._StageChart.forward_differential`), so a flow step inverts
  nothing; the generator's `point` maps y to the ambient point the box
  check tests.  A parent with computed flows (n >= 4) would need central
  differences of those for every RK4 stage, so there the flow runs in
  the ambient space on the generator's `value`, which inverts P.  Frames
  are carried along computed flows by central differences of flow maps
  with step `charts.H_TRANSPORT`, one start at a time
  (`charts._StageChart._transport_computed`);
- Lie brackets follow one rule (`charts._bracket`) and are evaluated as
  blocks over a sample set: the exact tree, compiled for blocks, when both
  fields are symbolic; else in the coordinates y of the stage chart the
  samples are chart points of, as DPhi (D_X Y - D_Y X) with the fields
  pulled back by solves with DPhi and directional derivatives by central
  differences in y with step `charts.H_BRACKET`, so no bracket inverts a
  chart.  `numeric_bracket` (central differences of ambient fields) stays
  as the reference a test holds that rule to;
- the chart differential DPhi at one chart point or at a block of them is
  `charts._StageChart.forward_differential`, the one path that the stage
  checks, the frame brackets and the verification grid read frames from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .expr import Box, Const, compile_batch, variables
from .fields import VectorField

__all__ = [
    "IntegratorSettings", "FlowSpec", "ComputedVectorField",
    "CompiledField", "BoxExitError", "integrate_flow",
    "integrate_with_transport", "transport_block", "numeric_bracket",
]


class BoxExitError(RuntimeError):
    def __init__(self, time: float, point):
        super().__init__(f"trajectory left the working box at t = {time:.6f}")
        self.time = time
        self.point = tuple(point)


@dataclass(frozen=True)
class IntegratorSettings:
    """Configuration of the fixed-step RK4 flow integrator."""

    integrator: ClassVar[str] = "rk4"
    step: float = 1e-2           # fixed RK4 step on the unit box
    seed: int = 2026

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step size must be positive")

    def accuracy(self) -> float:
        """Rough global error scale, for test tolerances."""
        return self.step ** 4


class CompiledField:
    """Symbolic vector field with compiled value and jacobian evaluators.

    The point evaluators take a (d,) point; the batch evaluators take a
    (d, N) array whose columns are points, and are compiled on first use.
    """

    def __init__(self, field: VectorField):
        self.field = field
        self.dim = field.dim
        self._value = field.evaluator()
        self._jac = None
        self._batch = None

    @property
    def symbolic(self) -> bool:
        return True

    @cached_property
    def straight(self) -> bool:
        """True when no component reads a coordinate x_j whose component
        V_j is not the constant 0: the flow is then x + tV(x) exactly."""
        comps = self.field.components
        moved = {j for j, c in enumerate(comps, 1)
                 if not (isinstance(c, Const) and c.value == 0.0)}
        return not any(variables(c) & moved for c in comps)

    def value(self, p) -> np.ndarray:
        return self._value(p)

    def jacobian(self, p) -> np.ndarray:
        if self._jac is None:
            self._jac = self.field.jacobian_evaluator()
        return self._jac(p)

    def batch_value(self, x) -> np.ndarray:
        """(d, N) values at the columns of a (d, N) point array."""
        return self._batch_evaluators()[0](x)

    def batch_jacobian(self, x) -> np.ndarray:
        """(N, d, d) jacobians at the columns of a (d, N) point array."""
        return self._batch_evaluators()[1](x)

    def _batch_evaluators(self) -> tuple:
        if self._batch is None:
            d = self.dim
            jac = compile_batch([e for row in self.field.jacobian_exprs()
                                 for e in row])
            self._batch = (compile_batch(self.field.components),
                           lambda x: jac(x).T.reshape(-1, d, d))
        return self._batch

    def point(self, x) -> np.ndarray:
        """The ambient point of the state x: x itself."""
        return x

    def __call__(self, p) -> np.ndarray:
        return self._value(p)


class ComputedVectorField:
    """A vector field defined by a procedure, with memoised evaluations.

    Evaluation is deterministic given integrator settings; results are
    cached by the exact bytes of the point, so a value is never served for
    a neighbouring point; an evicted value is recomputed bit for bit.
    """

    MEMO = 8192     # values kept

    def __init__(self, fn, dim: int):
        self.fn = fn
        self.dim = dim
        self._cache: dict[bytes, np.ndarray] = {}

    @property
    def symbolic(self) -> bool:
        return False

    def value(self, p) -> np.ndarray:
        key = np.asarray(p, dtype=float).tobytes()
        hit = self._cache.get(key)
        if hit is None:
            hit = np.asarray(self.fn(p), dtype=float)
            self._cache[key] = hit
            if len(self._cache) > self.MEMO:
                del self._cache[next(iter(self._cache))]
        return hit

    def cache_size(self) -> int:
        return len(self._cache)

    def point(self, x) -> np.ndarray:
        """The ambient point of the state x: x itself."""
        return x

    def __call__(self, p) -> np.ndarray:
        return self.value(p)


@dataclass
class FlowSpec:
    """A flow problem: generator plus integrator configuration and trust box.

    The generator's `point(x)` is the ambient point of a state x, which the
    box check tests; it is x itself except for a generator integrated in
    chart coordinates (`charts._Pullback`).
    """

    generator: object            # VectorField, or a field with value, point
    settings: IntegratorSettings = IntegratorSettings()
    box: Box | None = None       # working box; trajectories must stay inside

    def __post_init__(self):
        if isinstance(self.generator, VectorField):
            self.generator = CompiledField(self.generator)


def _check_box(spec: FlowSpec, t, x: np.ndarray):
    """Raise BoxExitError if the point x, or a column of the (d, N) block
    x, is outside the working box; a block names its first such column c,
    at its time t[c].  The point tested is the generator's `point(x)`."""
    box = spec.box
    if box is None:
        return
    x = spec.generator.point(x)
    if x.ndim == 1:
        if not box.contains(x):
            raise BoxExitError(t, x)
        return
    outside = _outside(box, x)
    if outside.any():
        c = int(np.argmax(outside))
        raise BoxExitError(float(t[c]), x[:, c])


def _outside(box: Box, x: np.ndarray) -> np.ndarray:
    """Mask of the points of x, coordinates along axis -2, outside box."""
    mid, half = box.mid_half[:2]
    return np.any(np.abs(x - mid) > half, axis=-2)


def _steps(spec: FlowSpec, t: float) -> tuple[int, float]:
    """RK4 step count and step for flow time t (a block's column's too)."""
    n = max(1, math.ceil(abs(t) / spec.settings.step))
    return n, t / n


def _straight(gen) -> bool:
    return isinstance(gen, CompiledField) and gen.straight


def _check_line(spec: FlowSpec, x: np.ndarray, v: np.ndarray, n, h):
    """The box check of RK4 on the straight flow x + sV(x) with n steps of
    size h (for a (d, N) block, one n and h per column): BoxExitError at
    the first step whose step point x + k h v is outside the box, naming a
    block's first column out there.  Each coordinate of the step points is
    monotone in k, even rounded, so when the first and the last step
    points are inside (for a single start, by `Box.contains`), all are.
    """
    box = spec.box
    if box is None:
        return
    if x.ndim == 1 and box.contains(x + h * v) and box.contains(x + (n * h) * v):
        return
    d = x.shape[0]
    x, v = x.reshape(d, -1), v.reshape(d, -1)
    if not _outside(box, x + np.array([h, n * h]).reshape(2, 1, -1) * v).any():
        return
    n, h = np.broadcast_to(n, x.shape[1:]), np.broadcast_to(h, x.shape[1:])
    k = np.arange(1, int(n.max()) + 1)[:, None]
    P = x + (k * h)[:, None, :] * v                       # (K, d, N)
    outside = _outside(box, P) & (k <= n)                 # (K, N)
    step = int(np.argmax(outside.any(axis=1)))
    c = int(np.argmax(outside[step]))
    raise BoxExitError((step + 1) * float(h[c]), P[step, :, c])


def integrate_flow(spec: FlowSpec, p0, t: float) -> np.ndarray:
    """Solve x' = V(x), x(0) = p0 up to time t."""
    x = np.asarray(p0, dtype=float).copy()
    if t == 0.0:
        return x
    gen = spec.generator
    n, h = _steps(spec, t)
    if _straight(gen):
        v = gen.value(x)
        _check_line(spec, x, v, n, h)
        return x + t * v
    V = gen.value
    for k in range(n):
        k1 = V(x)
        k2 = V(x + 0.5 * h * k1)
        k3 = V(x + 0.5 * h * k2)
        k4 = V(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_box(spec, (k + 1) * h, x)
    return x


def _line(spec: FlowSpec, V, DV, x, W, n, h, tx, tw) -> tuple:
    """(x + tV(x), W + t DV(x) W) on a straight flow, box-checked; tx and
    tw are t shaped for x and W.  DV W is an elementwise sum, which rounds
    alike for one (d, d) jacobian and an (N, d, d) stack."""
    v = V(x)
    _check_line(spec, x, v, n, h)
    return x + tx * v, W + tw * (DV(x)[..., :, :, None]
                                 * W[..., None, :, :]).sum(-2)


def _rk4_transport_step(V, DV, x, W, hx, hw) -> tuple:
    """One RK4 step of (x, W) with W' = DV(x) W; hx and hw are the step,
    shaped to broadcast over x and over W."""
    k1 = V(x)
    K1 = DV(x) @ W
    x2 = x + 0.5 * hx * k1
    k2 = V(x2)
    K2 = DV(x2) @ (W + 0.5 * hw * K1)
    x3 = x + 0.5 * hx * k2
    k3 = V(x3)
    K3 = DV(x3) @ (W + 0.5 * hw * K2)
    x4 = x + hx * k3
    k4 = V(x4)
    K4 = DV(x4) @ (W + hw * K3)
    return (x + (hx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            W + (hw / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4))


def integrate_with_transport(spec: FlowSpec, p0, t: float, W0) -> tuple:
    """Co-integrate the trajectory from the start p0, shape (d,), and the
    variational equation W' = DV(x) W applied to W0, shape (d, m), on the
    point evaluators: (x(t), W(t)).  The generator must be symbolic: only
    `CompiledField` has a jacobian.  A straight generator takes `_line`.
    """
    x = np.asarray(p0, dtype=float).copy()
    W = np.asarray(W0, dtype=float).copy()
    if t == 0.0:
        return x, W
    gen = spec.generator
    n, h = _steps(spec, t)
    if _straight(gen):
        return _line(spec, gen.value, gen.jacobian, x, W, n, h, t, t)
    for k in range(n):
        x, W = _rk4_transport_step(gen.value, gen.jacobian, x, W, h, h)
        _check_box(spec, (k + 1) * h, x)
    return x, W


def transport_block(spec: FlowSpec, x, t, W) -> tuple:
    """`integrate_with_transport` for N starts, the columns of x (d, N),
    each with its own time t[c] and frame W[c] (W is (N, d, m)), on the
    batch evaluators.  Column c takes `_steps` of t[c], as its single
    start does; one with t[c] = 0 or whose steps are done is left as it is.
    It equals its single start bit for bit when the field's expressions are
    sums, products and quotients (numpy's array kernels may round integer
    powers and exp differently in the last place).  Each column is
    box-checked at its own step times; a BoxExitError names the first
    column out at the earliest step index."""
    x, W = np.array(x, dtype=float), np.array(W, dtype=float)
    t = np.asarray(t, dtype=float)
    live = np.flatnonzero(t != 0.0)
    if live.size == 0:
        return x, W
    gen = spec.generator
    n, h = map(np.array, zip(*(_steps(spec, tc) for tc in t[live].tolist())))
    if _straight(gen):
        x[:, live], W[live] = _line(spec, gen.batch_value, gen.batch_jacobian,
                                    x[:, live], W[live], n, h, t[live],
                                    t[live, None, None])
        return x, W
    for k in range(int(n.max())):
        cols, hk = live[n > k], h[n > k]
        x[:, cols], W[cols] = _rk4_transport_step(
            gen.batch_value, gen.batch_jacobian, x[:, cols], W[cols], hk,
            hk[:, None, None])
        _check_box(spec, (k + 1) * hk, x[:, cols])
    return x, W


def numeric_bracket(X, Y, p, h: float = 1e-3) -> np.ndarray:
    """[X, Y](p) via central-difference jacobians of X and Y."""
    d = X.dim
    base = np.asarray(p, dtype=float)
    JX = np.empty((d, d))
    JY = np.empty((d, d))
    for j in range(d):
        up = base.copy()
        dn = base.copy()
        up[j] += h
        dn[j] -= h
        JX[:, j] = (X.value(up) - X.value(dn)) / (2.0 * h)
        JY[:, j] = (Y.value(up) - Y.value(dn)) / (2.0 * h)
    return JY @ X.value(base) - JX @ Y.value(base)
