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
  variational equation W' = DV(x) W, co-integrated with the trajectory
  (`integrate_with_transport`).  A transport of many starts (the
  verification grid's fan-out along one flow) is grouped by flow time and
  each group is stepped as one (d, N) block with the batch evaluators;
  a single start uses the point evaluators;
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
  with step `PipelineSettings.h_transport`
  (`charts._StageChart.transport_flow`);
- Lie brackets follow one rule (`charts._bracket`) and are evaluated as
  blocks over a (d, N) sample set: the exact tree, compiled for blocks,
  when both fields are symbolic, else central differences of the fields
  with step `PipelineSettings.h_bracket` (`numeric_bracket`) at each
  column;
- the verification grid's frames are the chart differential DPhi, bit for
  bit as `ChartMap.forward_with_frame` composes it.
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
    "integrate_with_transport", "numeric_bracket",
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

    def batch_value(self, x) -> np.ndarray:
        """(d, N) values at the columns of a (d, N) point array, one
        `value` per column."""
        return np.column_stack([self.value(p) for p in np.asarray(x).T])

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


def _check_box(spec: FlowSpec, t: float, x: np.ndarray):
    """Raise BoxExitError if the point x, or a column of the (d, N) block
    x, is outside the working box; a block names its first such column.
    The point tested is the generator's `point(x)`."""
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
        raise BoxExitError(t, x[:, int(np.argmax(outside))])


def _outside(box: Box, x: np.ndarray) -> np.ndarray:
    """Mask of the points of x, coordinates along axis -2, outside box."""
    lo, hi = np.array(box.bounds, dtype=float).T
    return np.any(np.abs(x - ((lo + hi) / 2.0)[:, None])
                  > ((hi - lo) / 2.0)[:, None], axis=-2)


def _steps(spec: FlowSpec, t: float) -> tuple[int, float]:
    """RK4 step count and step for flow time t."""
    n = max(1, math.ceil(abs(t) / spec.settings.step))
    return n, t / n


def _straight(gen) -> bool:
    return isinstance(gen, CompiledField) and gen.straight


def _check_line(spec: FlowSpec, x: np.ndarray, v: np.ndarray, t: float):
    """The box check of RK4 on the straight flow x + sV(x) up to time t:
    BoxExitError at the first step time whose step point x + k h v is
    outside the box, for a point or a (d, N) block (its first such column).

    Each coordinate of the step points is monotone in k, even rounded, so
    when the first and the last step points are inside, all are.
    """
    box = spec.box
    if box is None:
        return
    n, h = _steps(spec, t)
    d = x.shape[0]
    x, v = x.reshape(d, -1), v.reshape(d, -1)
    if not _outside(box, x + np.array([h, n * h])[:, None, None] * v).any():
        return
    P = x + (np.arange(1, n + 1) * h)[:, None, None] * v      # (n, d, N)
    outside = _outside(box, P)                                # (n, N)
    k = int(np.argmax(outside.any(axis=1)))
    raise BoxExitError((k + 1) * h, P[k, :, int(np.argmax(outside[k]))])


def integrate_flow(spec: FlowSpec, p0, t: float) -> np.ndarray:
    """Solve x' = V(x), x(0) = p0 up to time t."""
    x = np.asarray(p0, dtype=float).copy()
    if t == 0.0:
        return x
    gen = spec.generator
    if _straight(gen):
        v = gen.value(x)
        _check_line(spec, x, v, t)
        return x + t * v
    V = gen.value
    n, h = _steps(spec, t)
    for k in range(n):
        k1 = V(x)
        k2 = V(x + 0.5 * h * k1)
        k3 = V(x + 0.5 * h * k2)
        k4 = V(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_box(spec, (k + 1) * h, x)
    return x


def integrate_with_transport(spec: FlowSpec, p0, t: float, W0) -> tuple:
    """Co-integrate the trajectory and the variational equation applied to W0.

    A single start is p0 of shape (d,) with W0 of shape (d, m); returns
    (x(t), W(t)) with W' = DV(x) W.  A block of N starts is p0 of shape
    (d, N), one start per column, with W0 of shape (N, d, m); it returns x
    as (d, N) and W as (N, d, m), stepped by the batch evaluators with the
    same step count and step as a single start.  Column n is the
    single-start result for (p0[:, n], W0[n]) bit for bit when the field's
    expressions are sums, products and quotients; integer powers and exp
    run through numpy's array kernels, which may round differently from
    the scalar ones in the last place.  A block's BoxExitError names the
    first start, in start order, among those outside the box at the
    earliest step that leaves it.  The generator must be symbolic: only
    `CompiledField` has a jacobian.  A straight generator gives
    (x + tV(x), W + t DV(x) W) with the same box check; its products are
    elementwise sums, which round alike for a (d, d) jacobian and an
    (N, d, d) stack, where a stacked matmul would not.
    """
    x = np.asarray(p0, dtype=float).copy()
    W = np.asarray(W0, dtype=float).copy()
    if t == 0.0:
        return x, W
    gen = spec.generator
    if x.ndim == 1:
        V, DV = gen.value, gen.jacobian
    else:
        V, DV = gen.batch_value, gen.batch_jacobian
    if _straight(gen):
        v = V(x)
        _check_line(spec, x, v, t)
        D = DV(x)
        DW = (D[..., :, :, None] * W[..., None, :, :]).sum(-2)
        return x + t * v, W + t * DW
    n, h = _steps(spec, t)
    for k in range(n):
        k1 = V(x)
        K1 = DV(x) @ W
        x2 = x + 0.5 * h * k1
        k2 = V(x2)
        K2 = DV(x2) @ (W + 0.5 * h * K1)
        x3 = x + 0.5 * h * k2
        k3 = V(x3)
        K3 = DV(x3) @ (W + 0.5 * h * K2)
        x4 = x + h * k3
        k4 = V(x4)
        K4 = DV(x4) @ (W + h * K3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        W = W + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        _check_box(spec, (k + 1) * h, x)
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
