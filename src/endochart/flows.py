"""Numeric ODE flows of vector fields and frame transport along them.

Flows use fixed-step RK4: determinism and simple error budgeting matter
more than speed at these dimensions.

A symbolic generator V (`CompiledField`) has one rule for every start: a
frame W is transported by RK4 of the state Y = (x, W) with right-hand side
(V(x), DV(x) W), the variational equation co-integrated with the
trajectory (Hairer, Norsett & Wanner, *Solving ODEs I*, sec. I.14), with
(DV W)_ic summed in j order; a plain flow is m = 0.  A start runs one
generated function on Python floats, the plan step
(`CompiledField.plan_step`, one per frame width, box, integrator step and
time-column layout): the step count, the whole flow on local variables
with every step point box-checked (a NaN coordinate is outside), then,
when the plan carries times, V at the end as a new frame column and the
state in the plan's order.  It runs alone through `_point_flow`, or as
one step of a stage chart's single-point plan
(`charts._StageChart._point_plan`).  So W's columns transport alone, bit
for bit.  A block of chart points runs that plan once per column, so each
column is its single point.

V is *straight* (`CompiledField.straight`, decided once per field by which
variables occur in its components) when its components read only
coordinates x_j with V_j the constant 0: its flow never moves what V
reads, so V is constant along its own trajectory and the flow is exactly
Y + tF(Y) with F the same right-hand side (DV^2 = 0).  Straight flows take
that closed form instead of RK4 steps; the box check still tests the RK4
step points x + k h V(x) (Groebner, *Die Lie-Reihen*, 1960: the Lie series
of x terminates after its linear term): the first and the last inline,
and all of them (`_check_line`) only when one of those is outside.
In flag-adapted coordinates most stage-0 generators A^p d/ds are straight,
and a field conjugate to a constant Jordan matrix has constant ones, whose
flows are translations: they take the same generated step.

Any other flow's RK4 loop holds still what the flow does not move
(loop-invariant code motion; Aho, Lam, Sethi & Ullman, *Compilers*, 2nd
ed., sec. 9.5).  An entry whose right-hand side is the constant 0 keeps
its value up to the sign of a zero: stage 1 of step 1 reads the start
value y, and every later stage reads y + (h/2) 0, y + h 0 or the step's
end, each equal to y + h 0 (a zero's sign is h's, and adding a zero
changes only a zero).  So stage 1 of step 1 runs before the loop, and
each subexpression that reads only such entries is computed there twice,
at y and at y + h 0, and not in the loop; answers are the same bit for
bit.

Derivatives in the chart construction come from one place per kind of
field, each with its own step:

- symbolic generators transport frames by the variational equation, as
  above;
- computed generators A^p Z^(r) have no jacobian.  When the flows of the
  parent chart Phi_P (stage r-1) are all symbolic, theirs run in P's
  coordinates y = (t, s): Z^(r) at Phi_P(y) is a section column of
  DPhi_P(y), which P's single-point plan gives by its variational
  transports (`charts._StageChart.differential`), so a flow step inverts
  nothing.  Such a flow runs its own RK4 loop on a list of Python floats,
  with `_rk4_step`'s arithmetic per entry, one plan run and one LAPACK
  solve per stage, and box-checks the ambient point Phi_P(y) at each step
  end (`charts._Pullback`).  A parent with computed flows (n >= 4) would
  need central differences of those for every RK4 stage, so there the
  flow steps numpy arrays on the generator's `value` in the ambient
  space, which inverts P.  Frames are carried along computed flows by
  central differences of flow maps with step `charts.H_TRANSPORT`, one
  start at a time (`charts._StageChart._transport_computed`).  A flow in
  P's coordinates takes them there, as the brackets below do: its start
  y0 is shifted by +-h DPhi_P(y0)^-1 u for each frame column u, so no
  shifted start inverts P; an ambient flow shifts its start in the
  ambient space;
- Lie brackets follow one rule (`charts._bracket`) and are evaluated as
  blocks over a sample set: the exact tree, compiled for blocks, when both
  fields are symbolic; else in the coordinates y of the stage chart the
  samples are chart points of, as DPhi (D_X Y - D_Y X) with the fields
  pulled back by solves with DPhi and directional derivatives by central
  differences in y with step `charts.H_BRACKET`, so no bracket inverts a
  chart.  `numeric_bracket` (central differences of ambient fields) stays
  as the reference a test holds that rule to;
- the chart differential DPhi at one chart point, or at each column of a
  block of them, is `charts._StageChart.forward_differential`, the one
  path that the stage checks, the frame brackets and the verification
  grid read frames from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .expr import (_NAMESPACE, Box, Const, Var, _define, _emit, add,
                   compile_batch, compile_vector, mul, variables)
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


class CompiledField:
    """Symbolic vector field V, compiled as the right-hand side of the flow
    of Y = (x, W) for a frame W of width m:

        Y' = (V(x), K),  K_ic = sum_j d_jV_i(x) W_jc, summed in j order.

    Y is flat: x, then W row by row.  Each width is compiled on first use:
    on Python floats (`rhs`), and as the whole flow of a plan step for a
    box, an integrator step and a time-column layout (`plan_step`); flows
    take no other path.  The width 0 is V alone, which `batch_value` also
    evaluates at sample sets.
    """

    def __init__(self, field: VectorField):
        self.field = field
        self.dim = field.dim
        self._point: dict[int, object] = {}
        self._plan_steps: dict[tuple, object] = {}

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

    def rhs(self, m: int):
        """`f(Y) -> list[float]`, the right-hand side at a flat state Y of
        width m (a list of Python floats, or an array)."""
        f = self._point.get(m)
        if f is None:
            f = self._point[m] = compile_vector(self._trees(m))
        return f

    def plan_step(self, m: int, box: Box | None, step: float,
                  layout: tuple | None = None):
        """`f(Y, t) -> list`: the flow of the flat state Y of width m (a list
        of Python floats) after time t, with `_steps`'s step count for the
        integrator step `step`, and with a box BoxExitError at the first
        step point outside it (`_compile_step`).  With a layout, V at the
        end joins the state, which is returned as
        `[(Y + V)[k] for k in layout]`."""
        key = (m, box, step, layout)
        f = self._plan_steps.get(key)
        if f is None:
            f = self._plan_steps[key] = _compile_step(
                self._trees(m), self.straight, box, step, layout)
        return f

    @cached_property
    def _jacobian(self) -> list:
        """V's Jacobian trees, d_jV_i as [i][j], differentiated once."""
        return self.field.jacobian_exprs()

    def _trees(self, m: int) -> list:
        """V's components, then K_ic for i, c in order."""
        trees = list(self.field.components)
        if m == 0:
            return trees
        d = self.dim
        for row in self._jacobian:
            trees += [add(*[mul(e, Var(d + 1 + j * m + c))
                            for j, e in enumerate(row)]) for c in range(m)]
        return trees

    def value(self, p) -> np.ndarray:
        return np.array(self.rhs(0)(p))

    @cached_property
    def batch_value(self):
        """`f(x) -> (d, N)` values at the columns of a (d, N) point array,
        compiled on first use."""
        return compile_batch(self.field.components)

    def __call__(self, p) -> np.ndarray:
        return self.value(p)


def _kept(memo: dict, key, make, size: int):
    """memo[key], else make() kept there; past size entries the oldest is
    dropped.  Callers only read what it returns: the arrays are shared."""
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = make()
        if len(memo) > size:
            del memo[next(iter(memo))]
    return hit


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
        return _kept(self._cache, np.asarray(p, dtype=float).tobytes(),
                     lambda: np.asarray(self.fn(p), dtype=float), self.MEMO)

    def cache_size(self) -> int:
        return len(self._cache)

    def __call__(self, p) -> np.ndarray:
        return self.value(p)


@dataclass
class FlowSpec:
    """A flow problem: generator, integrator configuration and trust box."""

    generator: object            # VectorField, or a computed field
    settings: IntegratorSettings = IntegratorSettings()
    box: Box | None = None       # working box; trajectories must stay inside

    def __post_init__(self):
        if isinstance(self.generator, VectorField):
            self.generator = CompiledField(self.generator)


def _steps(spec: FlowSpec, t: float) -> tuple[int, float]:
    """RK4 step count and step for flow time t."""
    n = max(1, math.ceil(abs(t) / spec.settings.step))
    return n, t / n


def _check_line(box: Box, x: list, v: list, n: int, h: float):
    """The slow path of the box check of RK4 on the straight flow x + sV(x)
    with n steps of size h, taken when its first or last step point is
    outside: BoxExitError at the first step k whose step point x + (k h) v
    is outside the box, x and v lists of Python floats that start with the
    point and V there (a frame's entries may follow, and are not read)."""
    d = box.dim
    for k in range(1, n + 1):
        p = [a + (k * h) * b for a, b in zip(x[:d], v[:d])]
        if not box.contains(p):
            raise BoxExitError(k * h, p)


def _inside_line(box: Box, slopes: list) -> str:
    """Source of the test that the first and the last RK4 step points
    y + h v and y + (n h) v of a straight flow, v the slopes, are in the
    box, coordinate by coordinate as `Box.contains` tests them: each
    coordinate of the step points is monotone in k, even rounded, so then
    all are.  A coordinate of slope 0 tests |y - mid| once: y plus a zero
    differs from y only in a zero's sign, which the difference's abs drops."""
    return " and ".join(
        f"abs(y{i} - {c!r}) <= {r!r}" if b in ("0.0", "-0.0") else
        f"abs(y{i} + h * {b} - {c!r}) <= {r!r} and "
        f"abs(y{i} + (n * h) * {b} - {c!r}) <= {r!r}"
        for i, (b, c, r) in enumerate(zip(slopes, *box.mid_half)))


def _compile_step(exprs, straight: bool, box: Box | None, step: float,
                  layout: tuple | None = None):
    """The plan step `f(y, t) -> list` of the flow of y' = F(y), F the trees
    exprs over the entries of a flat state y (a list of Python floats), on
    local variables: n = max(1, ceil(|t| / step)) steps of h = t/n, none at
    t = 0.  With a layout, the state and after it the first
    len(layout) - len(y) trees at the end (V there, for `_trees`) are
    returned in the layout's order.

    A straight flow is y + tF(y); its first and last step points are tested
    inline, and `_check_line` finds the exit when one is outside.  Any other
    flow runs RK4 with the arithmetic of `_rk4_step` per entry: stages
    a + (h/2) b, a + h b, then a + (h/6) (b1 + 2 b2 + 2 b3 + b4), the box
    tested after each step by |v - mid| <= half, which a NaN fails, and
    BoxExitError(k h, point) at the first step k outside.

    The RK4 loop holds still the entries whose tree is the constant 0, as
    the module docstring says (`_rk4_lines`).  Trees that are all constant
    are straight: their step is y + tF with the constants' sources inline.
    """
    exprs = tuple(exprs)
    count = [f"n = max(1, _ceil(abs(t) / {step!r}))", "h = t / n"]
    if straight:
        _, flow, v = _emit(exprs, "y{}")
        slopes = _slopes(exprs, v, "a", flow)
        if box is not None:
            point = ", ".join(f"y{i}" for i in range(box.dim))
            flow += [*count, f"if not ({_inside_line(box, slopes)}):",
                     f"    _line(_box, [{point}], [{', '.join(slopes)}], n, h)"]
        flow += [f"y{i} = y{i} + t * {b}" for i, b in enumerate(slopes)]
    else:
        flow = count + _rk4_lines(exprs, box)
    out = [f"y{i}" for i in range(len(exprs))]
    body = [f"{', '.join(out)}, = y", "if t != 0.0:",
            *("    " + line for line in flow)]
    if layout is not None:
        _, lines, v = _emit(exprs[:len(layout) - len(exprs)], "y{}")
        body += lines
        out = [(out + v)[k] for k in layout]
    body.append(f"return [{', '.join(out)}]")
    return _define(body, {**_NAMESPACE, "_ceil": math.ceil, "_box": box,
                          "_exit": BoxExitError, "_line": _check_line},
                   "y, t")


def _slopes(exprs, values: list, out: str, lines: list) -> list:
    """Each tree's slope: its constant's source, or the local out<i>, whose
    assignment is appended to lines."""
    slopes = []
    for i, (e, v) in enumerate(zip(exprs, values)):
        if type(e) is Const:
            slopes.append(v)
        else:
            slopes.append(f"{out}{i}")
            lines.append(f"{out}{i} = {v}")
    return slopes


def _rk4_lines(exprs: tuple, box: Box | None) -> list:
    """The RK4 steps of `_compile_step` after n and h.  The entries whose
    tree is the constant c = 0 (`fixed`) do not move: stage 1 of step 1
    runs before the loop on their start values y, then they become
    y + h c, which every later stage reads (the module docstring), and the
    subexpressions that read only them are computed at y and at y + h c
    before the loop (`expr._emit`'s hoisted lines), not in it."""
    entries = range(len(exprs))
    read = set().union(*map(variables, exprs))      # 1-based
    fixed = {i for i, e in enumerate(exprs)
             if type(e) is Const and e.value == 0.0}
    moved = [i for i in entries if i not in fixed]
    later = [f"y{i}" if i in fixed else f"z{i}" for i in entries]
    hoisted, lines, v = _emit(exprs, "y{}", fixed)
    first = _slopes(exprs, v, "a", lines)
    peel = any(i + 1 in read for i in fixed)
    pre = ["h2 = 0.5 * h", "h6 = h / 6.0"]
    if peel:
        pre += [*hoisted, *lines]
    pre += [*(f"y{i} = y{i} + h * {exprs[i].value!r}" for i in sorted(fixed)),
            *hoisted]
    step = ["if k:", *("    " + line for line in lines)] if peel else [*lines]
    stages = [first]
    _, body, v = _emit(exprs, later, fixed)     # stages b, c and the last
    for out, scale in [("b", "h2"), ("c", "h2"), (None, "h")]:
        step += [f"z{i} = y{i} + {scale} * {stages[-1][i]}" for i in moved
                 if i + 1 in read]
        step += body
        stages.append(v if out is None else _slopes(exprs, v, out, step))
    step += [f"y{i} = y{i} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {e})"
             for i, (a, b, c, e) in enumerate(zip(*stages)) if i not in fixed]
    if box is not None:
        mid, half = box.mid_half
        inside = " and ".join(f"abs(y{i} - {c!r}) <= {r!r}"
                              for i, (c, r) in enumerate(zip(mid, half)))
        point = ", ".join(f"y{i}" for i in range(box.dim))
        step += [f"if not ({inside}):", f"    raise _exit((k + 1) * h, [{point}])"]
    return [*pre, "for k in range(n):", *("    " + line for line in step)]


def _rk4_step(f, y: np.ndarray, h):
    """One RK4 step of y' = f(y) for an array y."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _point_flow(spec: FlowSpec, y: list, t: float, m: int) -> list:
    """The flow of the state Y = (x, W) of a symbolic generator, W of width
    m, from the flat list y of Python floats after time t: the generator's
    plan step with no time column (`CompiledField.plan_step`), every step
    point box-checked."""
    return spec.generator.plan_step(m, spec.box, spec.settings.step)(y, t)


def integrate_flow(spec: FlowSpec, p0, t: float) -> np.ndarray:
    """Solve x' = V(x), x(0) = p0 up to time t.  A symbolic generator
    takes `_point_flow` with no frame; any other steps numpy arrays on its
    `value`."""
    x = np.asarray(p0, dtype=float).copy()
    if t == 0.0:
        return x
    gen = spec.generator
    if isinstance(gen, CompiledField):
        return np.array(_point_flow(spec, x.tolist(), t, 0))
    n, h = _steps(spec, t)
    for k in range(1, n + 1):
        x = _rk4_step(gen.value, x, h)
        if spec.box is not None and not spec.box.contains(x):
            raise BoxExitError(k * h, x)
    return x


def integrate_with_transport(spec: FlowSpec, p0, t: float, W0) -> tuple:
    """Co-integrate the trajectory from the start p0, shape (d,), and the
    variational equation W' = DV(x) W applied to W0, shape (d, m):
    (x(t), W(t)).  The generator must be symbolic (`CompiledField`): the
    state (x, W) flows as one list of Python floats (`_point_flow`)."""
    x = np.asarray(p0, dtype=float)
    W = np.asarray(W0, dtype=float)
    if t == 0.0:
        return x.copy(), W.copy()
    d, m = W.shape
    y = _point_flow(spec, x.tolist() + W.ravel().tolist(), t, m)
    return np.array(y[:d]), np.array(y[d:]).reshape(d, m)


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
