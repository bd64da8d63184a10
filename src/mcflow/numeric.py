"""Floating-point oracle: trajectories, drift and residual sampling.

Everything here deliberately avoids the exact engine's simplification
machinery: values are evaluated pointwise, so agreement with the symbolic
layer is evidence rather than tautology.  Sampling draws exact rational
grid points from a seeded stream, split per identity name, so verdicts
are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import Point3, RationalFunction
from .calculus import KForm, LogIntegral, VectorField3

DENOMINATOR_FLOOR = 1e-12
SINGULAR_SKIP = 1e-9
ZERO_TOLERANCE = 1e-12
DEFAULT_BOX = (-3.0, 3.0)
GRID_DENOMINATOR = 8


class NumericError(Exception):
    """Base class for oracle failures."""


class SingularityAbort(NumericError):
    """Integration stopped near a denominator zero."""

    def __init__(self, last_safe_time: float):
        self.last_safe_time = last_safe_time
        super().__init__(f"trajectory aborted near a singularity; last safe time {last_safe_time}")


class SingularEvaluation(NumericError):
    """A quantity could not be evaluated along a trajectory."""

    def __init__(self, time: float, detail: str):
        self.time = time
        super().__init__(f"singular evaluation at t = {time}: {detail}")


class InconclusiveSample(NumericError):
    """Every drawn point was singular for the residual, or its value
    overflowed or was not finite."""


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[tuple[float, float, float], ...]
    step: float


@dataclass(frozen=True)
class SampleVerdict:
    identity: str
    points_tried: int
    max_abs_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_residual < self.tolerance


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _field_evaluator(field: VectorField3) -> Callable:
    """The field as a float function of the state; None where a denominator
    vanishes or the value overflows or is not finite (a finite-time blow-up
    is treated like a singularity)."""
    components = field.components

    def evaluate(state: tuple[float, float, float]):
        point = Point3.real(*state)
        out = []
        try:
            for comp in components:
                den = comp.den.eval(point)
                if abs(den) < DENOMINATOR_FLOOR or not math.isfinite(den):
                    return None
                out.append(comp.num.eval(point) / den)
        except OverflowError:
            return None
        if not all(map(math.isfinite, state + tuple(out))):
            return None
        return tuple(out)

    return evaluate


def _rk4_step(rhs, state, h: float):
    k1 = rhs(state)
    k2 = rhs(tuple(s + 0.5 * h * d for s, d in zip(state, k1))) if k1 else None
    k3 = rhs(tuple(s + 0.5 * h * d for s, d in zip(state, k2))) if k2 else None
    k4 = rhs(tuple(s + h * d for s, d in zip(state, k3))) if k3 else None
    if k4 is None:
        return None
    return tuple(
        s + h / 6.0 * (a + 2 * b + 2 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def rk4_integrate(
    field: VectorField3, start: Point3, t_end: float, h: float
) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta from t = 0 to t_end.

    The grid is uniform with spacing h; when h does not divide t_end a
    single shorter closing step lands exactly on t_end.
    """
    if h <= 0:
        raise NumericError(f"step size must be positive, got {h}")
    rhs = _field_evaluator(field)
    state = tuple(float(c) for c in start.coords)
    if rhs(state) is None:
        raise SingularityAbort(0.0)
    full_steps = int(math.floor(t_end / h + 1e-9))
    remainder = t_end - full_steps * h
    times = [0.0]
    states = [state]
    for k in range(full_steps):
        state = _rk4_step(rhs, state, h)
        if state is None or rhs(state) is None:
            raise SingularityAbort(k * h)
        times.append((k + 1) * h)
        states.append(state)
    if remainder > 1e-9 * h:
        state = _rk4_step(rhs, state, remainder)
        if state is None or rhs(state) is None:
            raise SingularityAbort(full_steps * h)
        times.append(t_end)
        states.append(state)
    return Trajectory(tuple(times), tuple(states), h)


def conservation_drift(h: LogIntegral, trajectory: Trajectory) -> float:
    """max_t |H(x(t)) - H(x(0))| / max(1, |H(x(0))|)."""
    reference = None
    worst = 0.0
    for t, state in zip(trajectory.times, trajectory.states):
        try:
            value = h.eval_float(Point3.real(*state))
        except Exception as exc:
            raise SingularEvaluation(t, str(exc)) from exc
        if reference is None:
            reference = value
            continue
        worst = max(worst, abs(value - reference))
    return worst / max(1.0, abs(reference))


def convergence_order(
    field: VectorField3, start: Point3, t_end: float, h: float
) -> float:
    """Observed Runge-Kutta order via Richardson comparison at h, h/2, h/4."""
    ends = []
    for step in (h, h / 2, h / 4):
        trajectory = rk4_integrate(field, start, t_end, step)
        ends.append(trajectory.states[-1])
    coarse = math.dist(ends[0], ends[1])
    fine = math.dist(ends[1], ends[2])
    if fine == 0.0:
        raise NumericError("refinement differences vanished; cannot measure order")
    return math.log2(coarse / fine)


# ---------------------------------------------------------------------------
# residual sampling
# ---------------------------------------------------------------------------


def _residual_coefficients(residual) -> tuple[RationalFunction, ...]:
    if isinstance(residual, RationalFunction):
        return (residual,)
    if isinstance(residual, KForm):
        return residual.coeffs
    if isinstance(residual, VectorField3):
        return residual.components
    raise TypeError(f"cannot sample a {type(residual).__name__}")


def derived_seed(base_seed: int, identity: str) -> int:
    return zlib.crc32(f"{base_seed}:{identity}".encode()) & 0xFFFFFFFF


def _grid_stream(rng: random.Random, box: tuple[float, float]):
    lo = math.ceil(box[0] * GRID_DENOMINATOR)
    hi = math.floor(box[1] * GRID_DENOMINATOR)
    while True:
        yield Point3.exact(
            Fraction(rng.randint(lo, hi), GRID_DENOMINATOR),
            Fraction(rng.randint(lo, hi), GRID_DENOMINATOR),
            Fraction(rng.randint(lo, hi), GRID_DENOMINATOR),
        )


def sample_identity(
    residual,
    n: int = 25,
    box: tuple[float, float] = DEFAULT_BOX,
    seed: int = 0,
    name: str = "",
    tolerance: float = ZERO_TOLERANCE,
) -> SampleVerdict:
    """Evaluate residual coefficients at n random non-singular grid points.

    Points are exact rationals drawn uniformly from the (1/8)-grid in the
    box; draws where any denominator is smaller than 1e-9, or where the
    float evaluation overflows or is not finite, are skipped.  The verdict
    passes iff every |value| stays below the tolerance.
    """
    if n < 1:
        raise NumericError(f"need at least one sample point, got {n}")
    coefficients = _residual_coefficients(residual)
    rng = random.Random(derived_seed(seed, name))
    stream = _grid_stream(rng, box)
    evaluated = 0
    worst = 0.0
    attempts = 0
    max_attempts = 40 * n
    while evaluated < n and attempts < max_attempts:
        attempts += 1
        point = next(stream)
        float_point = Point3.real(*(float(c) for c in point.coords))
        skip = False
        values = []
        try:
            for coeff in coefficients:
                den = coeff.den.eval(float_point)
                if abs(den) < SINGULAR_SKIP or not math.isfinite(den):
                    skip = True
                    break
                values.append(coeff.num.eval(float_point) / den)
        except OverflowError:
            continue
        if skip or not all(map(math.isfinite, values)):
            continue
        evaluated += 1
        for value in values:
            worst = max(worst, abs(value))
    if evaluated == 0:
        raise InconclusiveSample(
            f"all {attempts} draws were singular or not finite for identity "
            f"{name or '<unnamed>'}"
        )
    return SampleVerdict(name, evaluated, worst, tolerance)


def sample_agreement(
    lhs,
    rhs,
    n: int = 25,
    box: tuple[float, float] = DEFAULT_BOX,
    seed: int = 0,
    name: str = "",
    tolerance: float = ZERO_TOLERANCE,
) -> SampleVerdict:
    """Pointwise exact evaluation of both sides; magnitudes of differences.

    Both objects are evaluated with Fraction arithmetic at exact grid
    points and subtracted as values, which checks agreement of the two
    data structures without going through symbolic cancellation.
    """
    left = _residual_coefficients(lhs)
    right = _residual_coefficients(rhs)
    if len(left) != len(right):
        raise TypeError("cannot compare objects with different component counts")
    rng = random.Random(derived_seed(seed, name))
    stream = _grid_stream(rng, box)
    evaluated = 0
    worst = 0.0
    attempts = 0
    max_attempts = 40 * n
    while evaluated < n and attempts < max_attempts:
        attempts += 1
        point = next(stream)
        try:
            diffs = [
                float(a.eval(point) - b.eval(point)) for a, b in zip(left, right)
            ]
        except Exception:
            continue
        evaluated += 1
        for value in diffs:
            worst = max(worst, abs(value))
    if evaluated == 0:
        raise InconclusiveSample(f"all {attempts} draws were singular for {name!r}")
    return SampleVerdict(name, evaluated, worst, tolerance)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _eval_rf(f: RationalFunction, coords: Sequence[float]) -> float:
    point = Point3.real(*coords)
    den = f.den.eval(point)
    if abs(den) < DENOMINATOR_FLOOR:
        raise SingularEvaluation(0.0, f"denominator {f.den} vanishes at {point}")
    return f.num.eval(point) / den


def _central_difference(f: RationalFunction, coords, axis: int, h: float) -> float:
    forward = list(coords)
    backward = list(coords)
    forward[axis] += h
    backward[axis] -= h
    return (_eval_rf(f, forward) - _eval_rf(f, backward)) / (2 * h)


def finite_difference_check(kind: str, obj, point: Point3, h: float) -> float:
    """Max |symbolic - central difference| for grad/curl/div/d at a point."""
    coords = tuple(float(c) for c in point.coords)
    if kind == "grad":
        from .calculus import grad as grad_op

        symbolic = [
            _eval_rf(c, coords) for c in grad_op(obj).components
        ]
        numeric = [_central_difference(obj, coords, axis, h) for axis in range(3)]
    elif kind == "curl":
        from .calculus import curl as curl_op

        fx, fy, fz = obj.components
        symbolic = [_eval_rf(c, coords) for c in curl_op(obj).components]
        numeric = [
            _central_difference(fz, coords, 1, h) - _central_difference(fy, coords, 2, h),
            _central_difference(fx, coords, 2, h) - _central_difference(fz, coords, 0, h),
            _central_difference(fy, coords, 0, h) - _central_difference(fx, coords, 1, h),
        ]
    elif kind == "div":
        from .calculus import div as div_op

        symbolic = [_eval_rf(div_op(obj), coords)]
        numeric = [
            sum(_central_difference(c, coords, axis, h)
                for axis, c in enumerate(obj.components))
        ]
    elif kind == "d":
        return _finite_difference_form(obj, coords, h)
    else:
        raise NumericError(f"unknown finite-difference kind {kind!r}")
    return max(abs(s - n) for s, n in zip(symbolic, numeric))


def _finite_difference_form(form: KForm, coords, h: float) -> float:
    from .calculus import curl as curl_op, div as div_op, grad as grad_op

    if form.grade == 0:
        symbolic = [_eval_rf(c, coords) for c in form.d().coeffs]
        numeric = [_central_difference(form.coeffs[0], coords, axis, h) for axis in range(3)]
    elif form.grade == 1:
        fx, fy, fz = form.coeffs
        symbolic = [_eval_rf(c, coords) for c in form.d().coeffs]
        numeric = [
            _central_difference(fz, coords, 1, h) - _central_difference(fy, coords, 2, h),
            _central_difference(fx, coords, 2, h) - _central_difference(fz, coords, 0, h),
            _central_difference(fy, coords, 0, h) - _central_difference(fx, coords, 1, h),
        ]
    elif form.grade == 2:
        symbolic = [_eval_rf(form.d().coeffs[0], coords)]
        numeric = [
            sum(_central_difference(c, coords, axis, h)
                for axis, c in enumerate(form.coeffs))
        ]
    else:
        raise NumericError("no exterior derivative of a 3-form")
    return max(abs(s - n) for s, n in zip(symbolic, numeric))
