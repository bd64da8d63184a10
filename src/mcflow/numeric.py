"""Floating-point oracle: trajectories, drift and residual sampling.

`sample_identity` evaluates a residual's coefficients in floating point at
points of the 1/8-grid in the box, drawn from a seeded stream split per
identity name, so verdicts are reproducible byte for byte.  `verify` and
`sample` call it only for a check whose residual is not exactly zero.  A
holding check keeps the canonical zero, 0 over 1, as its residual, which
is 0.0 at every point, so the cli derives that row without drawing: it
re-reads the exact verdict rather than testing it independently.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Callable

from . import GRID_DENOMINATOR
from .algebra import RationalFunction, SingularPointError
from .calculus import KForm, LogIntegral, VectorField3

DENOMINATOR_FLOOR = 1e-12
SINGULAR_SKIP = 1e-9


class NumericError(SingularPointError):
    """Base class for oracle failures: the input is singular where the
    oracle evaluates it."""


class SingularityAbort(NumericError):
    """Integration stopped near a denominator zero."""

    def __init__(self, last_safe_time: float):
        super().__init__(f"trajectory aborted near a singularity; last safe time {last_safe_time}")


class SingularEvaluation(NumericError):
    """A quantity could not be evaluated along a trajectory."""

    def __init__(self, time: float, detail: str):
        super().__init__(f"singular evaluation at t = {time}: {detail}")


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _finite_values(coefficients, point: tuple, floor: float):
    """Float values of the coefficients at the point (x, y, z); None where a
    denominator is below the floor in magnitude or is not finite, or where
    a value overflows or is not finite."""
    values = []
    try:
        for coeff in coefficients:
            den = coeff.den.eval(point)
            if abs(den) < floor or not math.isfinite(den):
                return None
            values.append(coeff.num.eval(point) / den)
    except OverflowError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _field_evaluator(field: VectorField3) -> Callable:
    """The field as a float function of the state; None where a denominator
    vanishes or the value overflows or is not finite (a finite-time blow-up
    is treated like a singularity)."""
    components = field.components

    def evaluate(state: tuple[float, float, float]):
        out = _finite_values(components, state, DENOMINATOR_FLOOR)
        if out is None or not all(map(math.isfinite, state)):
            return None
        return tuple(out)

    return evaluate


def _rk4_step(rhs, state, k1, h: float):
    """One step from state, whose slope k1 = rhs(state) the caller has."""
    k2 = rhs(tuple(s + 0.5 * h * d for s, d in zip(state, k1)))
    k3 = rhs(tuple(s + 0.5 * h * d for s, d in zip(state, k2))) if k2 else None
    k4 = rhs(tuple(s + h * d for s, d in zip(state, k3))) if k3 else None
    if k4 is None:
        return None
    return tuple(
        s + h / 6.0 * (a + 2 * b + 2 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def rk4_integrate(field: VectorField3, start: tuple, t_end: float, h: float) -> tuple:
    """(times, states) of classical fixed-step 4th-order Runge-Kutta from
    the point start at t = 0 to t_end; each state is a float (x, y, z).

    The grid is uniform with spacing h; when h does not divide t_end a
    single shorter closing step lands exactly on t_end.
    """
    if h <= 0:
        raise NumericError(f"step size must be positive, got {h}")
    rhs = _field_evaluator(field)
    state = tuple(float(c) for c in start)
    slope = rhs(state)
    if slope is None:
        raise SingularityAbort(0.0)
    full_steps = int(math.floor(t_end / h + 1e-9))
    remainder = t_end - full_steps * h
    closing = [remainder] if remainder > 1e-9 * h else []
    times = [0.0]
    states = [state]
    for k, step in enumerate([h] * full_steps + closing):
        state = _rk4_step(rhs, state, slope, step)
        # the slope where a step lands is the next step's k1
        slope = rhs(state) if state else None
        if slope is None:
            raise SingularityAbort(times[-1])
        times.append((k + 1) * h if k < full_steps else t_end)
        states.append(state)
    return times, states


def conservation_drift(h: LogIntegral, times, states) -> float:
    """max_t |H(x(t)) - H(x(0))| / max(1, |H(x(0))|) over the states of a
    trajectory and their times."""
    reference = None
    worst = 0.0
    for t, state in zip(times, states):
        try:
            value = h.eval_float(state)
        except Exception as exc:
            raise SingularEvaluation(t, str(exc)) from exc
        if not math.isfinite(value):
            # inf - inf is nan, which max() would pass over
            raise SingularEvaluation(t, f"the value {value} is not finite")
        if reference is None:
            reference = value
            continue
        worst = max(worst, abs(value - reference))
    return worst / max(1.0, abs(reference))


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
    """Numerator triples of uniform draws from the (1/GRID_DENOMINATOR)-grid
    in the box."""
    lo = math.ceil(box[0] * GRID_DENOMINATOR)
    hi = math.floor(box[1] * GRID_DENOMINATOR)
    while True:
        yield rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi)


def sample_identity(
    residual, n: int, box: tuple[float, float], seed: int, name: str
) -> tuple[int, float]:
    """(points evaluated, largest |value|) of the residual coefficients at n
    random non-singular grid points.

    Points are drawn uniformly from the (1/8)-grid in the box, whose
    coordinates are exact as floats; draws where any denominator is smaller
    than 1e-9, or where the float evaluation overflows or is not finite, are
    skipped.  After 40 n draws it stops, so 0 points means that every draw
    was skipped.
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
        point = tuple(k / GRID_DENOMINATOR for k in next(stream))
        values = _finite_values(coefficients, point, SINGULAR_SKIP)
        if values is None:
            continue
        evaluated += 1
        for value in values:
            worst = max(worst, abs(value))
    return evaluated, worst
