"""Exact quantum values and measurement-angle optimization.

A segmented operator's Pauli word depends only on the exponent pattern, not
on the angles, so expectations are computed once per term and the value as a
function of angles is a weighted product of cosines and sines:

    value = sum_t c_t * powr( base_t * prod_j trig(theta_{k_j}, e_j) * E_t )

with powr the identity, a sign-preserving odd power, or |.|^r.  When every
angle equals pi/4 the trig product is evaluated as 2^(-s/2) so power-of-two
values come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import states
from .scenario import (QUARTER_PI, AngleMap, InequalityExpr,
                       SingleQubitObservable, resolve_angles,
                       segmented_operator)
from .states import State

ANGLE_MARGIN = 1e-3  # keep searches inside the open quadrant


@dataclass(frozen=True)
class _CompiledTerm:
    coefficient: int
    base: float                      # normalization * 2^s, exact in binary
    trig: tuple[tuple[tuple[str, str], int], ...]  # (angle key, exponent bit)
    expectation: float


def _trig_product(trig, angles: Mapping[tuple[str, str], float]) -> float:
    """prod_j trig(theta_j, e_j), exactly 2^(-s/2) when every angle is pi/4."""
    if all(angles[k] == QUARTER_PI for k, _ in trig):
        return 2.0 ** (-len(trig) / 2)
    prod = 1.0
    for key, e in trig:
        theta = angles[key]
        prod *= math.sin(theta) if e else math.cos(theta)
    return prod


@dataclass(frozen=True)
class CompiledExpression:
    """Expression with per-term expectations frozen against one state."""

    expr: InequalityExpr
    terms: tuple[_CompiledTerm, ...]

    def value(self, angles: Mapping[tuple[str, str], float]) -> float:
        total = 0.0
        for t in self.terms:
            v = t.base * _trig_product(t.trig, angles) * t.expectation
            total += t.coefficient * self.expr.power(v)
        return total

    def gradient(self, angles: Mapping[tuple[str, str], float]) -> dict[tuple[str, str], float]:
        """d(value)/d(theta_key); smooth wherever no correlator sits at 0."""
        grad = {key: 0.0 for key in self.expr.angle_keys()}
        for t in self.terms:
            factors = []
            for key, e in t.trig:
                theta = angles[key]
                f = math.sin(theta) if e else math.cos(theta)
                df = math.cos(theta) if e else -math.sin(theta)
                factors.append((key, f, df))
            prod = 1.0
            for _, f, _ in factors:
                prod *= f
            outer = self.expr.power_slope(t.base * prod * t.expectation)
            for i, (key, f, df) in enumerate(factors):
                rest = t.base * t.expectation
                for j, (_, fj, _) in enumerate(factors):
                    rest *= df if j == i else fj
                grad[key] += t.coefficient * outer * rest
        return grad

    def step(self, key: tuple[str, str],
             angles: Mapping[tuple[str, str], float]) -> tuple[float, float]:
        """Best (theta, value) along one angle with every other angle fixed.

        A term holding the angle is powr(a cos theta) or powr(a sin theta),
        and powr(a c) = powr(a) c^r for c > 0, so along the open quadrant

            value(theta) = A cos^r theta + B sin^r theta + C

        exactly.  For A, B > 0 and r < 2 its one interior stationary point,
        tan theta* = (B/A)^(1/(2-r)), is the maximum; otherwise the maximum
        is at a margin endpoint.  Ties keep the current angle, then pi/4.
        """
        sums = [0.0, 0.0]  # A from the cos terms, B from the sin terms
        for t in self.terms:
            for i, (k, e) in enumerate(t.trig):
                if k == key:
                    rest = t.trig[:i] + t.trig[i + 1:]
                    sums[e] += t.coefficient * self.expr.power(
                        t.base * _trig_product(rest, angles) * t.expectation)
        a, b = sums
        lo, hi = ANGLE_MARGIN, math.pi / 2 - ANGLE_MARGIN
        candidates = [angles[key], QUARTER_PI, lo, hi]
        r = float(self.expr.exponent)
        if a > 0 and b > 0 and r != 2:
            p = 1.0 / (2.0 - r)
            candidates.append(min(hi, max(lo, math.atan2(b ** p, a ** p))))
        values = [self.value({**angles, key: theta}) for theta in candidates]
        i = values.index(max(values))
        return candidates[i], values[i]


def compile_expression(expr: InequalityExpr, state: State) -> CompiledExpression:
    compiled = []
    for t in expr.terms:
        obs_map = expr.observables_for(t.family)
        corr = t.correlator
        trig = []
        for party, e in corr.exponents:
            obs = obs_map[party]
            assert isinstance(obs, SingleQubitObservable)
            trig.append(((party, obs.plane), e))
        _, w = segmented_operator(corr, obs_map, expr.topology.n_qubits)
        base = float(corr.normalization * (1 << corr.n_single))
        compiled.append(_CompiledTerm(
            t.coefficient, base, tuple(trig), states.expectation(state, w)))
    return CompiledExpression(expr, tuple(compiled))


def evaluate(expr: InequalityExpr, state: State,
             angles: AngleMap | None = None) -> float:
    """Expression value on a state at given angles (default all pi/4)."""
    resolved = resolve_angles(expr, angles)
    return compile_expression(expr, state).value(resolved)


# -- angle optimization ---------------------------------------------------------


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    angles: dict[tuple[str, str], float]
    start_values: tuple[float, ...]
    sweeps: int


def _ascend(compiled: CompiledExpression, start: dict,
            max_sweeps: int) -> tuple[float, dict, int]:
    angles = dict(start)
    value = compiled.value(angles)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        improved = 0.0
        for key in start:
            angles[key], val = compiled.step(key, angles)
            improved = max(improved, val - value)
            value = val
        if improved < 1e-12:
            break
    return value, angles, sweeps


def optimize_angles(expr: InequalityExpr, state: State,
                    starts: int = 8, seed: int = 11,
                    max_sweeps: int = 60) -> OptimizeResult:
    """Multi-start coordinate ascent with an exact step per angle.

    Start 0 is the symmetric all-pi/4 point; the rest are seeded uniform
    draws.  Ties resolve to the earliest start, so results are deterministic
    for a given seed.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    compiled = compile_expression(expr, state)
    keys = expr.angle_keys()
    if not keys:
        v = compiled.value({})
        return OptimizeResult(v, {}, (v,), 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = ANGLE_MARGIN, math.pi / 2 - ANGLE_MARGIN
    start_points = [{k: QUARTER_PI for k in keys}]
    for _ in range(starts - 1):
        start_points.append(
            {k: float(rng.uniform(lo, hi)) for k in keys})
    results = [_ascend(compiled, p, max_sweeps) for p in start_points]
    best_value, best_angles, best_sweeps = results[0]
    for value, angles, sweeps in results[1:]:
        if value > best_value:
            best_value, best_angles, best_sweeps = value, angles, sweeps
    return OptimizeResult(best_value, best_angles,
                          tuple(rv for rv, _, _ in results), best_sweeps)


def claimed_max_check(expr: InequalityExpr, state: State | None = None,
                      tolerance: float = 1e-9, **kwargs) -> dict:
    """Optimize and compare against the declared quantum maximum."""
    if state is None:
        state = states.network_state(expr.topology)
    result = optimize_angles(expr, state, **kwargs)
    gap = result.value - expr.claimed_quantum_max
    return {
        "inequality": expr.name,
        "claimed_max": expr.claimed_quantum_max,
        "optimized_value": result.value,
        "gap": gap,
        "achieved": abs(gap) <= tolerance,
        "angles": {f"{party}:{plane}": theta
                   for (party, plane), theta in result.angles.items()},
        "start_values": list(result.start_values),
    }

