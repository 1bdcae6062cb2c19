"""Reference loops for ``quantum``: the serial value, step and ascent.

``CompiledReference`` holds one record per term (coefficient, base, the
(angle key, exponent bit) factors in party order, expectation) and
evaluates the expression term by term in Python floats.  ``step`` makes
one full ``value`` call per candidate angle and keeps the first maximum;
``optimize_angles_reference`` runs the starts one after another (start 0 at
pi/4, the rest drawn from the Philox stream start by start, key by key).
This is the code that ``quantum.CompiledExpression``'s arrays replace: the
batched ascent must reach the same best value, angles and sweep count, and
each start's value within 1e-12.

``step`` and ``gradient`` are one-row calls on a ``CompiledExpression``'s
own arrays: ``step`` runs its batched closed-form step on one row, and
``gradient`` is the analytic derivative of its value, which the tests hold
against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from netbell import states
from netbell.quantum import ANGLE_MARGIN, CompiledExpression, OptimizeResult
from netbell.scenario import QUARTER_PI, InequalityExpr
from netbell.states import State
from scenario_oracle import (
    SingleQubitObservable,
    n_single,
    observables_for,
    segmented_operator,
)


def step(compiled: CompiledExpression, key: tuple[str, str],
         angles: Mapping[tuple[str, str], float]) -> tuple[float, float]:
    """Best (theta, value) along one angle with every other angle fixed.

    The closed form of ``CompiledExpression._step`` on one row; the value
    returned equals ``compiled.value({**angles, key: theta})`` bit for bit.
    """
    rows = compiled._rows(compiled._row(angles))
    j = compiled.keys.index(key)
    compiled._step(rows, j)
    return float(rows.theta[0, j]), float(rows.value[0])


def gradient(compiled: CompiledExpression,
             angles: Mapping[tuple[str, str], float]) -> dict[tuple[str, str], float]:
    """d(value)/d(theta_key); smooth wherever no correlator sits at 0."""
    theta = compiled._row(angles)[0]
    e = compiled.exps
    f = np.where(e == 1, np.sin(theta), np.cos(theta))
    df = np.where(e == 1, np.cos(theta), -np.sin(theta))
    f[e < 0], df[e < 0] = 1.0, 0.0
    outer = compiled.coefficient * compiled.expr.power_slope(
        compiled.base * f.prod(axis=1) * compiled.expectation)
    grad = {}
    for j, key in enumerate(compiled.keys):
        g = f.copy()
        g[:, j] = df[:, j]
        grad[key] = float(np.sum(
            outer * compiled.base * g.prod(axis=1) * compiled.expectation))
    return grad


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
class CompiledReference:
    """Expression with per-term expectations frozen against one state."""

    expr: InequalityExpr
    terms: tuple[_CompiledTerm, ...]

    def value(self, angles: Mapping[tuple[str, str], float]) -> float:
        total = 0.0
        for t in self.terms:
            v = t.base * _trig_product(t.trig, angles) * t.expectation
            total += t.coefficient * self.expr.power(v)
        return total

    def step(self, key: tuple[str, str],
             angles: Mapping[tuple[str, str], float]) -> tuple[float, float]:
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


def compile_reference(expr: InequalityExpr, state: State) -> CompiledReference:
    compiled = []
    observables = {f: observables_for(expr, f) for f in expr.families()}
    for t in expr.terms:
        obs_map = observables[t.family]
        corr = t.correlator
        trig = []
        for party, e in corr.exponents:
            obs = obs_map[party]
            assert isinstance(obs, SingleQubitObservable)
            trig.append(((party, obs.plane), e))
        _, w = segmented_operator(corr, obs_map, expr.topology.n_qubits)
        base = float(corr.normalization * (1 << n_single(corr)))
        compiled.append(_CompiledTerm(
            t.coefficient, base, tuple(trig), states.expectation(state, w)))
    return CompiledReference(expr, tuple(compiled))


def _ascend(compiled: CompiledReference, start: dict,
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


def optimize_angles_reference(expr: InequalityExpr, state: State,
                              starts: int = 8, seed: int = 11,
                              max_sweeps: int = 60) -> OptimizeResult:
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    compiled = compile_reference(expr, state)
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
