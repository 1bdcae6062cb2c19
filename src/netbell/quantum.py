"""Exact quantum values and measurement-angle optimization.

A segmented operator's Pauli word depends only on the exponent pattern, not
on the angles, so each term's expectation E_t is fixed by the state and the
value as a function of angles is a weighted product of cosines and sines:

    value = sum_t c_t * powr( base_t * prod_j trig(theta_{k_j}, e_j) * E_t )

with powr the identity, a sign-preserving odd power, or |.|^r.

``compile_expression`` joins two parts.  The expression's
``input_index``, the term table its builder wrote, holds every term's
Pauli word as letter codes per qubit, its trig pattern, base and
coefficient.  ``states.word_expectations`` then reads
E_t for all terms from the state: per block of qubits that the state's
generators connect, it looks up each distinct restricted word once and
multiplies the blocks' +-1/0 factors per term, so no Pauli word is built
per term.  The arrays
run over the T terms and the J angle keys (sorted, so column order is the
party order of every term's factors): ``exps[t, j]`` is -1 where term t
has no factor of angle j, 0 for cos and 1 for sin, and ``coefficient``,
``base`` and ``expectation`` are per-term vectors.

``values`` maps an (S, J) array of angle rows to S values.  Each row is
worked out as the serial loop would: the factors of a term multiply in
column order, a term whose present angles all equal pi/4 takes the exact
2^(-s/2) instead (so power-of-two values come out exact), base * product
* expectation multiply in that order, and the terms add in term order
(``np.cumsum``, not the pairwise ``np.sum``).  ``value`` is a one-row
call on the same arrays.

The optimizer keeps one row per start and steps one angle of every live row
at once.  A step scores its candidate angles (current, pi/4, the two
margins, the interior stationary point) by a closed form in A, B and C
sums over the terms, keeps the first maximum (ties keep the current angle,
then pi/4, so a start at pi/4 stays exactly there when nothing beats it),
and recomputes the row's value in full.  A row leaves the batch after a
sweep that gains less than 1e-12.  Starts run in blocks whose trig factor
array (block x T x J x 8 bytes) stays under ``_BLOCK_BYTES``; every block
draws its start points from the one Philox stream, in start order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import states
from .scenario import (QUARTER_PI, AngleMap, InequalityExpr, ordered_sum,
                       resolve_angles)
from .states import State

ANGLE_MARGIN = 1e-3  # keep searches inside the open quadrant
MAX_SWEEPS = 60  # coordinate-ascent sweeps per start, at most
_BLOCK_BYTES = 1 << 24  # factor array (starts x terms x angles floats) per block


@dataclass(eq=False)
class _Rows:
    """Angle rows with their factors, per-term sums and values.

    ``factors[j]`` is the (S, T) trig factor of angle j (1.0 where a term
    lacks it); ``off_quarter[s, t]`` counts term t's present angles in row s
    that differ from pi/4; ``terms`` holds c_t * powr(...) per row and term.
    """

    theta: np.ndarray
    factors: np.ndarray
    off_quarter: np.ndarray
    terms: np.ndarray
    value: np.ndarray

    def take(self, keep: np.ndarray) -> "_Rows":
        return _Rows(self.theta[keep], self.factors[:, keep],
                     self.off_quarter[keep], self.terms[keep], self.value[keep])


@dataclass(frozen=True, eq=False)
class CompiledExpression:
    """Expression with per-term expectations frozen against one state."""

    expr: InequalityExpr
    keys: tuple[tuple[str, str], ...]   # angle keys, one column each
    exps: np.ndarray                    # (T, J) int8: -1 absent, 0 cos, 1 sin
    coefficient: np.ndarray             # (T,) +-1.0
    base: np.ndarray                    # (T,) normalization * 2^s, exact in binary
    expectation: np.ndarray             # (T,)

    @functools.cached_property
    def _quarter(self) -> tuple[np.ndarray, np.ndarray]:
        """2^(-s/2) per term and 2^(-(s-1)/2), its value without one factor."""
        n = (self.exps >= 0).sum(axis=1).tolist()
        return (np.array([2.0 ** (-s / 2) for s in n]),
                np.array([2.0 ** (-(s - 1) / 2) for s in n]))

    def _row(self, angles: Mapping[tuple[str, str], float]) -> np.ndarray:
        return np.array([[angles[key] for key in self.keys]], dtype=float)

    def _factor(self, j: int, theta: np.ndarray) -> np.ndarray:
        """(S, T) factors of angle j at the per-row angles ``theta``."""
        e = self.exps[:, j]
        f = np.where(e == 1, np.sin(theta)[:, None], np.cos(theta)[:, None])
        f[:, e < 0] = 1.0
        return f

    def _terms(self, factors: np.ndarray, off_quarter: np.ndarray,
               quarter: np.ndarray, skip: int | None = None) -> np.ndarray:
        """c_t * powr(base_t * prod * E_t) per row and term, factor ``skip`` left out."""
        prod = np.ones(factors.shape[1:])
        for j, f in enumerate(factors):
            if j != skip:
                prod *= f  # 1.0 * f is f, and f * 1.0 is f: the serial order
        prod = np.where(off_quarter == 0, quarter, prod)
        return self.coefficient * self.expr.power(self.base * prod * self.expectation)

    def _rows(self, theta: np.ndarray) -> _Rows:
        theta = np.array(theta, dtype=float, ndmin=2)  # a copy: steps write to it
        factors = np.empty((len(self.keys), len(theta), len(self.exps)))
        for j in range(len(self.keys)):
            factors[j] = self._factor(j, theta[:, j])
        off_quarter = (theta != QUARTER_PI).astype(np.int64) @ (self.exps >= 0).T
        terms = self._terms(factors, off_quarter, self._quarter[0])
        return _Rows(theta, factors, off_quarter, terms, ordered_sum(terms))

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Values at each row of an (S, J) angle array, columns in ``keys`` order."""
        return self._rows(theta).value

    def value(self, angles: Mapping[tuple[str, str], float]) -> float:
        return float(self.values(self._row(angles))[0])

    def _step(self, rows: _Rows, j: int) -> None:
        """Best angle j of every row with its other angles fixed, in place.

        A term holding the angle is powr(a cos theta) or powr(a sin theta),
        and powr(a c) = powr(a) c^r for c > 0, so along the open quadrant

            value(theta) = A cos^r theta + B sin^r theta + C

        exactly: A (B) sums the cos (sin) terms holding the angle, each
        without that factor, and C the terms without it.  For A, B > 0 and
        r < 2 its one interior stationary point, tan theta* = (B/A)^(1/(2-r)),
        is the maximum; otherwise the maximum is at a margin endpoint.  The
        candidates (current, pi/4, the two margins, theta*) are scored by
        this closed form and the first maximum wins, so ties keep the current
        angle, then pi/4.  Each row's value is then worked out in full and
        equals ``values`` at its new angles bit for bit.
        """
        e = self.exps[:, j]
        held = e >= 0
        off = rows.theta[:, j] != QUARTER_PI
        rest = self._terms(rows.factors, rows.off_quarter - off[:, None] * held,
                           self._quarter[1], skip=j)
        a = ordered_sum(np.where(e == 0, rest, 0.0))
        b = ordered_sum(np.where(e == 1, rest, 0.0))
        c = ordered_sum(np.where(held, 0.0, rows.terms))
        lo, hi = ANGLE_MARGIN, math.pi / 2 - ANGLE_MARGIN
        cand = np.empty((len(rows.theta), 5))  # theta* defaults to a placeholder
        cand[:, 0], cand[:, 1:] = rows.theta[:, j], (QUARTER_PI, lo, hi, QUARTER_PI)
        r = float(self.expr.exponent)
        interior = (a > 0) & (b > 0) & (r != 2)
        if interior.any():
            p = 1.0 / (2.0 - r)
            # Python floats: numpy's vectorised pow and atan2 can differ in
            # the last bit, and theta* becomes the stored angle
            cand[interior, 4] = [min(hi, max(lo, math.atan2(bb ** p, aa ** p)))
                                 for aa, bb in zip(a[interior].tolist(),
                                                   b[interior].tolist())]
        cos, sin = np.cos(cand), np.sin(cand)
        if r != 1:
            cos, sin = cos ** r, sin ** r
        score = a[:, None] * cos + b[:, None] * sin + c[:, None]
        score[~interior, 4] = -np.inf
        new = cand[np.arange(len(cand)), np.argmax(score, axis=1)]
        rows.theta[:, j] = new
        rows.factors[j] = self._factor(j, new)
        rows.off_quarter += ((new != QUARTER_PI).astype(np.int64) - off)[:, None] * held
        rows.terms = self._terms(rows.factors, rows.off_quarter, self._quarter[0])
        rows.value = ordered_sum(rows.terms)

    def _coordinate_ascent(self, theta: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate ascent from every row of ``theta`` at once.

        A sweep steps each angle in key order.  A row stops after the first
        sweep that improves its value by less than 1e-12 at every step, or
        after ``MAX_SWEEPS``.  Returns the final values, angles and sweep
        counts per row.
        """
        rows = self._rows(theta)
        value, theta = rows.value.copy(), rows.theta.copy()
        sweeps = np.zeros(len(theta), dtype=np.int64)
        live = np.arange(len(theta))
        for sweep in range(1, MAX_SWEEPS + 1):
            improved = np.zeros(len(live))
            for j in range(len(self.keys)):
                before = rows.value
                self._step(rows, j)
                improved = np.fmax(improved, rows.value - before)
            value[live], theta[live], sweeps[live] = rows.value, rows.theta, sweep
            moving = ~(improved < 1e-12)
            if not moving.any():
                break
            live, rows = live[moving], rows.take(moving)
        return value, theta, sweeps


def compile_expression(expr: InequalityExpr, state: State) -> CompiledExpression:
    index = expr.input_index
    expectation = states.word_expectations(state, index.letters)
    return CompiledExpression(expr, index.keys, index.exps, index.coefficient,
                              index.base, expectation)


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


def optimize_angles(expr: InequalityExpr, state: State,
                    starts: int = 8, seed: int = 11) -> OptimizeResult:
    """Multi-start coordinate ascent with an exact step per angle.

    Start 0 is the symmetric all-pi/4 point; the rest are seeded uniform
    draws, start by start and key by key from one Philox stream.  The starts
    ascend together in blocks (``CompiledExpression._coordinate_ascent``).
    Ties resolve to the earliest start, so results are deterministic for a
    given seed.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    compiled = compile_expression(expr, state)
    keys = compiled.keys
    if not keys:
        v = compiled.value({})
        return OptimizeResult(v, {}, (v,), 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = ANGLE_MARGIN, math.pi / 2 - ANGLE_MARGIN
    block = max(1, _BLOCK_BYTES // (8 * compiled.exps.size))
    values, angles, sweeps = [], [], []
    for first in range(0, starts, block):
        n = min(block, starts - first)
        points = np.full((n, len(keys)), QUARTER_PI)
        drawn = 1 if first == 0 else 0
        points[drawn:] = rng.uniform(lo, hi, size=(n - drawn, len(keys)))
        v, theta, sw = compiled._coordinate_ascent(points)
        values += v.tolist()
        angles += theta.tolist()
        sweeps += sw.tolist()
    best = max(range(starts), key=values.__getitem__)  # first of the maxima
    return OptimizeResult(values[best], dict(zip(keys, angles[best])),
                          tuple(values), sweeps[best])


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
