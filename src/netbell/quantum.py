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

``upper_bound`` proves a maximum over every state and every +-1
observable from the cross-polytope structure (Jordan's lemma): at r = 1 an
exact a + b*sqrt(2), at r < 1 a float.  On a stabilizer group at r = 1,
start 0's value at pi/4 is exact in the same form, since every E_t is 0 or
+-1 and cos pi/4 = sin pi/4 = 2^(-1/2).  When it equals the bound,
``optimize_angles`` returns it without running the ascent; every other case
runs the multi-start ascent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import states
from .scenario import (QUARTER_PI, AngleMap, InequalityExpr,
                       cross_polytope_structure, ordered_sum, resolve_angles)
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

    def _quarter_exact(self) -> tuple[Fraction, Fraction] | None:
        """The value at all angles pi/4 as (a, b), meaning a + b*sqrt(2).

        Valid at r = 1 with every E_t in {0, +-1}, as on a stabilizer group.
        Each of a term's s_t single parties contributes one factor 2^(-1/2)
        and doubles its base, so term t adds c_t * (scale_t / den) *
        2^(s_t/2) * E_t: terms of even s_t add to a and those of odd s_t to
        b, as int64 sums.  None when those sums could overflow.
        """
        index = self.expr.input_index
        s = index.single.sum(axis=1)
        if (int(np.abs(index.scale).max()) << int(s.max()) // 2) * len(s) >= 1 << 63:
            return None
        x = (index.scale << s // 2) * self.expectation.astype(np.int64)
        if self.expr.absolute:
            x = np.abs(x)
        x *= self.coefficient.astype(np.int64)
        odd = s % 2 == 1
        return (Fraction(int(x[~odd].sum()), index.denominator),
                Fraction(int(x[odd].sum()), index.denominator))

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


# -- the proved maximum -----------------------------------------------------------


def upper_bound(expr: InequalityExpr) -> tuple[Fraction, Fraction] | float | None:
    """A maximum of the expression over every state and every +-1 observable:
    (a, b), meaning a + b*sqrt(2), at r = 1; a float at r < 1; None when the
    term table lacks the cross-polytope structure.

    Family f has k single parties, its 2^k terms spell every exponent
    pattern e once, and they share one normalization n_f (scale_f =
    n_f * 2^k).  Its bound is n_f * (2 sqrt 2)^k = scale_f * 2^(k/2), and
    the families' bounds add.

    Proof.  By Jordan's lemma (e.g. Masanes, PRL 97, 050503, 2006) a single
    party's two +-1 observables A_0, A_1 split its space into blocks of
    dimension at most 2 that both preserve; in a block at angle psi,
    ||A_0 + A_1|| = 2|cos psi| and ||A_0 - A_1|| = 2|sin psi|.  Let P_beta
    project onto one tuple beta of blocks, one per single party, and p_beta
    = <P_beta>, so sum_beta p_beta = 1.  Term e's operator O_e = n_f *
    prod_j (A_0^j + (-1)^e_j A_1^j) * B_e, with B_e the joint parties'
    observables (norm <= 1), commutes with every P_beta, so

        sum_e |<O_e>| <= n_f * sum_beta p_beta * sum_e prod_j 2|trig_e_j(psi_j)|
                       = n_f * sum_beta p_beta * prod_j 2(|cos psi_j| + |sin psi_j|)
                      <= n_f * (2 sqrt 2)^k,

    trig_0 = cos and trig_1 = sin: the sum over all 2^k patterns factorises
    because each appears once.  A mixed state averages pure ones.  Norms of
    the whole space would give 4^k instead: A_0 = diag(1, 1) and A_1 =
    diag(1, -1) have ||A_0 + A_1|| + ||A_0 - A_1|| = 4.  At r = 1 a term
    adds c_t <O_t> or c_t |<O_t>|, at most |<O_t>|, so family f adds at most
    its bound.  At r < 1 a term adds at most |<O_t>|^r, and by Hoelder's
    inequality the 2^k terms of family f add at most
    2^(k(1-r)) * (scale_f * 2^(k/2))^r.  Each family's bound uses only its
    own terms, so the bounds add whether or not the families share inputs
    (ghz-a combined shares them all).
    """
    scales = cross_polytope_structure(expr)
    if scales is None:
        return None
    index = expr.input_index
    ks = np.zeros(len(index.families), dtype=np.int64)
    ks[index.family] = index.single.sum(axis=1)  # one k per family
    if expr.exponent == 1:
        ab = [Fraction(0), Fraction(0)]
        for scale, k in zip(scales, ks.tolist()):
            ab[k % 2] += scale * (1 << k // 2)
        return ab[0], ab[1]
    r = float(expr.exponent)
    return float(ordered_sum([2.0 ** (k * (1 - r)) * (float(scale) * 2.0 ** (k / 2)) ** r
                              for scale, k in zip(scales, ks.tolist())]))


def _sign(a: Fraction, b: Fraction) -> int:
    """The sign of a + b*sqrt(2), exactly."""
    if a * b >= 0:
        return (a + b > 0) - (a + b < 0)
    return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)


def _as_float(bound: tuple[Fraction, Fraction] | float) -> float:
    if isinstance(bound, tuple):
        return float(bound[0]) + float(bound[1]) * math.sqrt(2.0)
    return bound


# -- angle optimization ---------------------------------------------------------


@dataclass(frozen=True)
class OptimizeResult:
    """The best start's value and angles, every start's value and the best
    start's sweeps; ``upper`` is ``upper_bound`` as a float when the value is
    proved to meet it exactly, else None."""

    value: float
    angles: dict[tuple[str, str], float]
    start_values: tuple[float, ...]
    sweeps: int
    upper: float | None = None


def optimize_angles(expr: InequalityExpr, state: State,
                    starts: int = 8, seed: int = 11) -> OptimizeResult:
    """Multi-start coordinate ascent with an exact step per angle.

    Start 0 is the symmetric all-pi/4 point; the rest are seeded uniform
    draws, start by start and key by key from one Philox stream.  The starts
    ascend together in blocks (``CompiledExpression._coordinate_ascent``).
    Ties resolve to the earliest start, so results are deterministic for a
    given seed.

    On a stabilizer group at r = 1, start 0's exact value is first compared
    with ``upper_bound``.  When the two are equal, no start can beat it: the
    result is start 0 alone, with ``sweeps`` 0 and ``upper`` set.  A value
    above the bound would refute the proof and raises ``AssertionError``.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    compiled = compile_expression(expr, state)
    keys = compiled.keys
    if not keys:
        v = compiled.value({})
        return OptimizeResult(v, {}, (v,), 0)
    bound = None
    if isinstance(state, states.StabilizerGroup) and expr.exponent == 1:
        bound = upper_bound(expr)
    exact = None if bound is None else compiled._quarter_exact()
    if exact is not None:
        sign = _sign(exact[0] - bound[0], exact[1] - bound[1])
        if sign > 0:
            raise AssertionError(f"pi/4 value {exact[0]} + {exact[1]}*sqrt(2) exceeds "
                                 f"the proved bound {bound[0]} + {bound[1]}*sqrt(2)")
        if sign == 0:
            quarter = dict.fromkeys(keys, QUARTER_PI)
            v = compiled.value(quarter)
            return OptimizeResult(v, quarter, (v,), 0, _as_float(bound))
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
    """Optimize and compare against the declared quantum maximum.

    ``upper_bound`` is the proved maximum as a float (None without the
    structure); ``proved`` says the optimized value met it exactly.
    """
    if state is None:
        state = states.network_state(expr.topology)
    result = optimize_angles(expr, state, **kwargs)
    gap = result.value - expr.claimed_quantum_max
    bound = upper_bound(expr)
    return {
        "inequality": expr.name,
        "claimed_max": expr.claimed_quantum_max,
        "optimized_value": result.value,
        "gap": gap,
        "achieved": abs(gap) <= tolerance,
        "angles": {f"{party}:{plane}": theta
                   for (party, plane), theta in result.angles.items()},
        "start_values": list(result.start_values),
        "upper_bound": None if bound is None else _as_float(bound),
        "proved": result.upper is not None,
    }
