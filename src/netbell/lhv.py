"""Classical (shared-randomness) bounds for inequality scenarios.

A deterministic strategy assigns one +-1 output to every (party, input)
pair, inputs being the qualified labels from the scenario.  Each correlator
then takes the exact rational value

    I = normalization * prod_singles (s_0 + (-1)^e s_1) * prod_joints s_input

with the single-party bracket in {-2, 0, 2}.  Shared randomness makes the
reachable correlator vectors the convex hull of the deterministic ones, so
linear bounds are maxima over vertices while power forms (r < 1, concave)
may peak inside the hull.

Two routes compute the vertex geometry:

* enumeration: per party, deduplicate output assignments by their vector of
  per-term factors; then fold the parties in topology order, multiplying the
  distinct partial rows by the next party's factors and keeping each distinct
  product once, with the lowest-code strategy reaching it as its witness.
  Exact and exhaustive, used when the raw strategy count is small enough.
  Rows stay integers throughout: each dedup sorts one byte key per row, and
  the vertices are kept as int64 numerators over one common denominator
  (the lcm of the normalizations' denominators), so ordering them, the
  linear maximum and the normalization check are integer arithmetic.  A
  numerator that could overflow int64 raises instead of wrapping.  Each
  vertex keeps its witness as one integer code; a vertex's Fractions and
  strategy are decoded only when a report prints them.
* cross-polytope structure: when each family's labels map bijectively onto
  the single-party exponent patterns (``scenario.cross_polytope_structure``,
  one scale per family) and, as ``_classical_scales`` checks, no two
  families share an input, every deterministic strategy concentrates each
  family on exactly one label at full scale.  The family's vertices are
  +-scale * e_label without enumerating anything, which covers hub counts
  where enumeration would not fit in memory.

One function gives every classical maximum, from the scales when the
structure holds and from the vertices otherwise; at r = 1 it is exact.
Power forms (0 < r < 1), signed or absolute, get one closed form
(``_maxima``): each family adds at most M_f^r * n_f^(1-r) over
its n_f kept terms, M_f being its scale or one integer maximum over the
enumerated numerators.  Under the structure a vertex mixture attains it,
so the attained value is the closed form itself; otherwise one explicit
vertex mixture gives an attained value below it.  A genuine bound is
``UNPROVEN`` only when it falls inside an open bracket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scenario import (InequalityExpr, cross_polytope_structure, ordered_sum,
                       unique_rows)

DEFAULT_BUDGET = 1 << 25
ENUM_THRESHOLD = 1 << 16
_CHUNK = 1 << 18  # candidate rows per dedup call in enumerate_vertices


class BudgetExceeded(RuntimeError):
    pass


# -- reduced enumeration -------------------------------------------------------


def _party_behaviors(expr: InequalityExpr, party: str):
    """Distinct per-term factor vectors with one witness assignment each.

    A term's factor is the bracket s_x0 +- s_x1 for a single party (sign
    (-1)^e) and the one output s_input for a joint party.  Returns the
    inputs, the distinct factor rows and each row's first +-1 assignment.
    """
    index = expr.input_index
    j = index.parties.index(party)
    inputs = index.vocab[j]
    m = len(inputs)
    # all +-1 assignments, bit i of the row index selecting output for input i
    codes = np.arange(1 << m, dtype=np.int64)
    signs = 1 - 2 * ((codes[:, None] >> np.arange(m)) & 1)  # (2^m, m)
    bracket = np.where(index.single[:, j], 1 - 2 * index.exponents[:, j], 0)
    keys = signs[:, index.inputs[:, j, 0]] + bracket * signs[:, index.inputs[:, j, 1]]
    uniq, first = unique_rows(keys, return_index=True)
    return inputs, uniq, signs[first]


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Distinct correlator vectors over deterministic strategies, as rows.

    Row v of ``numerators`` is one vector in int64 numerators over the common
    ``denominator``, rows in descending lexicographic order, every row sum in
    int64.  ``codes[v]`` is the lowest reduced-strategy code reaching row v;
    its row-major digits pick one behaviour per party from ``signs``: per
    party in topology order, (party, inputs, +-1 output rows).  ``vector``
    and ``witness`` decode one row; ``vectors`` decodes all on first read.
    """

    numerators: np.ndarray
    denominator: int
    codes: np.ndarray
    n_reduced: int
    signs: tuple[tuple[str, tuple[str, ...], np.ndarray], ...]

    def vector(self, v: int) -> tuple[Fraction, ...]:
        """Row v as exact Fractions."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators[v].tolist())

    @functools.cached_property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.vector, range(len(self.numerators))))

    def witness(self, v: int) -> dict[str, dict[str, int]]:
        """The lowest-code strategy reaching row v: {party: {input: +-1}},
        parties and inputs in sorted order."""
        code, out = int(self.codes[v]), {}
        for party, inputs, rows in reversed(self.signs):
            code, digit = divmod(code, len(rows))
            out[party] = dict(sorted(zip(inputs, rows[digit].tolist())))
        return dict(sorted(out.items()))


def _first_distinct(rows: np.ndarray, codes: np.ndarray):
    """Each distinct row once with its first code, in the order given."""
    _, first = unique_rows(rows, return_index=True)
    first.sort()
    return rows[first], codes[first]


def _numerators(expr: InequalityExpr, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Correlator rows as int64 numerators over the normalizations' lcm.

    Raises ``OverflowError`` unless every entry, and so every row sum over
    the terms, stays below 2^63 in magnitude.
    """
    index = expr.input_index
    largest = int(np.abs(rows).max()) * int(np.abs(index.scale).max())
    if largest * len(index.scale) >= 1 << 63:
        raise OverflowError(
            f"vertex numerators up to {largest} over {len(index.scale)} terms "
            "overflow int64")
    return rows * index.scale, index.denominator


def enumerate_vertices(expr: InequalityExpr) -> VertexSet:
    """Distinct correlator vectors of the deterministic strategies.

    A reduced strategy picks one ``_party_behaviors`` row per party; its code
    is the row-major number of those picks, parties in topology order.  The
    parties are folded in that order: each stage multiplies the distinct
    partial rows so far by the party's keys, in code order, and keeps every
    distinct product once with its smallest code.  A vector's smallest full
    code extends the smallest code of its own partial row (the prefix is the
    most significant part), so each witness is the lowest-code strategy that
    reaches its vertex.  The work is sum_j distinct_j * count_j rows instead
    of prod_j count_j; candidates are made ``_CHUNK`` rows at a time and the
    survivors of the slices deduplicated once more.

    Behaviour tables are built smallest vocabulary first and checked against
    ``DEFAULT_BUDGET`` after each, so no hub table is built once smaller
    parties exceed it.  A party with m inputs is refused before its 2^m x T
    key table is built when that table alone exceeds the budget.
    """
    parties = expr.topology.party_ids()
    index = expr.input_index
    behaviors = [None] * len(parties)
    n_reduced = 1
    for j in sorted(range(len(parties)), key=lambda j: len(index.vocab[j])):
        m = len(index.vocab[j])
        if len(index.labels) << m > DEFAULT_BUDGET:
            raise BudgetExceeded(f"party {parties[j]}'s 2^{m} x {len(index.labels)} "
                                 f"key table would exceed the budget {DEFAULT_BUDGET}")
        behaviors[j] = _party_behaviors(expr, parties[j])
        n_reduced *= behaviors[j][1].shape[0]
        if n_reduced > DEFAULT_BUDGET:
            raise BudgetExceeded(f"at least {n_reduced} reduced strategies "
                                 f"exceed the budget {DEFAULT_BUDGET}")
    rows = np.ones((1, len(index.family)), dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    for _, keys, _ in behaviors:
        count = len(keys)
        n_cand = len(rows) * count
        slices = []
        for start in range(0, n_cand, _CHUNK):
            prefix, digit = np.divmod(
                np.arange(start, min(start + _CHUNK, n_cand)), count)
            slices.append(_first_distinct(rows[prefix] * keys[digit],
                                          codes[prefix] * count + digit))
        rows, codes = _first_distinct(
            *(np.concatenate(part) for part in zip(*slices)))
    numerators, denominator = _numerators(expr, rows)
    # descending lexicographic, ties (a zero normalization) in fold order:
    # what sorting the Fraction tuples with reverse=True gives
    order = np.lexsort(-numerators.T[::-1])
    return VertexSet(numerators[order], denominator, codes[order], n_reduced,
                     tuple((party, inputs, signs)
                           for party, (inputs, _, signs) in zip(parties, behaviors)))


# -- classical maxima --------------------------------------------------------------


def _classical_scales(expr: InequalityExpr) -> tuple[Fraction, ...] | None:
    """The ``cross_polytope_structure`` scales when no two families share a
    (party, input) pair, else None.  Only then does every deterministic
    strategy fix each family apart, zeroing all but one of its terms, so
    family f's vertices are exactly {+-scale_f * e_t}."""
    scales = cross_polytope_structure(expr)
    if scales is None:
        return None
    index = expr.input_index
    width = max(len(v) for v in index.vocab)
    # (party, input) pairs as integers; a joint party's input fills both slots
    pairs = np.arange(len(index.parties))[:, None] * width + index.inputs
    owned = np.zeros(len(index.parties) * width, dtype=bool)
    for f in range(len(scales)):
        mine = np.zeros_like(owned)
        mine[pairs[index.family == f]] = True
        if (mine & owned).any():
            return None
        owned |= mine
    return scales


def _power_mean(total: float, n: int, r: float) -> float:
    """total^r * n^(1-r): the largest sum of n terms |w_i|^r with sum |w_i| <= total."""
    return total ** r * 2.0 ** (math.log2(n) * (1.0 - r))


def _maxima(expr: InequalityExpr, scales: tuple[Fraction, ...] | None,
            vertices: VertexSet | None) -> Fraction | dict:
    """The classical maximum, from the family scales (``_classical_scales``)
    when the structure holds, else from the vertices (enumerated here if not
    given).

    At r = 1 the exact maximum, max over vertices of sum_t c_t v_t
    (sum_t |v_t| when absolute); given both scales and vertices, the two
    maxima must agree.

    At 0 < r < 1 a dict: ``analytic`` is a proved upper bound and
    ``numeric`` the value at one explicit mixture of vertices, so the
    maximum lies between them.

    Bound.  Let w be any mixture of vertices and S_f the kept terms of
    family f: every term of a signed form, and only those with c_t > 0 of
    an absolute form, since the others add c_t |w_t|^r <= 0.  Each kept term
    gives c_t * power(w_t) <= |w_t|^r (c_t = +-1).  x^r is concave, so by the
    power mean sum_{S_f} |w_t|^r <= |S_f|^(1-r) * (sum_{S_f} |w_t|)^r.  The
    sum sum_{S_f} |w_t| is convex in w, so it is at most M_f, its maximum
    over the vertices.  The families' bounds M_f^r * |S_f|^(1-r) add.

    With cross-polytope structure, held as per-family scales, M_f is the
    family's scale, signed or absolute: a vertex puts +-scale on one term
    per family.  The uniform mixture of the vertices c_t * scale * e_t over
    the kept t puts every kept w_t at c_t * scale / |S_f| and attains the
    bound; a family with no kept term stays at w = 0.  So ``numeric`` is
    ``analytic`` itself: adding the mixture's equal terms one by one would
    drift from it in the last bits as the families grow.

    Otherwise the vertices are enumerated.  The witness takes, for each kept
    term t, the first vertex maximising c_t * v_t, and mixes those vertices
    uniformly (every vertex when no term is kept).  On bilocal-bi (M = 1,
    two terms, r = 1/2) that is the mixture of (1, 0) and (0, 1) and closes
    the bracket at sqrt(2).
    """
    index = expr.input_index
    c = index.coefficient.astype(np.int64)
    if scales is None and vertices is None:
        vertices = enumerate_vertices(expr)
    if vertices is not None:
        num, den = vertices.numerators, vertices.denominator
    if expr.exponent == 1:
        structural = None if scales is None else sum(scales, Fraction(0))
        if vertices is None:
            return structural
        values = np.abs(num).sum(axis=1) if expr.absolute else num @ c
        exact = Fraction(int(values.max()), den)
        if structural is not None and structural != exact:
            raise AssertionError(f"structure bound {structural} != enumerated {exact}")
        return exact
    r = float(expr.exponent)
    kept = c > 0 if expr.absolute else np.ones(len(c), dtype=bool)
    bounds = []
    for f in range(len(index.families)):
        cols = np.flatnonzero((index.family == f) & kept)
        if not cols.size:
            continue
        top = (float(scales[f]) if scales is not None
               else int(np.abs(num[:, cols]).sum(axis=1).max()) / den)
        bounds.append(_power_mean(top, cols.size, r))
    analytic = float(ordered_sum(bounds))
    if scales is not None:  # the uniform mixture attains the closed form
        return {"analytic": analytic, "numeric": analytic,
                "method": "cross-polytope"}
    # per kept term, the first vertex maximising c_t v_t; with no kept term,
    # every vertex
    best = (np.argmax(num[:, kept] * c[kept], axis=0) if kept.any()
            else np.arange(len(num)))
    w = num[best].sum(axis=0) / (len(best) * den)
    return {"analytic": analytic,
            "numeric": float(ordered_sum(c * expr.power(w))),
            "method": "vertex-mixture"}


# no command calls these two; the benchmark's tracer wraps them by name
def linear_lhv_max(expr: InequalityExpr,
                   vertices: VertexSet | None = None) -> Fraction:
    """Exact shared-randomness maximum for r = 1 expressions (``_maxima``)."""
    if expr.exponent != 1:
        raise ValueError("use nonlinear_lhv_max for power forms")
    return _maxima(expr, _classical_scales(expr), vertices)


def nonlinear_lhv_max(expr: InequalityExpr,
                      vertices: VertexSet | None = None) -> dict:
    """Shared-randomness bracket for power forms, 0 < r < 1 (``_maxima``)."""
    if expr.exponent == 1:
        raise ValueError("use linear_lhv_max for r = 1")
    return _maxima(expr, _classical_scales(expr), vertices)


def normalization_check(expr: InequalityExpr,
                        vertices: VertexSet) -> dict | None:
    """Verify each strategy fires exactly one full-scale correlator per family.

    Returns None when the property holds for every enumerated vertex, else a
    counterexample (family, vector, witness strategy).  The property is what
    makes sum_y |I_y| equal the scale exactly; baselines that keep only part
    of the label set fail it.
    """
    index = expr.input_index
    num = np.abs(vertices.numerators)
    full_scale = index.scale << index.single.sum(axis=1)
    families = expr.families()
    family_rows = [np.flatnonzero(index.family == f) for f in range(len(families))]
    broken = []  # per family: the vertices that break the property
    for rows in family_rows:
        block = num[:, rows]
        broken.append((np.isin(block, full_scale[rows]).sum(axis=1) != 1)
                      | ((block == 0).sum(axis=1) != len(rows) - 1))
    broken = np.array(broken)  # (families, vertices)
    hit = broken.any(axis=0)
    if not hit.any():
        return None
    v = int(np.argmax(hit))
    f = int(np.argmax(broken[:, v]))
    vec = vertices.vector(v)
    return {
        "family": families[f],
        "values": {index.labels[i]: str(vec[i])
                   for i in family_rows[f].tolist()},
        "strategy": vertices.witness(v),
    }


# -- certification report ------------------------------------------------------------


def certify(expr: InequalityExpr, tolerance: float = 1e-9) -> dict:
    """Compare the proved classical bound ``lhv_max`` (exact at r = 1) and an
    attained value with the declared bound; UNPROVEN lies between the two.
    """
    scales = _classical_scales(expr)
    n_raw = expr.n_strategies_raw()
    vertices = None
    if n_raw <= ENUM_THRESHOLD or scales is None:
        vertices = enumerate_vertices(expr)
        method = "enumeration"
    else:
        method = "cross-polytope"
    report: dict = {
        "inequality": expr.name,
        "tag": expr.tag,
        "bound_model": expr.bound_model,
        "declared_bound": expr.classical_bound,
        "exponent": str(expr.exponent),
        "absolute": expr.absolute,
        "method": method,
        # a power of two: a JSON integer below 2^64, else exactly "2^E"
        "n_strategies_raw": (n_raw if n_raw < 1 << 64
                             else f"2^{n_raw.bit_length() - 1}"),
        "cross_polytope": scales is not None,
    }
    if vertices is not None:
        report["n_strategies_reduced"] = vertices.n_reduced
        report["n_vertices"] = len(vertices.numerators)
        counter = normalization_check(expr, vertices)
        report["normalization"] = "ok" if counter is None else counter
    else:
        report["normalization"] = "structural"

    maxima = _maxima(expr, scales, vertices)
    if expr.exponent == 1:
        report["lhv_max"] = float(maxima)
        report["lhv_max_exact"] = str(maxima)
        attained = report["lhv_max"]
    else:
        report["nonlinear"] = maxima
        report["lhv_max"] = maxima["analytic"]
        attained = maxima["numeric"]

    bound = expr.classical_bound
    if expr.bound_model != "genuine":
        report["verdict"] = "INFO"
        report["note"] = (
            "declared bound assumes the bilocal model; the shared-randomness "
            "maximum shown may exceed it")
    elif attained - bound > tolerance:
        report["verdict"] = "FAIL"  # an attained value refutes the bound
    elif report["lhv_max"] - bound <= tolerance:
        report["verdict"] = "PASS"
        report["tight"] = abs(report["lhv_max"] - bound) <= tolerance
    else:
        report["verdict"] = "UNPROVEN"
        report["note"] = (
            f"the declared bound lies between the attained value {attained!r} "
            f"and the proved upper bound {report['lhv_max']!r}")
    return report
