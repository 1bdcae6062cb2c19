"""Classical (shared-randomness) bounds for inequality scenarios.

A deterministic strategy assigns one +-1 output to every (party, input)
pair, inputs being the qualified labels from the scenario.  Each correlator
then takes the exact rational value

    I = normalization * prod_singles (s_0 + (-1)^e s_1) * prod_joints s_input

with the single-party bracket in {-2, 0, 2}.  Shared randomness makes the
reachable correlator vectors the convex hull of the deterministic ones, so
linear bounds are maxima over vertices while power forms (r < 1, concave)
must be optimized over the hull.

Two routes compute the vertex geometry:

* enumeration: per party, deduplicate output assignments by their vector of
  per-term factors, then take products.  Exact and exhaustive, used when the
  raw strategy count is small enough.
* cross-polytope structure: when each family's labels map bijectively onto
  the single-party exponent patterns (and families share no inputs), every
  deterministic strategy concentrates each family block on exactly one label
  at full scale.  The block's vertices are then +-scale * e_label without
  enumerating anything, which covers hub counts where enumeration would not
  fit in memory.

Power forms are maximized over the hull by projected-gradient ascent from a
uniform start and seeded Dirichlet starts, all advanced together as the rows
of one array.  On a cross-polytope block this only confirms the closed form;
on a mixture of enumerated vertices it is a lower estimate, so a genuine
bound resting on it is reported ``UNPROVEN``, never ``PASS``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scenario import InequalityExpr, SingleQubitObservable, Term

DEFAULT_BUDGET = 1 << 25
ENUM_THRESHOLD = 1 << 16


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Strategy:
    """Deterministic outputs keyed by (party, qualified input)."""

    outputs: tuple[tuple[tuple[str, str], int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(sorted(self.outputs)))
        for _, v in self.outputs:
            if v not in (1, -1):
                raise ValueError("outputs are +-1")

    def output(self, party: str, inp: str) -> int:
        return self.as_dict()[(party, inp)]

    def as_dict(self) -> dict[tuple[str, str], int]:
        d = self.__dict__.get("_map")
        if d is None:
            d = dict(self.outputs)
            object.__setattr__(self, "_map", d)
        return d

    def grouped(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (party, inp), v in self.outputs:
            out.setdefault(party, {})[inp] = v
        return out


def correlator_value(expr: InequalityExpr, term: Term,
                     strategy: Strategy) -> Fraction:
    """Exact correlator value under a deterministic strategy."""
    corr, fam = term.correlator, term.family
    val = Fraction(corr.normalization)
    for party, e in corr.exponents:
        s0 = strategy.output(party, expr.input_label(fam, party, "0"))
        s1 = strategy.output(party, expr.input_label(fam, party, "1"))
        val *= s0 + (s1 if e == 0 else -s1)
    for party, inp in corr.joint_inputs:
        val *= strategy.output(party, expr.input_label(fam, party, inp))
    return val


def evaluate_strategy(expr: InequalityExpr, strategy: Strategy):
    """Expression value for one strategy: exact Fraction when r = 1, else float."""
    return sum(t.coefficient * expr.power(correlator_value(expr, t, strategy))
               for t in expr.terms)


# -- reduced enumeration -------------------------------------------------------


def _party_behaviors(expr: InequalityExpr, party: str):
    """Distinct per-term factor vectors with one witness assignment each.

    A term's factor is the bracket s_x0 +- s_x1 for a single party (sign
    (-1)^e) and the one output s_input for a joint party.
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
    uniq, first = np.unique(keys, axis=0, return_index=True)
    witnesses = [tuple(int(v) for v in signs[i]) for i in first]
    return inputs, uniq.astype(np.int64), witnesses


@dataclass(frozen=True)
class VertexSet:
    """Distinct correlator vectors over deterministic strategies."""

    labels: tuple[str, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    witnesses: tuple[Strategy, ...]
    n_raw: int
    n_reduced: int


def enumerate_vertices(expr: InequalityExpr,
                       budget: int = DEFAULT_BUDGET) -> VertexSet:
    parties = expr.topology.party_ids()
    behaviors = [ _party_behaviors(expr, p) for p in parties ]
    counts = [b[1].shape[0] for b in behaviors]
    n_reduced = math.prod(counts)
    if n_reduced > budget:
        raise BudgetExceeded(
            f"{n_reduced} reduced strategies exceed the budget {budget}")
    n_terms = len(expr.terms)
    norms = [t.correlator.normalization for t in expr.terms]
    strides = np.cumprod([1] + counts[::-1])[::-1][1:]  # row-major digits
    seen: dict[bytes, int] = {}
    rows: list[np.ndarray] = []
    witness_codes: list[int] = []
    chunk = 1 << 18
    for start in range(0, n_reduced, chunk):
        idx = np.arange(start, min(start + chunk, n_reduced))
        v = np.ones((idx.size, n_terms), dtype=np.int64)
        for (_, keys, _), stride, count in zip(behaviors, strides, counts):
            v *= keys[(idx // stride) % count]
        uniq, first = np.unique(v, axis=0, return_index=True)
        for row, f in zip(uniq, first):
            key = row.tobytes()
            if key not in seen:
                seen[key] = len(rows)
                rows.append(row)
                witness_codes.append(int(idx[f]))
    vectors = []
    witnesses = []
    for row, code in zip(rows, witness_codes):
        vectors.append(tuple(n * int(x) for n, x in zip(norms, row)))
        digits = [(code // int(s)) % c for s, c in zip(strides, counts)]
        outputs = []
        for party, (inputs, _, wits), d in zip(parties, behaviors, digits):
            for inp, val in zip(inputs, wits[d]):
                outputs.append(((party, inp), val))
        witnesses.append(Strategy(tuple(outputs)))
    order = sorted(range(len(vectors)), key=lambda i: vectors[i], reverse=True)
    return VertexSet(
        labels=tuple(t.correlator.label for t in expr.terms),
        vectors=tuple(vectors[i] for i in order),
        witnesses=tuple(witnesses[i] for i in order),
        n_raw=expr.n_strategies_raw(),
        n_reduced=n_reduced)


# -- cross-polytope structure ----------------------------------------------------


@dataclass(frozen=True)
class FamilyBlock:
    family: str
    term_indices: tuple[int, ...]
    n_singles: int
    scale: Fraction


def cross_polytope_structure(expr: InequalityExpr) -> tuple[FamilyBlock, ...] | None:
    """Detect the label <-> exponent-pattern bijection per family.

    When it holds (and families share no inputs), every deterministic strategy
    zeroes all but one label per family and the surviving correlator equals
    +-scale, so the vertex set per block is exactly {+-scale * e_label}.
    """
    index = expr.input_index
    width = max(len(v) for v in index.vocab)
    # (party, input) pairs as integers; a joint party's input fills both slots
    pairs = np.arange(len(index.parties))[:, None] * width + index.inputs
    blocks = []
    owned = np.zeros(0, dtype=np.int64)
    for fam in expr.families():
        indices = tuple(i for i, t in enumerate(expr.terms) if t.family == fam)
        terms = [expr.terms[i] for i in indices]
        single_sets = {tuple(sorted(t.correlator.exponent_map)) for t in terms}
        if len(single_sets) != 1:
            return None
        singles = single_sets.pop()
        k = len(singles)
        if k == 0 or len(terms) != 1 << k:
            return None
        patterns = {tuple(t.correlator.exponent_map[p] for p in singles)
                    for t in terms}
        if len(patterns) != 1 << k:
            return None
        scales = {t.correlator.normalization * (1 << k) for t in terms}
        if len(scales) != 1:
            return None
        fam_pairs = np.unique(pairs[list(indices)])
        if np.intersect1d(fam_pairs, owned).size:
            return None  # families share an input: blocks not independent
        owned = np.union1d(owned, fam_pairs)
        blocks.append(FamilyBlock(fam, indices, k, scales.pop()))
    return tuple(blocks)


# -- classical maxima --------------------------------------------------------------


def linear_lhv_max(expr: InequalityExpr,
                   vertices: VertexSet | None = None,
                   budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact shared-randomness maximum for r = 1 expressions."""
    if expr.exponent != 1:
        raise ValueError("use nonlinear_lhv_max for power forms")
    if vertices is None:
        blocks = cross_polytope_structure(expr)
        if blocks is not None:
            return sum((b.scale for b in blocks), Fraction(0))
        vertices = enumerate_vertices(expr, budget)
    coeffs = [t.coefficient for t in expr.terms]
    best = None
    for vec in vertices.vectors:
        if expr.absolute:
            val = sum(abs(v) for v in vec)
        else:
            val = sum(c * v for c, v in zip(coeffs, vec))
        if best is None or val > best:
            best = val
    return best


def _project_rows(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    u = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    hit = u * np.arange(1, w.shape[1] + 1) > css - 1.0
    rho = w.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)  # last hit per row
    theta = (css[np.arange(len(w)), rho] - 1.0) / (rho + 1.0)
    return np.maximum(w - theta[:, None], 0.0)


def _maximize_on_simplex(f_grad, dim: int, restarts: int, seed: int,
                         iters: int = 300) -> float:
    """Projected-gradient ascent from every start at once, one row per start.

    ``f_grad`` maps a (starts, dim) batch of points to per-row values and
    gradients.  A row whose gradient norm falls below 1e-14 stops and is
    never stepped again; the result is the best row's final value.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = np.vstack([np.full(dim, 1.0 / dim),
                   rng.dirichlet(np.ones(dim), size=restarts)])
    live = np.arange(len(w))
    for k in range(iters):
        _, grad = f_grad(w[live])
        # per-row BLAS dot: the sum np.linalg.norm takes for a single vector
        gn = np.sqrt(np.vecdot(grad, grad))
        moving = gn >= 1e-14
        live, grad, gn = live[moving], grad[moving], gn[moving]
        if live.size == 0:
            break
        step = 0.5 / math.sqrt(k + 1.0)
        w[live] = _project_rows(w[live] + step * grad / gn[:, None])
    vals, _ = f_grad(w)
    return float(vals.max())


def _block_numeric(scale: float, k: int, r: float, restarts: int, seed: int) -> float:
    dim = 1 << k

    def f_grad(w):
        wc = np.maximum(w, 1e-15)
        vals = (scale * wc) ** r
        grad = r * scale * (scale * wc) ** (r - 1.0)
        return vals.sum(axis=1), grad

    return _maximize_on_simplex(f_grad, dim, restarts, seed)


def _mixture_numeric(expr: InequalityExpr, vertices: VertexSet,
                     restarts: int, seed: int) -> float:
    v = np.array([[float(x) for x in vec] for vec in vertices.vectors])
    coeffs = np.array([t.coefficient for t in expr.terms], dtype=float)
    r = float(expr.exponent)
    absolute = expr.absolute

    def f_grad(p):
        w = p @ v
        aw = np.maximum(np.abs(w), 1e-12)
        if absolute:
            vals = coeffs * aw ** r
            dphi = coeffs * r * aw ** (r - 1.0) * np.sign(w)
        else:
            vals = coeffs * np.copysign(aw ** r, w)
            dphi = coeffs * r * aw ** (r - 1.0)
        return vals.sum(axis=1), dphi @ v.T

    return _maximize_on_simplex(f_grad, len(vertices.vectors), restarts, seed)


def nonlinear_lhv_max(expr: InequalityExpr,
                      vertices: VertexSet | None = None,
                      restarts: int = 100, seed: int = 7,
                      budget: int = DEFAULT_BUDGET) -> dict:
    """Shared-randomness maximum for power forms.

    Returns analytic and numeric values.  With cross-polytope structure the
    hull is a product of L1 balls and the concave power sum is maximized by
    the uniform mixture per block: sum_f scale_f^r * 2^(k_f (1-r)).  The
    numeric value is a projected-gradient confirmation (or, when the
    structure is absent and mixtures of enumerated vertices are optimized
    directly, the only value: a lower estimate of the maximum).  The
    uniform start and ``restarts`` Dirichlet starts drawn from ``seed`` run
    as one batch, 300 steps each.
    """
    r = float(expr.exponent)
    blocks = cross_polytope_structure(expr)
    if blocks is not None and not expr.absolute:
        analytic = sum(float(b.scale) ** r * 2.0 ** (b.n_singles * (1.0 - r))
                       for b in blocks)
        numeric = sum(_block_numeric(float(b.scale), b.n_singles, r,
                                     restarts, seed + i)
                      for i, b in enumerate(blocks))
        return {"analytic": analytic, "numeric": numeric,
                "method": "cross-polytope"}
    if vertices is None:
        vertices = enumerate_vertices(expr, budget)
    numeric = _mixture_numeric(expr, vertices, restarts, seed)
    return {"analytic": None, "numeric": numeric, "method": "vertex-mixture"}


def normalization_check(expr: InequalityExpr,
                        vertices: VertexSet) -> dict | None:
    """Verify each strategy fires exactly one full-scale correlator per family.

    Returns None when the property holds for every enumerated vertex, else a
    counterexample (family, vector, witness strategy).  The property is what
    makes sum_y |I_y| equal the scale exactly; baselines that keep only part
    of the label set fail it.
    """
    fam_indices = {
        fam: [i for i, t in enumerate(expr.terms) if t.family == fam]
        for fam in expr.families()}
    fam_scale = {}
    for fam in expr.families():
        terms = expr.terms_for(fam)
        fam_scale[fam] = {t.correlator.normalization * (1 << t.correlator.n_single)
                          for t in terms}
    for vec, wit in zip(vertices.vectors, vertices.witnesses):
        for fam, indices in fam_indices.items():
            scales = fam_scale[fam]
            full = sum(1 for i in indices if abs(vec[i]) in scales)
            zero = sum(1 for i in indices if vec[i] == 0)
            if full != 1 or zero != len(indices) - 1:
                return {
                    "family": fam,
                    "values": {expr.terms[i].correlator.label: str(vec[i])
                               for i in indices},
                    "strategy": wit.grouped(),
                }
    return None


# -- certification report ------------------------------------------------------------


def certify(expr: InequalityExpr, budget: int = DEFAULT_BUDGET,
            enum_threshold: int = ENUM_THRESHOLD, restarts: int = 100,
            seed: int = 7, tolerance: float = 1e-9) -> dict:
    """Compute the classical bound and compare against the declared one."""
    blocks = cross_polytope_structure(expr)
    n_raw = expr.n_strategies_raw()
    vertices = None
    if n_raw <= enum_threshold or blocks is None:
        vertices = enumerate_vertices(expr, budget)
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
        "n_strategies_raw": n_raw,
        "cross_polytope": blocks is not None,
    }
    if vertices is not None:
        report["n_strategies_reduced"] = vertices.n_reduced
        report["n_vertices"] = len(vertices.vectors)
        counter = normalization_check(expr, vertices)
        report["normalization"] = "ok" if counter is None else counter
    else:
        report["normalization"] = "structural"

    if expr.exponent == 1:
        exact = linear_lhv_max(expr, vertices, budget)
        if vertices is not None and blocks is not None and not expr.absolute:
            structural = sum((b.scale for b in blocks), Fraction(0))
            if structural != exact:
                raise AssertionError(
                    f"structure bound {structural} != enumerated {exact}")
        report["lhv_max"] = float(exact)
        report["lhv_max_exact"] = str(exact)
    else:
        detail = nonlinear_lhv_max(expr, vertices, restarts, seed, budget)
        report["nonlinear"] = {
            "analytic": detail["analytic"],
            "numeric": detail["numeric"],
            "method": detail["method"],
        }
        value = detail["analytic"] if detail["analytic"] is not None else detail["numeric"]
        report["lhv_max"] = value

    gap = report["lhv_max"] - expr.classical_bound
    if expr.bound_model != "genuine":
        report["verdict"] = "INFO"
        report["note"] = (
            "declared bound assumes the bilocal model; the shared-randomness "
            "maximum shown may exceed it")
    elif gap > tolerance:
        report["verdict"] = "FAIL"  # lhv_max is attained, so it refutes the bound
    elif report.get("nonlinear", {}).get("method") == "vertex-mixture":
        report["verdict"] = "UNPROVEN"
        report["note"] = (
            "the vertex-mixture value is a lower estimate of the "
            "shared-randomness maximum, so it cannot prove the bound")
    else:
        report["verdict"] = "PASS"
        report["tight"] = abs(gap) <= tolerance
    return report
