"""Reference loops for ``lhv``: the vertex product table, the maxima and an ascent.

``Strategy`` is a deterministic strategy as sorted ((party, input), +-1)
pairs, the object the tests build strategies with.

``enumerate_vertices_reference`` is the loop that ``lhv.enumerate_vertices``
replaces: it builds the full product table of the per-party behaviours
(``party_behaviors_reference``, each party's output table deduplicated by the
structured ``np.unique(axis=0)`` sort), every reduced strategy one row in
row-major code order, 2^18 rows at a time, and keeps each distinct correlator
row with the first (lowest) code that reaches it.  It returns a
``ReferenceVertices`` of its own: Fraction tuples sorted in descending order,
the numerators read back off those Fractions, the codes, and each witness as
a ``Strategy``.  The party-by-party fold must give ``VertexSet`` rows with
equal numerators, codes, vectors and witnesses.

``linear_lhv_max_reference`` and ``normalization_check_reference`` are the
per-vertex Fraction loops that ``lhv`` replaces with integer arithmetic on the
numerators; given the reference enumeration they must return the same value
and the same first counterexample.

``maximize_on_simplex`` is a projected-gradient ascent over the probability
simplex: one start at a time (the uniform point, then the Philox Dirichlet
draws in order), 300 steps of size 0.5/sqrt(k+1) along the normalised
gradient, a start stopping when its gradient norm drops below 1e-14, each
iterate put back on the simplex by the sort-and-threshold projection.  It is
the numeric second opinion on the closed forms of ``lhv.nonlinear_lhv_max``:
``block_numeric_reference`` runs it on one cross-polytope block and
``mixture_numeric_reference`` on mixtures of enumerated vertices, and
neither may exceed the proved bound.

``cross_polytope_structure_reference`` is the per-term detection that
``scenario.cross_polytope_structure`` replaces with array reads on the
expression's ``input_index``: family by family it collects each term's
single parties, exponent pattern and normalization as Python sets.  Both
must return equal per-family scales, or both None.
``shares_an_input_reference`` is the family-by-family set test that
``lhv._classical_scales`` adds.

``correlator_value`` and ``evaluate_strategy`` evaluate one deterministic
strategy term by term, reading its outputs through ``output`` and
``as_dict``: the exact values that the vertex rows of ``lhv`` must equal.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from netbell import lhv
from netbell.scenario import InequalityExpr, Term, ordered_sum
from scenario_oracle import n_single


@dataclass(frozen=True)
class Strategy:
    """Deterministic outputs keyed by (party, qualified input)."""

    outputs: tuple[tuple[tuple[str, str], int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(sorted(self.outputs)))
        for _, v in self.outputs:
            if v not in (1, -1):
                raise ValueError("outputs are +-1")

    def grouped(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (party, inp), v in self.outputs:
            out.setdefault(party, {})[inp] = v
        return out


@dataclass(frozen=True)
class ReferenceVertices:
    """The product-table enumeration: vectors in descending order, row for
    row with their numerators, lowest codes and witness strategies."""

    vectors: tuple[tuple[Fraction, ...], ...]
    witnesses: tuple[Strategy, ...]
    codes: tuple[int, ...]
    numerators: np.ndarray
    denominator: int
    n_raw: int
    n_reduced: int


def output(strategy: Strategy, party: str, inp: str) -> int:
    return as_dict(strategy)[(party, inp)]


def as_dict(strategy: Strategy) -> dict[tuple[str, str], int]:
    d = strategy.__dict__.get("_map")
    if d is None:
        d = dict(strategy.outputs)
        object.__setattr__(strategy, "_map", d)
    return d


def correlator_value(expr: InequalityExpr, term: Term,
                     strategy: Strategy) -> Fraction:
    """Exact correlator value under a deterministic strategy."""
    corr, fam = term.correlator, term.family
    val = Fraction(corr.normalization)
    for party, e in corr.exponents:
        s0 = output(strategy, party, expr.input_label(fam, party, "0"))
        s1 = output(strategy, party, expr.input_label(fam, party, "1"))
        val *= s0 + (s1 if e == 0 else -s1)
    for party, inp in corr.joint_inputs:
        val *= output(strategy, party, expr.input_label(fam, party, inp))
    return val


def evaluate_strategy(expr: InequalityExpr, strategy: Strategy):
    """Expression value for one strategy: exact Fraction when r = 1, else float."""
    values = [t.coefficient * expr.power(correlator_value(expr, t, strategy))
              for t in expr.terms]
    return sum(values) if expr.exponent == 1 else float(ordered_sum(values))


def party_behaviors_reference(expr, party):
    index = expr.input_index
    j = index.parties.index(party)
    inputs = index.vocab[j]
    m = len(inputs)
    codes = np.arange(1 << m, dtype=np.int64)
    signs = 1 - 2 * ((codes[:, None] >> np.arange(m)) & 1)  # (2^m, m)
    bracket = np.where(index.single[:, j], 1 - 2 * index.exponents[:, j], 0)
    keys = signs[:, index.inputs[:, j, 0]] + bracket * signs[:, index.inputs[:, j, 1]]
    uniq, first = np.unique(keys, axis=0, return_index=True)
    witnesses = [tuple(int(v) for v in signs[i]) for i in first]
    return inputs, uniq.astype(np.int64), witnesses


def enumerate_vertices_reference(expr, budget: int = lhv.DEFAULT_BUDGET
                                 ) -> ReferenceVertices:
    parties = expr.topology.party_ids()
    behaviors = [party_behaviors_reference(expr, p) for p in parties]
    counts = [b[1].shape[0] for b in behaviors]
    n_reduced = math.prod(counts)
    if n_reduced > budget:
        raise lhv.BudgetExceeded(
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
    vectors = tuple(vectors[i] for i in order)
    denominator = math.lcm(*(n.denominator for n in norms))
    return ReferenceVertices(
        vectors=vectors,
        witnesses=tuple(witnesses[i] for i in order),
        codes=tuple(witness_codes[i] for i in order),
        numerators=np.array([[int(v * denominator) for v in vec]
                             for vec in vectors], dtype=np.int64),
        denominator=denominator,
        n_raw=expr.n_strategies_raw(),
        n_reduced=n_reduced)


def linear_lhv_max_reference(expr, vertices: ReferenceVertices):
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


def normalization_check_reference(expr, vertices: ReferenceVertices):
    fam_indices = {
        fam: [i for i, t in enumerate(expr.terms) if t.family == fam]
        for fam in expr.families()}
    fam_scale = {}
    for fam in expr.families():
        terms = [t for t in expr.terms if t.family == fam]
        fam_scale[fam] = {t.correlator.normalization * (1 << n_single(t.correlator))
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


def project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def maximize_on_simplex(f_grad, dim: int, restarts: int, seed: int,
                        iters: int = 300) -> float:
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = -math.inf
    starts = [np.full(dim, 1.0 / dim)]
    starts += [rng.dirichlet(np.ones(dim)) for _ in range(restarts)]
    for w in starts:
        w = np.asarray(w, dtype=float)
        for k in range(iters):
            val, grad = f_grad(w)
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            step = 0.5 / math.sqrt(k + 1.0)
            w = project_simplex(w + step * grad / gn)
        val, _ = f_grad(w)
        best = max(best, val)
    return best


def block_numeric_reference(scale: float, k: int, r: float, restarts: int,
                            seed: int) -> float:
    def f_grad(w):
        wc = np.maximum(w, 1e-15)
        vals = (scale * wc) ** r
        grad = r * scale * (scale * wc) ** (r - 1.0)
        return float(vals.sum()), grad

    return maximize_on_simplex(f_grad, 1 << k, restarts, seed)


def mixture_numeric_reference(expr, vertices, restarts: int, seed: int) -> float:
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
        return float(vals.sum()), v @ dphi

    return maximize_on_simplex(f_grad, len(vertices.vectors), restarts, seed)


def shares_an_input_reference(expr) -> bool:
    """Whether two families hold the same (party, input) pair."""
    index = expr.input_index
    width = max(len(v) for v in index.vocab)
    # (party, input) pairs as integers; a joint party's input fills both slots
    pairs = np.arange(len(index.parties))[:, None] * width + index.inputs
    owned = np.zeros(0, dtype=np.int64)
    for f in range(len(index.families)):
        fam_pairs = np.unique(pairs[index.family == f])
        if np.intersect1d(fam_pairs, owned).size:
            return True
        owned = np.union1d(owned, fam_pairs)
    return False


def cross_polytope_structure_reference(expr):
    """Each family's scale when the label <-> exponent-pattern bijection
    holds, else None."""
    out = []
    for fam in expr.families():
        terms = [t for t in expr.terms if t.family == fam]
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
        out.append(scales.pop())
    return tuple(out)
