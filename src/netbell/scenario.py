"""Inequality scenarios: correlators, observable families, and builders.

A correlator here is the product form

    I_label = normalization * prod_singles (a_0 + (-1)^e a_1) * prod_joints b_input

evaluated on +-1 observables.  Single-qubit parties measure
cos(t) Z + (-1)^x sin(t) P with P = X or Y depending on the declared plane
(angles default to pi/4 and are supplied at evaluation time); joint parties
measure a commuting product of Pauli letters selected by their input string.
Collapsing the bracket per single party turns each correlator into a single
coefficient times a single Pauli word ("segmented operator"):

    e = 0 -> cos(t) Z,   e = 1 -> sin(t) P.

An inequality is a +-1-weighted sum of correlators, optionally raised to a
sign-preserving rational power r (odd numerator and denominator) or an
absolute-value power for the bilocal baselines.

Terms are grouped into families ("unprimed"/"primed").  Two families may
share a party's physical observable (then inputs and angles are shared) or
declare different ones (then combined tests relabel the party's inputs with a
family prefix digit, and angles are independent).

Star, two-source and (N, K, m) inequalities are one hub-and-branch
construction, built by one function from the topology alone (star and
two-source are one-hub (N, K, m) shapes).  A branch source is one that
reaches a single-qubit party; the i-th branch source, in source order, sets
label bit i, which is that party's exponent.  The hubs are the multi-qubit
parties, and each hub qubit reads its branch source's bit, or the fixed bit
of its hub-hub source.  A hub measures Z for bit 0 and, for bit 1, X (first
family) or Y (second) on branch qubits and X on hub-hub ones.  Every
correlator carries 1/2^K; the second family adds the parity sign (-1)^|y|.

An expression is its term table, ``InequalityExpr.input_index``: per term
its label, family, sign, inputs as small integers, exponent bits,
normalization (an integer over one common denominator), Pauli letters and
trig pattern.  The hub builder computes the table from the bits of
y = 0 .. 2^K - 1, the small builders from a few rows, and ``InputIndex``
checks it once.  Certification, compilation, sampling and their reports
read only the arrays; ``InequalityExpr.terms`` reads them back as one
``Term`` record per label, on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import network
from .network import NetworkTopology, SourceSpec
from .pauli import LETTER_CODE

QUARTER_PI = math.pi / 4

UNPRIMED = "unprimed"
PRIMED = "primed"


@dataclass(frozen=True)
class Correlator:
    """One term's product form as a record: the singles' exponents and the
    joints' raw inputs, each sorted by party."""

    label: str
    exponents: tuple[tuple[str, int], ...]
    joint_inputs: tuple[tuple[str, str], ...]
    normalization: Fraction

    @property
    def exponent_map(self) -> dict[str, int]:
        return dict(self.exponents)

    @property
    def joint_map(self) -> dict[str, str]:
        return dict(self.joint_inputs)


@dataclass(frozen=True)
class Term:
    coefficient: int
    correlator: Correlator
    family: str


def small_int(n: int) -> np.dtype:
    """The narrowest signed integer dtype holding 0..n."""
    return np.min_scalar_type(-n - 1)


def ordered_sum(x) -> np.ndarray:
    """Sums over the last axis, added left to right from 0.0.

    Each equals ``functools.reduce(operator.add, row, 0.0)`` bit for bit on
    every Python.  The builtin ``sum`` of floats is compensated from Python
    3.12 on and ``np.sum`` adds pairwise, so neither can give a float that
    reaches a report.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])[()]
    return np.cumsum(x, axis=-1)[..., -1] + 0.0  # 0.0 + -0.0 is 0.0


def unique_rows(a: np.ndarray, return_index: bool = False,
                return_inverse: bool = False):
    """``np.unique(a, axis=0, ...)`` of a nonempty 2-D integer array.

    The same rows in the same numeric order, the same first indices and
    the same (flat) inverse.  Each entry, less the array's minimum, is
    written big-endian in the narrowest unsigned width, so one row is one
    ``np.void`` key whose byte order is the rows' numeric order; one sort
    of those keys replaces the field-by-field structured sort.
    """
    lo = int(a.min())
    span = int(a.max()) - lo
    width = next(w for w in (1, 2, 4, 8) if span >> (8 * w) == 0)
    # modulo 2^64, so a span past the int64 range still shifts exactly
    shifted = (a.astype(np.int64, copy=False).view(np.uint64)
               - np.uint64(lo % (1 << 64)))
    keys = shifted.astype(f">u{width}", order="C").view(
        np.dtype((np.void, width * a.shape[1]))).ravel()
    _, index, *inverse = np.unique(keys, return_index=True,
                                   return_inverse=return_inverse)
    out = (a[index],) + ((index,) if return_index else ()) + tuple(inverse)
    return out if len(out) > 1 else out[0]


def fold_rows(columns: Sequence[np.ndarray], sizes: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Code the rows of narrow integer columns (column i below ``sizes[i]``).

    The columns fold mixed-radix, largest size first, and whenever the code
    range would pass max(2^16, rows) the codes are renumbered to those
    present through a presence table, so nothing is sorted.  Returns each
    row's code (``small_int`` of the last range; equal rows, equal codes),
    the codes present in increasing order, and per column the value (in its
    dtype) at each present code, decoded back through the folds and renumberings.
    """
    limit = max(1 << 16, len(columns[0]))
    code = np.zeros(len(columns[0]), dtype=np.int8)

    def blocks():  # numpy indexes fastest by intp: a block of codes at a time
        for lo in range(0, len(code), 1 << 16):
            yield slice(lo, lo + (1 << 16)), code[lo:lo + (1 << 16)].astype(np.intp)

    def seen(bound):
        marked = np.zeros(bound, dtype=bool)
        for _, at in blocks():
            marked[at] = True
        return marked

    bound, steps = 1, []  # steps: a folded column, or a renumbering's kept codes
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        if bound * sizes[i] > limit:
            kept = seen(bound)
            steps.append(np.flatnonzero(kept))
            bound = len(steps[-1])
            table = (np.cumsum(kept) - 1).astype(small_int(bound * sizes[i]))
            renumbered = np.empty(len(code), dtype=table.dtype)
            for s, at in blocks():  # "clip": no buffered copy; codes are in range
                np.take(table, at, out=renumbered[s], mode="clip")
            code = renumbered
        bound *= sizes[i]
        code = code.astype(small_int(bound), copy=False)  # ours: fold in place
        code *= sizes[i]
        code += columns[i]
        steps.append(i)
    present = at = np.flatnonzero(seen(bound))
    values = [None] * len(columns)
    for step in reversed(steps):
        if isinstance(step, int):  # // then -: numpy's % is slower
            below = at // sizes[step]
            values[step] = (at - below * sizes[step]).astype(columns[step].dtype)
            at = below
        else:
            at = step[at]
    return code, present, values


def _within(a: np.ndarray, lo: int, hi: int) -> bool:
    return a.size == 0 or lo <= a.min() and a.max() <= hi


@dataclass(frozen=True, eq=False)
class InputIndex:
    """Every term of one expression as read-only arrays: the expression's own
    data, written once by its builder and read by every layer.

    Term t is ``labels[t]``, in family ``families[family[t]]``, with sign
    ``coefficient[t]`` (+-1.0).  Parties run in topology order.  ``vocab[j]``
    holds every qualified input label party j can receive, in first-use
    order; ``prefixed[j]`` marks a party whose observable differs between
    families, so its labels start with the family's position.
    ``inputs[t, j, x]`` is the vocabulary position of party j's input in term
    t for bit x; a joint party's one input fills both slots.
    ``exponents[t, j]`` is the exponent bit of a single party (0 for a joint
    one) and ``single[t, j]`` marks the singles.

    Term t reads the 2^s profiles (its cells) setting each single party j to
    ``inputs[t, j, x]``, numbered by their x bits in party order.  Terms with
    the same x = 0 row ``inputs[t, :, 0]`` read the same cells, and no term
    reads another's: a position is a single's or a joint's input throughout.

    Term t's normalization is ``scale[t] / denominator``: int64 numerators
    over the lcm of the normalizations' denominators.  ``base``, derived, is
    normalization * 2^s rounded once.  ``letters[t, q]`` is the
    ``pauli.LETTER_CODE`` of term t's segmented Pauli word on qubit q.
    ``exps[t, j]`` is -1 where term t has no factor of angle ``keys[j]``
    (sorted (party, plane) pairs), 0 for cos and 1 for sin.

    Construction checks the arrays once and casts them to the dtypes below.
    """

    parties: tuple[str, ...]
    families: tuple[str, ...]
    labels: tuple[str, ...]
    family: np.ndarray       # (T,) intp
    coefficient: np.ndarray  # (T,) float
    vocab: tuple[tuple[str, ...], ...]
    prefixed: tuple[bool, ...]
    inputs: np.ndarray       # (T, parties, 2), small_int of the widest vocab
    exponents: np.ndarray    # (T, parties) int8
    single: np.ndarray       # (T, parties) bool
    scale: np.ndarray        # (T,) int64
    denominator: int
    keys: tuple[tuple[str, str], ...]
    letters: np.ndarray      # (T, n) int8
    exps: np.ndarray         # (T, J) int8
    base: np.ndarray = field(init=False)  # (T,)

    def __post_init__(self) -> None:
        t, p = len(self.labels), len(self.parties)
        if not t:
            raise ValueError("inequality needs at least one term")
        if len(set(self.labels)) != t:
            raise ValueError("correlator labels must be unique")
        dtypes = {"family": np.intp, "coefficient": float, "inputs": np.int64,
                  "exponents": np.int8, "single": bool, "scale": np.int64,
                  "letters": np.int8, "exps": np.int8}
        a = {name: np.asarray(getattr(self, name)) for name in dtypes}
        shapes = {"family": (t,), "coefficient": (t,), "inputs": (t, p, 2),
                  "exponents": (t, p), "single": (t, p), "scale": (t,),
                  "exps": (t, len(self.keys))}
        for name, shape in shapes.items():
            if a[name].shape != shape:
                raise ValueError(f"{name} has shape {a[name].shape}, expected {shape}")
        if a["letters"].ndim != 2 or len(a["letters"]) != t:
            raise ValueError("letters need one row per term")
        if len(self.vocab) != p or len(self.prefixed) != p:
            raise ValueError("vocab and prefixed need one entry per party")
        if not (np.abs(a["coefficient"]) == 1).all():
            raise ValueError("term coefficients are +-1")
        if not _within(a["exponents"], 0, 1) or a["exponents"][~a["single"]].any():
            raise ValueError("exponents are bits, 0 for a joint party")
        sizes = np.array([len(v) for v in self.vocab])
        if (a["inputs"] < 0).any() or (a["inputs"] >= sizes[:, None]).any():
            raise ValueError("an input lies outside its party's vocabulary")
        if (a["family"] < 0).any() or (a["family"] >= len(self.families)).any():
            raise ValueError("a term's family is not declared")
        if list(self.keys) != sorted(set(self.keys)) or not _within(a["exps"], -1, 1):
            raise ValueError("angle keys must be sorted and distinct, exps -1, 0 or 1")
        numerators = a["scale"].astype(np.int64) << a["single"].sum(axis=1)
        if max(np.abs(numerators).max(), self.denominator) >= 1 << 53:
            raise ValueError("normalizations need numerators and denominators below 2^53")
        dtypes["inputs"] = small_int(int(sizes.max()))
        # both operands are exact, so the float division rounds once, as
        # float(normalization * 2^s) does
        a["base"] = numerators / self.denominator
        for name, array in a.items():
            array = array.astype(dtypes.get(name, float), copy=False)
            array.flags.writeable = False  # shared by every layer
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class InequalityExpr:
    """A +-1-weighted sum of (possibly power-transformed) correlators: its
    term table and how the terms add up."""

    name: str
    tag: str
    topology: NetworkTopology
    input_index: InputIndex = field(repr=False)
    exponent: Fraction = Fraction(1)
    absolute: bool = False
    classical_bound: float = 1.0
    claimed_quantum_max: float = 1.0
    bound_model: str = "genuine"  # or "bilocal"

    def __post_init__(self) -> None:
        if self.input_index.parties != self.topology.party_ids():
            raise ValueError("the term table's parties are not the topology's")
        if not 0 < self.exponent <= 1:
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent}")
        if self.exponent != 1 and not self.absolute:
            if self.exponent.numerator % 2 == 0 or self.exponent.denominator % 2 == 0:
                raise ValueError("sign-preserving powers need odd/odd rationals")

    # -- accessors ------------------------------------------------------------

    def families(self) -> tuple[str, ...]:
        return self.input_index.families

    def angle_keys(self) -> tuple[tuple[str, str], ...]:
        """Distinct (party, plane) pairs; shared observables share an angle."""
        return self.input_index.keys

    def input_label(self, family: str, party: str, raw: str) -> str:
        """Round-log/strategy input label; family-prefixed iff observables differ."""
        index = self.input_index
        if index.prefixed[index.parties.index(party)]:
            return str(index.families.index(family)) + raw
        return raw

    @functools.cached_property
    def terms(self) -> tuple[Term, ...]:
        """The table read back as one ``Term`` per label, parties by name."""
        ix = self.input_index
        by_name = sorted(range(len(ix.parties)), key=ix.parties.__getitem__)
        raw = [tuple(v[1:] for v in vocab) if pre else vocab
               for vocab, pre in zip(ix.vocab, ix.prefixed)]
        terms = []
        for label, f, c, n, single, exps, inputs in zip(
                ix.labels, ix.family.tolist(), ix.coefficient.tolist(),
                ix.scale.tolist(), ix.single.tolist(), ix.exponents.tolist(),
                ix.inputs[:, :, 0].tolist()):
            corr = Correlator(
                label, tuple((ix.parties[j], exps[j]) for j in by_name if single[j]),
                tuple((ix.parties[j], raw[j][inputs[j]]) for j in by_name
                      if not single[j]),
                Fraction(n, ix.denominator))
            terms.append(Term(int(c), corr, ix.families[f]))
        return tuple(terms)

    def n_strategies_raw(self) -> int:
        return 1 << sum(len(v) for v in self.input_index.vocab)

    def power(self, v):
        """The correlator transform: identity, sign-preserving v^r, or |v|^r.

        At r = 1 an exact Fraction stays exact.  A float array maps entry by
        entry; each |v|^r goes through Python's ``pow``, because numpy's
        vectorised one can round the last bit differently, so an entry
        equals the scalar result bit for bit.
        """
        if self.exponent == 1:
            return abs(v) if self.absolute else v
        r = float(self.exponent)
        v = np.asarray(v, dtype=float)
        mag = np.array([x ** r for x in np.abs(v).ravel().tolist()]).reshape(v.shape)
        out = mag if self.absolute else np.copysign(mag, v)
        return float(out) if out.ndim == 0 else out

    def power_slope(self, v):
        """d power(v) / dv, with |v| floored at 1e-12 where v^(r-1) diverges;
        an array maps entry by entry, as in ``power``."""
        if self.exponent == 1:
            return np.copysign(1.0, v) if self.absolute else 1.0
        r, m = float(self.exponent), np.maximum(np.abs(v), 1e-12)
        d = r * np.array([x ** (r - 1) for x in m.ravel().tolist()]).reshape(m.shape)
        return np.copysign(d, v) if self.absolute else d


def cross_polytope_structure(expr: InequalityExpr) -> tuple[Fraction, ...] | None:
    """Each family's scale when the label <-> exponent-pattern bijection
    holds, else None.

    When it holds (and families share no inputs), every deterministic strategy
    zeroes all but one term per family and the surviving correlator equals
    +-scale, so family f's vertex set is exactly {+-scale_f * e_t}.  Per
    family: one single-party mask, 2^k terms whose exponent bits spell the
    2^k codes once each, one normalization (scale_f is it times 2^k), and
    (party, input) pairs that no earlier family holds.  ``lhv`` reads the
    classical maximum from the scales, ``quantum.upper_bound`` the quantum one.
    """
    index = expr.input_index
    width = max(len(v) for v in index.vocab)
    # (party, input) pairs as integers; a joint party's input fills both slots
    pairs = np.arange(len(index.parties))[:, None] * width + index.inputs
    owned = np.zeros(len(index.parties) * width, dtype=bool)
    scales = []
    for f in range(len(index.families)):
        rows = np.flatnonzero(index.family == f)
        if rows.size == 0:
            return None
        mask = index.single[rows[0]]
        k = int(mask.sum())
        if k == 0 or len(rows) != 1 << k or (index.single[rows] != mask).any():
            return None
        codes = index.exponents[rows][:, mask].astype(np.int64) @ (1 << np.arange(k))
        scale = index.scale[rows]
        if np.bincount(codes, minlength=1 << k).min() == 0 or (scale != scale[0]).any():
            return None
        mine = np.zeros_like(owned)
        mine[pairs[rows].ravel()] = True
        if (mine & owned).any():
            return None  # families share an input: blocks not independent
        owned |= mine
        scales.append(Fraction(int(scale[0]) << k, index.denominator))
    return tuple(scales)


AngleMap = Mapping[tuple[str, str], float]


def resolve_angles(expr: InequalityExpr, angles: AngleMap | None) -> dict[tuple[str, str], float]:
    resolved = {key: QUARTER_PI for key in expr.angle_keys()}
    if angles:
        for key, value in angles.items():
            if key not in resolved:
                raise KeyError(f"no angle parameter {key!r}")
            if not 0.0 < value < math.pi / 2:
                raise ValueError(f"angle {key} = {value} outside (0, pi/2)")
            resolved[key] = value
    return resolved


# -- small builders: CHSH, bilocal and GHZ-source expressions, row by row ------

def _rows_expr(name: str, tag: str, topology: NetworkTopology,
               families: Mapping[str, Sequence[tuple]], normalization: Fraction,
               **fields) -> InequalityExpr:
    """An expression from its rows per family: (label, coefficient,
    {single party: exponent bit}, {joint party: input}).

    The families share every observable, so no input carries a family
    digit.  A single party measures in the ZX plane; a joint party's input
    holds one bit per qubit it owns, Z for 0 and X for 1.
    """
    parties = topology.party_ids()
    rows = [(f, *row) for f, fam_rows in enumerate(families.values())
            for row in fam_rows]
    vocab: list[dict[str, int]] = [{} for _ in parties]
    inputs = np.zeros((len(rows), len(parties), 2), dtype=np.int64)
    exponents = np.zeros((len(rows), len(parties)), dtype=np.int64)
    bits = np.zeros((len(rows), topology.n_qubits), dtype=np.int64)
    for t, (_, _, _, exps, joints) in enumerate(rows):
        for j, party in enumerate(topology.parties):
            word = str(exps[party.id]) if party.id in exps else joints[party.id]
            raws = ("0", "1") if party.id in exps else (word, word)
            inputs[t, j] = [vocab[j].setdefault(raw, len(vocab[j])) for raw in raws]
            exponents[t, j] = exps.get(party.id, 0)
            bits[t, list(party.qubits)] = [int(b) for b in word]  # its qubits' letters
    single = np.array([[p in exps for p in parties] for *_, exps, _ in rows])
    keys = tuple(sorted((p, "ZX") for p in rows[0][3]))
    cols = [parties.index(p) for p, _ in keys]
    index = InputIndex(
        parties, tuple(families), tuple(row[1] for row in rows),
        np.array([row[0] for row in rows]), np.array([row[2] for row in rows]),
        tuple(map(tuple, vocab)), (False,) * len(parties), inputs, exponents,
        single, np.full(len(rows), normalization.numerator),
        normalization.denominator, keys,
        np.where(bits == 1, LETTER_CODE["X"], LETTER_CODE["Z"]),
        np.where(single[:, cols], exponents[:, cols], -1))
    return InequalityExpr(name, tag, topology, index, **fields)


def build_chsh() -> InequalityExpr:
    """Two-party baseline: 2 correlator groups, bound 2, maximum 2*sqrt(2).

    Correlators carry normalization 1, so the expression equals the familiar
    operator sum (A0+A1)B0 + (A0-A1)B1.
    """
    rows = [(y, 1, {"A": int(y)}, {"B": y}) for y in ("0", "1")]
    return _rows_expr("chsh", "chsh", network.chsh_pair(), {UNPRIMED: rows},
                      Fraction(1), classical_bound=2.0,
                      claimed_quantum_max=2.0 * math.sqrt(2.0))


def build_bilocal_baseline() -> dict[str, InequalityExpr]:
    """Square-root (bi) and linear (bil) two-source baselines.

    Their declared bounds hold for the bilocal model; the full
    shared-randomness polytope reaches sqrt(2) on (bi), which is why these
    under-detect and are kept only for comparison.
    """
    rows = [(y, 1, {"A": int(y[0]), "C": int(y[1])}, {"B": y}) for y in ("00", "11")]
    bi = _rows_expr("bilocal-bi", "bilocal-sqrt", network.two_source(),
                    {UNPRIMED: rows}, Fraction(1, 4),
                    exponent=Fraction(1, 2), absolute=True,
                    classical_bound=1.0, claimed_quantum_max=math.sqrt(2.0),
                    bound_model="bilocal")
    bil = replace(bi, name="bilocal-bil", tag="bilocal-linear",
                  exponent=Fraction(1), claimed_quantum_max=1.0)
    return {"bi": bi, "bil": bil}


GHZ_A_LABELS = ("001", "000", "100", "110")
GHZ_A_LABELS_PRIMED = ("010", "000", "100", "101")


def _ghz_a_rows(labels: Sequence[str], suffix: str = "") -> list[tuple]:
    return [(y + suffix, 1, {"A": int(y[0]), "C": (int(y[1]) + int(y[2]) + 1) % 2},
             {"B": y}) for y in sorted(labels)]


def build_ghz_a(variant: str = "combined") -> InequalityExpr:
    """Pair + three-qubit-source scenario with the hub holding three qubits.

    Both label sets use the same physical observables (the letter map is Z/X
    for each), so the two families share inputs and angles; the label sets
    overlap on 000 and 100 and the combined expression counts those twice.
    """
    first = {UNPRIMED: _ghz_a_rows(GHZ_A_LABELS)}
    second = {PRIMED: _ghz_a_rows(GHZ_A_LABELS_PRIMED, "'")}
    shapes = {"first": (first, 1.0, 2.0), "second": (second, 1.0, 2.0),
              "combined": ({**first, **second}, 2.0, 4.0)}
    if variant not in shapes:
        raise ValueError(f"unknown variant {variant!r}")
    families, bound, top = shapes[variant]
    return _rows_expr(f"ghz-a-{variant}", f"ghz-hub-{variant}", network.ghz_case_a(),
                      families, Fraction(1, 4), classical_bound=bound,
                      claimed_quantum_max=top)


def build_ghz_b() -> InequalityExpr:
    """Pair + fanned-out three-qubit source: one family of 8 signed correlators.

    Both correlator variants (plain and primed exponent patterns) share every
    observable; jointly they tile all 8 single-party sign cells, which is why
    the bound is 1.  At pi/4 the 8 segmented operators are, up to the 1/(2
    sqrt 2) coefficient, {Z1Z2, X1X2} x {Z3Z4X5, Z3X4Z5, X3Z4Z5, -X3X4X5}.
    """
    pairs = list(itertools.product((0, 1), repeat=2))
    rows = [(f"{a}{b}", (-1) ** (a * b), {"A": a, "C1": a, "C2": (a + b + 1) % 2},
             {"B": f"{a}{b}"}) for a, b in pairs]
    rows += [(f"{a}{b}'", (-1) ** ((1 - a) * b),
              {"A": a, "C1": 1 - a, "C2": (a + b) % 2}, {"B": f"{a}{b}"})
             for a, b in pairs]
    return _rows_expr("ghz-b", "ghz-fanout", network.ghz_case_b(), {UNPRIMED: rows},
                      Fraction(1, 8), classical_bound=1.0,
                      claimed_quantum_max=2.0 * math.sqrt(2.0))


# -- hub-and-branch networks: star, two-source, (N, K, m), from the bits -------

# which -> (family, plane, signed) per family it holds
_HUB_FAMILIES = {
    "first": ((UNPRIMED, "ZX", False),),
    "second": ((PRIMED, "ZY", True),),
    "combined": ((UNPRIMED, "ZX", False), (PRIMED, "ZY", True)),
}


_MAX_HUB_TERMS = 1 << 17  # star combined K=16; one more branch doubles it


def _branch_sources(topology: NetworkTopology) -> list[SourceSpec]:
    """The sources, in source order, that reach a single-qubit party."""
    single = {p.id for p in topology.parties if len(p.qubits) == 1}
    return [s for s in topology.sources if single.intersection(s.recipients)]


def _bit_strings(codes: np.ndarray, width: int, prefix: str = "") -> list[str]:
    """``prefix + format(c, f"0{width}b")`` for each code, in array operations."""
    chars = np.empty((len(codes), len(prefix) + width), dtype=np.uint8)
    chars[:, :len(prefix)] = np.frombuffer(prefix.encode(), dtype=np.uint8)
    chars[:, len(prefix):] = (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1
    chars[:, len(prefix):] += ord("0")
    return chars.view(f"S{chars.shape[1]}")[:, 0].astype(str).tolist()


def _hub_expr(topology: NetworkTopology, which: str, name: str, tag: str,
              inter_bits: Mapping[int, int] | None = None) -> InequalityExpr:
    """The first (Z/X), second (Z/Y, signed) or combined hub inequality.

    Family f holds one term per y = 0 .. 2^K - 1, labelled by y's K bits
    (behind f's digit when combined).  Branch source i (the i-th source, in
    source order, that reaches a single-qubit party) sets bit i of y, read
    from the left, which is that party's exponent.  Each hub qubit reads its
    branch source's bit, or the fixed ``inter_bits`` bit (default 0) of its
    hub-hub source: Z for 0, the plane's letter (branch) or X (hub-hub) for
    1.  A hub's input is its qubits' bits.  Each family has bound 1 and
    maximum 2^(K/2); combined adds both.  The term count, families x 2^K,
    is checked before anything is built.
    """
    fams = _HUB_FAMILIES[which]
    branches = _branch_sources(topology)
    k = len(branches)
    if len(fams) << k > _MAX_HUB_TERMS:
        raise ValueError(f"{name} would have {len(fams) << k} terms, over the "
                         f"limit of {_MAX_HUB_TERMS}")
    if k < 1:
        raise ValueError("need at least one branch source")
    fixed = dict(inter_bits or {})
    if not all(isinstance(b, (int, np.integer)) and b in (0, 1) for b in fixed.values()):
        raise ValueError(f"inter bits must be 0 or 1, got {fixed}")
    stray = sorted(set(fixed) - {s.id for s in topology.sources if s not in branches})
    if stray:
        raise network.SourceError(
            "inter bits name source {}, which is not a hub-hub source", stray[0])
    # per qubit: the position in y of its branch bit, or -1 - its fixed bit
    at = {q: -1 - int(fixed.get(s.id, 0)) for s in topology.sources for q in s.qubits}
    for i, s in enumerate(branches):
        at.update(dict.fromkeys(s.qubits, i))
    at = np.array([at[q] for q in range(topology.n_qubits)])
    y = np.arange(1 << k)
    y_bits = ((y[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.int8)  # (2^K, K)
    bits = np.where(at >= 0, y_bits[:, np.maximum(at, 0)], -1 - at).astype(np.int8)
    branch_party = {next(r for r in s.recipients if len(topology.party(r).qubits) == 1): i
                    for i, s in enumerate(branches)}

    n_fam, parties = len(fams), topology.party_ids()
    fam_of = np.repeat(np.arange(n_fam), 1 << k)
    vocab, prefixed = [], []
    inputs = np.empty((n_fam << k, len(parties), 2), np.int32)  # vocabs below 2^18
    exponents = np.zeros((n_fam << k, len(parties)), dtype=np.int8)
    for j, party in enumerate(topology.parties):
        qubits = list(party.qubits)
        prefixes = [str(f) for f in range(n_fam)] if n_fam > 1 and (
            party.id in branch_party or (at[qubits] >= 0).any()) else [""]
        if party.id in branch_party:
            exponents[:, j] = np.tile(y_bits[:, branch_party[party.id]], n_fam)
            codes = np.arange(2)
            position = np.broadcast_to(codes, (1 << k, 2))
        else:  # a hub: its distinct inputs, numbered in first-use order
            code = bits[:, qubits].astype(np.int64) @ (1 << np.arange(len(qubits))[::-1])
            distinct, first, inverse = np.unique(code, return_index=True,
                                                 return_inverse=True)
            order = np.argsort(first)
            codes, rank = distinct[order], np.empty_like(order)
            rank[order] = np.arange(len(order))
            position = rank[inverse.ravel()][:, None]
        inputs[:, j] = (np.tile(position, (n_fam, 1))
                        + (len(codes) * fam_of[:, None] if len(prefixes) > 1 else 0))
        vocab.append(tuple(itertools.chain.from_iterable(
            _bit_strings(codes, len(qubits), pre) for pre in prefixes)))
        prefixed.append(len(prefixes) > 1)

    keys = sorted((p, plane) for p in branch_party for _, plane, _ in fams)
    exps = np.full((n_fam << k, len(keys)), -1, dtype=np.int8)
    letters, labels, signs = [], [], []
    for f, (_, plane, signed) in enumerate(fams):
        rows = slice(f << k, (f + 1) << k)
        for p, i in branch_party.items():
            exps[rows, keys.index((p, plane))] = y_bits[:, i]
        one = np.where(at >= 0, LETTER_CODE[plane[1]], LETTER_CODE["X"]).astype(np.int8)
        letters.append(np.where(bits == 1, one, np.int8(LETTER_CODE["Z"])))
        labels += _bit_strings(y, k, str(f) if n_fam > 1 else "")
        signs.append(1 - 2 * (y_bits.sum(axis=1) & 1) if signed else np.ones(1 << k))
    index = InputIndex(
        parties, tuple(f for f, _, _ in fams), tuple(labels), fam_of,
        np.concatenate(signs), tuple(vocab), tuple(prefixed), inputs, exponents,
        np.tile([p in branch_party for p in parties], (n_fam << k, 1)),
        np.ones(n_fam << k, dtype=np.int64), 1 << k, tuple(keys),
        np.concatenate(letters), exps)
    return InequalityExpr(name, tag, topology, index, classical_bound=float(n_fam),
                          claimed_quantum_max=n_fam * 2.0 ** (k / 2))


def _star_expr(k: int, which: str) -> InequalityExpr:
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    return _hub_expr(network.star(k), which, f"star-{which}-k{k}",
                     f"star-linear-{which}[K={k}]")


def build_star_first(k: int) -> InequalityExpr:
    """Hub-and-branch family with Z/X letters: bound 1, maximum 2^(K/2)."""
    return _star_expr(k, "first")


def build_star_second(k: int) -> InequalityExpr:
    """Hub-and-branch family with Z/Y letters and parity signs."""
    return _star_expr(k, "second")


def build_star_combined(k: int) -> InequalityExpr:
    """Both star families at once; branch inputs are relabeled with a family bit."""
    return _star_expr(k, "combined")


def build_star_nonlinear(k: int, r: Fraction,
                         family: str = "first") -> InequalityExpr:
    """Star correlators raised to a sign-preserving odd/odd power r, t = rK < 2."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    if r.numerator % 2 == 0 or r.denominator % 2 == 0 or not 0 < r <= 1:
        raise ValueError("power must be an odd/odd rational in (0, 1]")
    t = r * k
    if not t < 2:
        raise ValueError(f"t = rK = {t} must be < 2")
    base = _star_expr(k, family)
    extra = 1 if family == "combined" else 0
    return replace(
        base,
        name=f"star-nonlinear-{family}-k{k}-r{r.numerator}over{r.denominator}",
        tag=f"star-nonlinear-{family}[K={k},r={r}]",
        exponent=r,
        classical_bound=2.0 ** (k + extra - float(t)),
        claimed_quantum_max=2.0 ** (k + extra - float(t) / 2))


def _two_source_expr(which: str) -> InequalityExpr:
    return _hub_expr(network.two_source(), which, f"two-source-{which}",
                     f"two-source-linear-{which}")


def build_two_source_linear() -> dict[str, InequalityExpr]:
    """Line-network families: Z/X letters, Z/Y letters with signs, and both."""
    return {which: _two_source_expr(which)
            for which in ("first", "second", "combined")}


def build_nkm(topology: NetworkTopology,
              inter_bits: Mapping[int, int] | None = None) -> dict[str, InequalityExpr]:
    """Both hub-network families on an (N, K, m) topology.

    Correlator labels carry one bit per branch source; hub-hub sources do not
    appear in labels, their pairs measure a fixed letter instead (bit 0 -> ZZ
    by default, bit 1 -> XX via ``inter_bits``).  The fixed letter is Z or X
    in *both* families: either choice stabilizes the pair state so the claimed
    maxima are unchanged, whereas a Y letter on the fixed pair would flip the
    signed family's correlators.
    """
    return {which: _nkm_expr(topology, which, inter_bits)
            for which in ("first", "second")}


def _nkm_expr(topology: NetworkTopology, which: str,
              inter_bits: Mapping[int, int] | None) -> InequalityExpr:
    n = len(topology.sources)
    k = sum(1 for p in topology.parties if len(p.qubits) == 1)
    m = len(topology.parties) - k
    fam = {"first": UNPRIMED, "second": PRIMED}[which]
    return _hub_expr(topology, which, f"nkm-{fam}-n{n}k{k}m{m}",
                     f"nkm-{which}[N={n},K={k},m={m}]", inter_bits)


# -- scenario registry -------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioInfo:
    """A catalog entry; ``build_family(family, **params)`` builds one family
    and raises ``TypeError`` on a parameter the scenario does not take."""

    name: str
    tag: str
    summary: str
    params: str
    families: tuple[str, ...]
    build_family: Callable[..., InequalityExpr] = field(repr=False)

    def build(self, **params) -> dict[str, InequalityExpr]:
        """Every family, keyed in ``families`` order.

        They are built last family first: star's last family, combined, has
        the most terms, so a K over the term limit fails before any other
        family is built.
        """
        built = {f: self.build_family(f, **params) for f in reversed(self.families)}
        return {f: built[f] for f in self.families}


def _build_star_family(family: str, k: int = 3, r: Fraction = Fraction(1)):
    if r == 1:
        return {"first": build_star_first, "second": build_star_second,
                "combined": build_star_combined}[family](k)
    return build_star_nonlinear(k, r, family)


def _build_nkm_family(family: str, n: int = 3, k: int = 2, m: int = 2,
                      wiring: Sequence[tuple[int, int, int]] = ((2, 0, 1),),
                      alice_recipients: Sequence[int] | None = None,
                      inter_bits: Mapping[int, int] | None = None):
    topo = network.nkm(n, k, m, wiring, alice_recipients)
    return _nkm_expr(topo, family, inter_bits)


SCENARIOS: dict[str, ScenarioInfo] = {
    "chsh": ScenarioInfo(
        "chsh", "chsh", "two-party baseline, bound 2, max 2*sqrt(2)",
        "none", ("first",), lambda family: build_chsh()),
    "two-source": ScenarioInfo(
        "two-source", "two-source-linear",
        "line network A-B-C with two pair sources",
        "none", ("first", "second", "combined"),
        lambda family: _two_source_expr(family)),
    "star": ScenarioInfo(
        "star", "star-linear/nonlinear",
        "K pair sources sharing a hub; r != 1 switches to the power form",
        "k (branches, >=2); r-num/r-den (odd/odd, rK < 2)",
        ("first", "second", "combined"), _build_star_family),
    "nkm": ScenarioInfo(
        "nkm", "nkm", "N pair sources, K branch parties, m hubs",
        "n, k, m; wiring 'src:hubA-hubB,...' (1-based) for sources > K; "
        "inter-bits 'src:bit,...'",
        ("first", "second"), _build_nkm_family),
    "ghz-a": ScenarioInfo(
        "ghz-a", "ghz-hub", "pair + three-qubit source, hub holds three qubits",
        "none", ("first", "second", "combined"),
        lambda family: build_ghz_a(family)),
    "ghz-b": ScenarioInfo(
        "ghz-b", "ghz-fanout", "pair + three-qubit source fanned out to 4 parties",
        "none", ("first",), lambda family: build_ghz_b()),
    "bilocal": ScenarioInfo(
        "bilocal", "bilocal-baseline",
        "square-root and linear two-source baselines (bilocal-model bounds)",
        "none", ("bi", "bil"),
        lambda family: build_bilocal_baseline()[family]),
}
