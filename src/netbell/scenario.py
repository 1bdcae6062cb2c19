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

Observables are grouped into families ("unprimed"/"primed").  Two families may
share a party's physical observable (then inputs and angles are shared) or
declare different ones (then combined tests relabel the party's inputs with a
family prefix bit, and angles are independent).

Star, two-source and (N, K, m) inequalities are one hub-and-branch
construction, built by one function from the topology alone (star and
two-source are one-hub (N, K, m) shapes).  A branch source is one that
reaches a single-qubit party; the i-th branch source, in source order, sets
label bit i, which is that party's exponent.  The hubs are the multi-qubit
parties, and each hub qubit reads its branch source's bit, or the fixed bit
of its hub-hub source.  A hub measures Z for bit 0 and, for bit 1, X (first
family) or Y (second) on branch qubits and X on hub-hub ones.  Every
correlator carries 1/2^K; the second family adds the parity sign (-1)^|y|.

Every layer reads the terms through one table, ``InequalityExpr.input_index``,
built on first use and cached on the expression: per term its inputs as
small integers, exponent bits, family, normalization (an integer over one
common denominator), Pauli letters, trig pattern, base and coefficient.
Certification, compilation and sampling read its arrays; only the builders,
the validation and the reports walk the ``Term`` objects.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import network
from .network import NetworkTopology, SourceSpec
from .pauli import LETTER_CODE

QUARTER_PI = math.pi / 4

UNPRIMED = "unprimed"
PRIMED = "primed"


@dataclass(frozen=True)
class SingleQubitObservable:
    """Input x in {0,1} selects cos(t) Z + (-1)^x sin(t) P on one qubit."""

    qubit: int
    plane: str  # "ZX" or "ZY"

    def __post_init__(self) -> None:
        if self.plane not in ("ZX", "ZY"):
            raise ValueError(f"plane must be ZX or ZY, got {self.plane!r}")


@dataclass(frozen=True)
class JointPauliObservable:
    """Input string selects one Pauli letter per owned qubit."""

    qubits: tuple[int, ...]
    letters: tuple[tuple[str, str], ...]  # (input, letter string), sorted

    def __post_init__(self) -> None:
        for inp, ls in self.letters:
            if len(ls) != len(self.qubits):
                raise ValueError(f"letter string {ls!r} does not match qubit count")
            if any(c not in "XYZ" for c in ls):
                raise ValueError(f"letters must be X/Y/Z, got {ls!r}")
        if list(self.letters) != sorted(self.letters):
            raise ValueError("letter map must be sorted by input")

    @classmethod
    def make(cls, qubits: Sequence[int],
             mapping: Mapping[str, str]) -> "JointPauliObservable":
        return cls(tuple(qubits), tuple(sorted(mapping.items())))

    @functools.cached_property
    def _letter_map(self) -> dict[str, str]:
        return dict(self.letters)

    def letters_for(self, inp: str) -> str:
        return self._letter_map[inp]  # KeyError on an unknown input


Observable = Union[SingleQubitObservable, JointPauliObservable]


@dataclass(frozen=True)
class Correlator:
    """One product term: exponents for singles, input strings for joints."""

    label: str
    exponents: tuple[tuple[str, int], ...]
    joint_inputs: tuple[tuple[str, str], ...]
    normalization: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))
        object.__setattr__(self, "joint_inputs", tuple(sorted(self.joint_inputs)))
        for _, e in self.exponents:
            if e not in (0, 1):
                raise ValueError("exponents are bits")

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

    def __post_init__(self) -> None:
        if self.coefficient not in (1, -1):
            raise ValueError("term coefficients are +-1")


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

    def seen(bound):  # numpy indexes fastest by intp: a block of codes at a time
        marked = np.zeros(bound, dtype=bool)
        for lo in range(0, len(code), 1 << 16):
            marked[code[lo:lo + (1 << 16)].astype(np.intp)] = True
        return marked

    bound, steps = 1, []  # steps: a folded column, or a renumbering's kept codes
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        if bound * sizes[i] > limit:
            kept = seen(bound)
            steps.append(np.flatnonzero(kept))
            bound = len(steps[-1])
            code = (np.cumsum(kept) - 1).astype(small_int(bound * sizes[i]))[code]
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


@dataclass(frozen=True, eq=False)
class InputIndex:
    """Every term of one expression as read-only arrays, the one table that
    certification, compilation and sampling all read.

    Parties run in topology order.  ``vocab[j]`` holds every qualified input
    label party j can receive, in first-use order.  ``inputs[t, j, x]`` is
    the vocabulary position of party j's input in term t for bit x; a joint
    party's one input fills both slots.  ``exponents[t, j]`` is the exponent
    bit of a single party (0 for a joint one), ``single[t, j]`` marks the
    singles and ``family[t]`` is the term's position in ``families()``.

    Term t reads the 2^s profiles (its cells) setting each single party j to
    ``inputs[t, j, x]``, numbered by their x bits in party order.  Terms with
    the same x = 0 row ``inputs[t, :, 0]`` read the same cells, and no term
    reads another's: a position is a single's or a joint's input throughout.

    Term t's normalization is ``scale[t] / denominator``: int64 numerators
    over the lcm of the normalizations' denominators.  ``base`` is
    normalization * 2^s rounded once, and ``coefficient`` the term's +-1.0.
    ``letters[t, q]`` is the ``pauli.LETTER_CODE`` of term t's segmented
    Pauli word on qubit q.  ``exps[t, j]`` is -1 where term t has no factor
    of angle ``keys[j]``, 0 for cos and 1 for sin.
    """

    parties: tuple[str, ...]
    vocab: tuple[tuple[str, ...], ...]
    inputs: np.ndarray       # (T, parties, 2)
    exponents: np.ndarray    # (T, parties) int8
    single: np.ndarray       # (T, parties) bool
    family: np.ndarray       # (T,)
    scale: np.ndarray        # (T,) int64
    denominator: int
    keys: tuple[tuple[str, str], ...]
    letters: np.ndarray      # (T, n) int8
    exps: np.ndarray         # (T, J) int8
    base: np.ndarray         # (T,)
    coefficient: np.ndarray  # (T,)


@dataclass(frozen=True)
class InequalityExpr:
    """A +-1-weighted sum of (possibly power-transformed) correlators."""

    name: str
    tag: str
    topology: NetworkTopology
    observables: tuple[tuple[str, tuple[tuple[str, Observable], ...]], ...]
    terms: tuple[Term, ...]
    exponent: Fraction = Fraction(1)
    absolute: bool = False
    classical_bound: float = 1.0
    claimed_quantum_max: float = 1.0
    bound_model: str = "genuine"  # or "bilocal"

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("inequality needs at least one term")
        labels = [t.correlator.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise ValueError("correlator labels must be unique")
        if not 0 < self.exponent <= 1:
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent}")
        if self.exponent != 1 and not self.absolute:
            if self.exponent.numerator % 2 == 0 or self.exponent.denominator % 2 == 0:
                raise ValueError("sign-preserving powers need odd/odd rationals")
        obs_maps = {f: dict(obs) for f, obs in reversed(self.observables)}
        party_set = set(self.topology.party_ids())
        for t in self.terms:
            obs = obs_maps.get(t.family)
            if obs is None:
                raise ValueError(f"term family {t.family!r} has no observables")
            exps, joints = t.correlator.exponent_map, t.correlator.joint_map
            covered = set(exps) | set(joints)
            if covered != party_set:
                raise ValueError(
                    f"correlator {t.correlator.label!r} covers {covered}, "
                    f"expected {party_set}")
            for party in exps:
                if not isinstance(obs.get(party), SingleQubitObservable):
                    raise ValueError(f"{party} is not single-qubit in {t.family}")
            for party, inp in joints.items():
                o = obs.get(party)
                if not isinstance(o, JointPauliObservable):
                    raise ValueError(f"{party} is not a joint party in {t.family}")
                o.letters_for(inp)  # raises on unknown input

    # -- accessors ------------------------------------------------------------

    def families(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.observables)

    def observables_for(self, family: str) -> dict[str, Observable]:
        for f, obs in self.observables:
            if f == family:
                return dict(obs)
        raise KeyError(family)

    def angle_keys(self) -> tuple[tuple[str, str], ...]:
        """Distinct (party, plane) pairs; shared observables share an angle."""
        keys = set()
        for _, obs in self.observables:
            for party, o in obs:
                if isinstance(o, SingleQubitObservable):
                    keys.add((party, o.plane))
        return tuple(sorted(keys))

    def party_variants(self, party: str) -> list[Observable]:
        """Distinct observable contents for a party, in family order."""
        variants: list[Observable] = []
        for _, obs in self.observables:
            for p, o in obs:
                if p == party and o not in variants:
                    variants.append(o)
        return variants

    def input_label(self, family: str, party: str, raw: str) -> str:
        """Round-log/strategy input label; family-prefixed iff observables differ."""
        if len(self.party_variants(party)) > 1:
            return str(self.families().index(family)) + raw
        return raw

    @functools.cached_property
    def input_index(self) -> InputIndex:
        """The term table; built on first use, then shared by every layer.

        Family by family and party by party, a single party writes its
        exponent into its angle's column and Z (exponent 0) or its plane's
        letter (1) on its qubit; a joint party's input selects its letters.
        """
        parties = self.topology.party_ids()
        families = self.families()
        fam_pos = {f: i for i, f in enumerate(families)}
        prefixed = [len(self.party_variants(p)) > 1 for p in parties]
        vocab: list[dict[str, int]] = [{} for _ in parties]
        shape = (len(self.terms), len(parties))
        inputs = np.zeros(shape + (2,), dtype=np.int64)
        exponents = np.zeros(shape, dtype=np.int8)
        single = np.zeros(shape, dtype=bool)
        family = np.zeros(len(self.terms), dtype=np.intp)
        for t, term in enumerate(self.terms):
            f = fam_pos[term.family]
            family[t], prefix = f, str(f)
            exps = term.correlator.exponent_map
            joints = term.correlator.joint_map
            for j, p in enumerate(parties):
                if p in exps:
                    raws = ("0", "1")
                    exponents[t, j] = exps[p]
                    single[t, j] = True
                else:
                    raws = (joints[p],) * 2
                for x, raw in enumerate(raws):
                    label = prefix + raw if prefixed[j] else raw
                    inputs[t, j, x] = vocab[j].setdefault(label, len(vocab[j]))
        width = max(len(v) for v in vocab)
        inputs = inputs.astype(small_int(width))

        keys = self.angle_keys()
        column = {key: j for j, key in enumerate(keys)}
        letters = np.zeros((len(self.terms), self.topology.n_qubits), dtype=np.int8)
        exps = np.full((len(self.terms), len(keys)), -1, dtype=np.int8)
        for f in sorted(set(family.tolist())):
            rows = np.flatnonzero(family == f)
            obs_map = self.observables_for(families[f])
            for j, party in enumerate(parties):
                obs = obs_map[party]
                if isinstance(obs, SingleQubitObservable):
                    e = exponents[rows, j]
                    exps[rows, column[(party, obs.plane)]] = e
                    letters[rows, obs.qubit] = np.where(
                        e == 0, LETTER_CODE["Z"], LETTER_CODE[obs.plane[1]])
                    continue
                positions = {label: v for v, label in enumerate(vocab[j])}
                prefix = self.input_label(families[f], party, "")  # family bit, if any
                by_input = np.zeros((len(positions), len(obs.qubits)), dtype=np.int8)
                for raw, word_letters in obs.letters:
                    if prefix + raw in positions:
                        by_input[positions[prefix + raw]] = [
                            LETTER_CODE[c] for c in word_letters]
                letters[np.ix_(rows, obs.qubits)] = by_input[inputs[rows, j, 0]]

        norms = [t.correlator.normalization for t in self.terms]
        denominator = math.lcm(*(n.denominator for n in norms))
        scale = [n.numerator * (denominator // n.denominator) for n in norms]
        # int / int rounds once, as float(normalization * 2^s) does
        base = np.array([(c << s) / denominator for c, s in
                         zip(scale, single.sum(axis=1).tolist())])
        coefficient = np.array([t.coefficient for t in self.terms], dtype=float)
        index = InputIndex(parties, tuple(tuple(v) for v in vocab), inputs,
                           exponents, single, family,
                           np.array(scale, dtype=np.int64), denominator, keys,
                           letters, exps, base, coefficient)
        for a in vars(index).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False  # shared by every layer
        return index

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


# -- builder helpers ----------------------------------------------------------

def _bit_labels(n_bits: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n_bits)]


def _letter_word(bits: str, one_letter: str) -> str:
    return "".join("Z" if b == "0" else one_letter for b in bits)


# -- CHSH and bilocal baselines ------------------------------------------------

def build_chsh() -> InequalityExpr:
    """Two-party baseline: 2 correlator groups, bound 2, maximum 2*sqrt(2).

    Correlators carry normalization 1, so the expression equals the familiar
    operator sum (A0+A1)B0 + (A0-A1)B1.
    """
    topo = network.chsh_pair()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make((1,), {"0": "Z", "1": "X"})),
    )
    terms = tuple(
        Term(1, Correlator(y, (("A", int(y)),), (("B", y),), Fraction(1)), UNPRIMED)
        for y in ("0", "1"))
    return InequalityExpr(
        name="chsh", tag="chsh", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        classical_bound=2.0, claimed_quantum_max=2.0 * math.sqrt(2.0))


def build_bilocal_baseline() -> dict[str, InequalityExpr]:
    """Square-root (bi) and linear (bil) two-source baselines.

    Their declared bounds hold for the bilocal model; the full
    shared-randomness polytope reaches sqrt(2) on (bi), which is why these
    under-detect and are kept only for comparison.
    """
    topo = network.two_source()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make((1, 2), {"00": "ZZ", "11": "XX"})),
        ("C", SingleQubitObservable(3, "ZX")),
    )
    def corr(y: str) -> Correlator:
        return Correlator(y, (("A", int(y[0])), ("C", int(y[1]))),
                          (("B", y),), Fraction(1, 4))
    terms = tuple(Term(1, corr(y), UNPRIMED) for y in ("00", "11"))
    bi = InequalityExpr(
        name="bilocal-bi", tag="bilocal-sqrt", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        exponent=Fraction(1, 2), absolute=True,
        classical_bound=1.0, claimed_quantum_max=math.sqrt(2.0),
        bound_model="bilocal")
    bil = InequalityExpr(
        name="bilocal-bil", tag="bilocal-linear", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        exponent=Fraction(1), absolute=True,
        classical_bound=1.0, claimed_quantum_max=1.0,
        bound_model="bilocal")
    return {"bi": bi, "bil": bil}


# -- hub-and-branch networks: star, two-source, (N, K, m) ---------------------

# which -> (family, plane, signed, label prefix) per family it holds
_HUB_FAMILIES = {
    "first": ((UNPRIMED, "ZX", False, ""),),
    "second": ((PRIMED, "ZY", True, ""),),
    "combined": ((UNPRIMED, "ZX", False, "0"), (PRIMED, "ZY", True, "1")),
}


_MAX_HUB_TERMS = 1 << 17  # star combined K=16; one more branch doubles it


def _branch_sources(topology: NetworkTopology) -> list[SourceSpec]:
    """The sources, in source order, that reach a single-qubit party."""
    single = {p.id for p in topology.parties if len(p.qubits) == 1}
    return [s for s in topology.sources if single.intersection(s.recipients)]


def _hub_family(topology: NetworkTopology, family: str, plane: str,
                signed: bool, prefix: str, inter_bits: Mapping[int, int] | None):
    """One hub-and-branch family: (sorted observables, terms, K).

    Branch source i (the i-th source, in source order, that reaches a
    single-qubit party) sets label bit i, which is that party's exponent.
    Each hub qubit reads its branch source's bit, or the fixed
    ``inter_bits`` bit (default 0) of its hub-hub source: Z for 0, the
    plane's letter (branch) or X (hub-hub) for 1.
    """
    single = {p.id for p in topology.parties if len(p.qubits) == 1}
    branches = _branch_sources(topology)
    k = len(branches)
    if k < 1:
        raise ValueError("need at least one branch source")
    fixed = dict(inter_bits or {})
    if not set(fixed.values()) <= {0, 1}:
        raise ValueError(f"inter bits must be 0 or 1, got {fixed}")
    stray = sorted(set(fixed) - {s.id for s in topology.sources if s not in branches})
    if stray:
        raise network.SourceError(
            "inter bits name source {}, which is not a hub-hub source", stray[0])
    # hub qubit -> position in label + "01" (the fixed bits sit at k, k + 1)
    position = {q: k + fixed.get(s.id, 0) for s in topology.sources for q in s.qubits}
    names = []
    for i, s in enumerate(branches):
        names.append(next(r for r in s.recipients if r in single))
        position.update(dict.fromkeys(s.qubits, i))
    hubs = [(p.id, p.qubits, operator.itemgetter(*(position[q] for q in p.qubits)))
            for p in topology.parties if len(p.qubits) > 1]
    letter = str.maketrans("01", "Z" + plane[1])
    maps: list[dict[str, str]] = [{} for _ in hubs]
    terms = []
    for y in _bit_labels(k):
        bits, letters = y + "01", y.translate(letter) + "ZX"
        inputs = []
        for (hub, _, pick), mapping in zip(hubs, maps):
            inp = "".join(pick(bits))
            mapping[inp] = "".join(pick(letters))
            inputs.append((hub, inp))
        corr = Correlator(prefix + y, tuple(zip(names, map(int, y))),
                          tuple(inputs), Fraction(1, 1 << k))
        terms.append(Term((-1) ** y.count("1") if signed else 1, corr, family))
    obs = [(name, SingleQubitObservable(topology.party(name).qubits[0], plane))
           for name in names]
    obs += [(hub, JointPauliObservable.make(qubits, mapping))
            for (hub, qubits, _), mapping in zip(hubs, maps)]
    return tuple(sorted(obs)), tuple(terms), k


def _hub_expr(topology: NetworkTopology, which: str, name: str, tag: str,
              inter_bits: Mapping[int, int] | None = None) -> InequalityExpr:
    """The first (Z/X), second (Z/Y, signed) or combined hub inequality.

    Each family has bound 1 and maximum 2^(K/2); combined adds both.  The
    term count, families x 2^K, is checked before anything is built.
    """
    n_terms = len(_HUB_FAMILIES[which]) << len(_branch_sources(topology))
    if n_terms > _MAX_HUB_TERMS:
        raise ValueError(f"{name} would have {n_terms} terms, over the "
                         f"limit of {_MAX_HUB_TERMS}")
    observables, terms = [], ()
    for family, plane, signed, prefix in _HUB_FAMILIES[which]:
        obs, fam_terms, k = _hub_family(topology, family, plane, signed,
                                        prefix, inter_bits)
        observables.append((family, obs))
        terms += fam_terms
    n = len(observables)
    return InequalityExpr(
        name=name, tag=tag, topology=topology, observables=tuple(observables),
        terms=terms, classical_bound=float(n),
        claimed_quantum_max=n * 2.0 ** (k / 2))


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


# -- GHZ-source scenarios ---------------------------------------------------------

GHZ_A_LABELS = ("001", "000", "100", "110")
GHZ_A_LABELS_PRIMED = ("010", "000", "100", "101")


def _ghz_a_observables():
    return (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make(
            (1, 2, 3), {y: _letter_word(y, "X") for y in _bit_labels(3)})),
        ("C", SingleQubitObservable(4, "ZX")),
    )


def _ghz_a_term(label: str, family: str, suffix: str = "") -> Term:
    y2, y3, y4 = (int(c) for c in label)
    corr = Correlator(label + suffix,
                      (("A", y2), ("C", (y3 + y4 + 1) % 2)),
                      (("B", label),), Fraction(1, 4))
    return Term(1, corr, family)


def build_ghz_a(variant: str = "combined") -> InequalityExpr:
    """Pair + three-qubit-source scenario with the hub holding three qubits.

    Both label sets use the same physical observables (the letter map is Z/X
    for each), so the two families share inputs and angles; the label sets
    overlap on 000 and 100 and the combined expression counts those twice.
    """
    topo = network.ghz_case_a()
    obs = _ghz_a_observables()
    first = tuple(_ghz_a_term(y, UNPRIMED) for y in sorted(GHZ_A_LABELS))
    second = tuple(_ghz_a_term(y, PRIMED, "'") for y in sorted(GHZ_A_LABELS_PRIMED))
    if variant == "first":
        return InequalityExpr(
            name="ghz-a-first", tag="ghz-hub-first", topology=topo,
            observables=((UNPRIMED, obs),), terms=first,
            classical_bound=1.0, claimed_quantum_max=2.0)
    if variant == "second":
        return InequalityExpr(
            name="ghz-a-second", tag="ghz-hub-second", topology=topo,
            observables=((PRIMED, obs),), terms=second,
            classical_bound=1.0, claimed_quantum_max=2.0)
    if variant == "combined":
        return InequalityExpr(
            name="ghz-a-combined", tag="ghz-hub-combined", topology=topo,
            observables=((UNPRIMED, obs), (PRIMED, obs)), terms=first + second,
            classical_bound=2.0, claimed_quantum_max=4.0)
    raise ValueError(f"unknown variant {variant!r}")


def build_ghz_b() -> InequalityExpr:
    """Pair + fanned-out three-qubit source: one family of 8 signed correlators.

    Both correlator variants (plain and primed exponent patterns) share every
    observable; jointly they tile all 8 single-party sign cells, which is why
    the bound is 1.  At pi/4 the 8 segmented operators are, up to the 1/(2
    sqrt 2) coefficient, {Z1Z2, X1X2} x {Z3Z4X5, Z3X4Z5, X3Z4Z5, -X3X4X5}.
    """
    topo = network.ghz_case_b()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make(
            (1, 2), {y: _letter_word(y, "X") for y in _bit_labels(2)})),
        ("C1", SingleQubitObservable(3, "ZX")),
        ("C2", SingleQubitObservable(4, "ZX")),
    )
    terms = []
    for y in _bit_labels(2):
        y2, y3 = int(y[0]), int(y[1])
        corr = Correlator(y,
                          (("A", y2), ("C1", y2), ("C2", (y2 + y3 + 1) % 2)),
                          (("B", y),), Fraction(1, 8))
        terms.append(Term((-1) ** (y2 * y3), corr, UNPRIMED))
    for y in _bit_labels(2):
        y2, y3 = int(y[0]), int(y[1])
        corr = Correlator(y + "'",
                          (("A", y2), ("C1", 1 - y2), ("C2", (y2 + y3) % 2)),
                          (("B", y),), Fraction(1, 8))
        terms.append(Term((-1) ** ((1 - y2) * y3), corr, UNPRIMED))
    return InequalityExpr(
        name="ghz-b", tag="ghz-fanout", topology=topo,
        observables=((UNPRIMED, obs),), terms=tuple(terms),
        classical_bound=1.0, claimed_quantum_max=2.0 * math.sqrt(2.0))


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
