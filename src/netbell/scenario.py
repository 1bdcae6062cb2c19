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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import network
from .network import NetworkTopology
from .pauli import PauliString, word

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

    def letters_for(self, inp: str) -> str:
        for key, ls in self.letters:
            if key == inp:
                return ls
        raise KeyError(inp)

    def inputs(self) -> tuple[str, ...]:
        return tuple(inp for inp, _ in self.letters)


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

    @property
    def n_single(self) -> int:
        return len(self.exponents)


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


@dataclass(frozen=True, eq=False)
class InputIndex:
    """One expression's inputs in topology party order, as small integers.

    ``vocab[j]`` holds party j's qualified input labels (what
    ``party_inputs`` returns).  ``inputs[t, j, x]`` is the vocabulary
    position of party j's input in term t for bit x; a joint party's one
    input fills both slots.  ``exponents[t, j]`` is the exponent bit of a
    single party (0 for a joint one) and ``single[t, j]`` marks the singles.
    """

    parties: tuple[str, ...]
    vocab: tuple[tuple[str, ...], ...]
    inputs: np.ndarray
    exponents: np.ndarray
    single: np.ndarray

    @functools.cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term's input cells: per-party inputs and sign (-1)^(x.e).

        Column c of a term with s singles is the input profile whose bits,
        in party order, are the binary digits of c (most significant first,
        the ``itertools.product`` order); ``inputs[j, t, c]`` is party j's
        vocabulary position there.  Columns from 2^s on are padding, with
        sign 0.
        """
        n_single = self.single.sum(axis=1)
        col = np.arange(1 << int(n_single.max(initial=0)))
        rank = n_single[:, None] - np.cumsum(self.single, axis=1)  # bit shift
        valid = col < (1 << n_single)[:, None]
        inputs = np.empty((len(self.parties),) + valid.shape, dtype=self.inputs.dtype)
        parity = np.zeros(valid.shape, dtype=np.int64)
        for j in range(len(self.parties)):
            bit = np.where(valid & self.single[:, j, None],
                           (col >> rank[:, j, None]) & 1, 0)
            inputs[j] = np.take_along_axis(self.inputs[:, j, :], bit, axis=1)
            parity += bit * self.exponents[:, j, None]
        return inputs, np.where(valid, 1.0 - 2.0 * (parity & 1), 0.0)


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
        if self.exponent != 1 and not self.absolute:
            if self.exponent.numerator % 2 == 0 or self.exponent.denominator % 2 == 0:
                raise ValueError("sign-preserving powers need odd/odd rationals")
        fam_names = [f for f, _ in self.observables]
        party_set = set(self.topology.party_ids())
        for t in self.terms:
            if t.family not in fam_names:
                raise ValueError(f"term family {t.family!r} has no observables")
            obs = self.observables_for(t.family)
            covered = set(t.correlator.exponent_map) | set(t.correlator.joint_map)
            if covered != party_set:
                raise ValueError(
                    f"correlator {t.correlator.label!r} covers {covered}, "
                    f"expected {party_set}")
            for party in t.correlator.exponent_map:
                if not isinstance(obs.get(party), SingleQubitObservable):
                    raise ValueError(f"{party} is not single-qubit in {t.family}")
            for party, inp in t.correlator.joint_map.items():
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

    def terms_for(self, family: str) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.family == family)

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

    def party_inputs(self, party: str) -> tuple[str, ...]:
        """All distinct qualified input labels a party can receive."""
        index = self.input_index
        return dict(zip(index.parties, index.vocab)).get(party, ())

    @functools.cached_property
    def input_index(self) -> InputIndex:
        """Every term's inputs as vocabulary positions; built on first use."""
        parties = self.topology.party_ids()
        fam_pos = {f: str(i) for i, f in enumerate(self.families())}
        prefixed = [len(self.party_variants(p)) > 1 for p in parties]
        vocab: list[dict[str, int]] = [{} for _ in parties]
        shape = (len(self.terms), len(parties))
        inputs = np.zeros(shape + (2,), dtype=np.int64)
        exponents = np.zeros(shape, dtype=np.int8)
        single = np.zeros(shape, dtype=bool)
        for t, term in enumerate(self.terms):
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
                    label = fam_pos[term.family] + raw if prefixed[j] else raw
                    inputs[t, j, x] = vocab[j].setdefault(label, len(vocab[j]))
        width = max(len(v) for v in vocab)
        return InputIndex(parties, tuple(tuple(v) for v in vocab),
                          inputs.astype(small_int(width)), exponents, single)

    def n_strategies_raw(self) -> int:
        count = 1
        for party in self.topology.party_ids():
            count *= 2 ** len(self.party_inputs(party))
        return count

    def value_scale(self, family: str) -> float:
        """|correlator| of a firing deterministic strategy (norm * 2^#singles)."""
        scales = {float(t.correlator.normalization * 2 ** t.correlator.n_single)
                  for t in self.terms_for(family)}
        if len(scales) != 1:
            raise ValueError(f"family {family!r} mixes correlator scales")
        return scales.pop()

    def power(self, v):
        """The correlator transform: identity, sign-preserving v^r, or |v|^r.

        At r = 1 an exact Fraction stays exact.
        """
        if self.exponent == 1:
            return abs(v) if self.absolute else v
        r = float(self.exponent)
        v = float(v)
        return abs(v) ** r if self.absolute else math.copysign(abs(v) ** r, v)

    def power_slope(self, v: float) -> float:
        """d power(v) / dv, with |v| floored at 1e-12 where v^(r-1) diverges."""
        if self.exponent == 1:
            return math.copysign(1.0, v) if self.absolute else 1.0
        r = float(self.exponent)
        d = r * max(abs(v), 1e-12) ** (r - 1.0)
        return math.copysign(d, v) if self.absolute else d


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


def segmented_operator(corr: Correlator, obs_map: Mapping[str, Observable],
                       n_qubits: int,
                       angles: AngleMap | None = None) -> tuple[float, PauliString]:
    """Collapse a correlator into (coefficient, Pauli word) at given angles."""
    letters: dict[int, str] = {}
    trig: list[tuple[float, int]] = []  # (theta, exponent bit)
    for party, e in corr.exponents:
        obs = obs_map[party]
        assert isinstance(obs, SingleQubitObservable)
        theta = QUARTER_PI
        if angles is not None:
            theta = angles.get((party, obs.plane), QUARTER_PI)
        letters[obs.qubit] = "Z" if e == 0 else obs.plane[1]
        trig.append((theta, e))
    for party, inp in corr.joint_inputs:
        obs = obs_map[party]
        assert isinstance(obs, JointPauliObservable)
        for q, letter in zip(obs.qubits, obs.letters_for(inp)):
            letters[q] = letter
    s = len(trig)
    if all(theta == QUARTER_PI for theta, _ in trig):
        # exact power-of-two coefficient at the symmetric point
        prod = 2.0 ** (-s / 2)
    else:
        prod = 1.0
        for theta, e in trig:
            prod *= math.sin(theta) if e else math.cos(theta)
    coefficient = float(corr.normalization * (1 << s)) * prod
    return coefficient, word(letters, n_qubits)


# -- builder helpers ----------------------------------------------------------

def _bit_labels(n_bits: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n_bits)]


def _letter_word(bits: str, one_letter: str) -> str:
    return "".join("Z" if b == "0" else one_letter for b in bits)


def _pow2(e: float) -> float:
    return 2.0 ** e


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


# -- star networks -------------------------------------------------------------

def _star_family(k: int, plane: str):
    """Observable map for one star family: branches in a plane, hub letters."""
    one = plane[1]
    labels = _bit_labels(k)
    hub = tuple(range(k))
    obs = [("B", JointPauliObservable.make(
        hub, {y: _letter_word(y, one) for y in labels}))]
    for i in range(k):
        obs.append((f"A{i + 1}", SingleQubitObservable(k + i, plane)))
    return tuple(sorted(obs)), labels


def _star_terms(k: int, family: str, signed: bool,
                label_prefix: str = "") -> tuple[Term, ...]:
    terms = []
    for y in _bit_labels(k):
        coeff = (-1) ** y.count("1") if signed else 1
        corr = Correlator(label_prefix + y,
                          tuple((f"A{i + 1}", int(y[i])) for i in range(k)),
                          (("B", y),), Fraction(1, 2 ** k))
        terms.append(Term(coeff, corr, family))
    return tuple(terms)


def build_star_first(k: int) -> InequalityExpr:
    """Hub-and-branch family with Z/X letters: bound 1, maximum 2^(K/2)."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs, _ = _star_family(k, "ZX")
    return InequalityExpr(
        name=f"star-first-k{k}", tag=f"star-linear-first[K={k}]", topology=topo,
        observables=((UNPRIMED, obs),), terms=_star_terms(k, UNPRIMED, False),
        classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))


def build_star_second(k: int) -> InequalityExpr:
    """Hub-and-branch family with Z/Y letters and parity signs."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs, _ = _star_family(k, "ZY")
    return InequalityExpr(
        name=f"star-second-k{k}", tag=f"star-linear-second[K={k}]", topology=topo,
        observables=((PRIMED, obs),), terms=_star_terms(k, PRIMED, True),
        classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))


def build_star_combined(k: int) -> InequalityExpr:
    """Both star families at once; branch inputs are relabeled with a family bit."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs_zx, _ = _star_family(k, "ZX")
    obs_zy, _ = _star_family(k, "ZY")
    terms = (_star_terms(k, UNPRIMED, False, label_prefix="0")
             + _star_terms(k, PRIMED, True, label_prefix="1"))
    return InequalityExpr(
        name=f"star-combined-k{k}", tag=f"star-linear-combined[K={k}]", topology=topo,
        observables=((UNPRIMED, obs_zx), (PRIMED, obs_zy)), terms=terms,
        classical_bound=2.0, claimed_quantum_max=2.0 * _pow2(k / 2))


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
    base = {
        "first": build_star_first(k),
        "second": build_star_second(k),
        "combined": build_star_combined(k),
    }[family]
    extra = 1 if family == "combined" else 0
    return InequalityExpr(
        name=f"star-nonlinear-{family}-k{k}-r{r.numerator}over{r.denominator}",
        tag=f"star-nonlinear-{family}[K={k},r={r}]",
        topology=base.topology, observables=base.observables, terms=base.terms,
        exponent=r,
        classical_bound=_pow2(k + extra - float(t)),
        claimed_quantum_max=_pow2(k + extra - float(t) / 2))


# -- two-source line scenario ---------------------------------------------------

def _two_source_family(plane: str):
    one = plane[1]
    obs = (
        ("A", SingleQubitObservable(0, plane)),
        ("B", JointPauliObservable.make(
            (1, 2), {y: _letter_word(y, one) for y in _bit_labels(2)})),
        ("C", SingleQubitObservable(3, plane)),
    )
    return obs


def _two_source_terms(family: str, signed: bool,
                      label_prefix: str = "") -> tuple[Term, ...]:
    terms = []
    for y in _bit_labels(2):
        coeff = (-1) ** y.count("1") if signed else 1
        corr = Correlator(label_prefix + y,
                          (("A", int(y[0])), ("C", int(y[1]))),
                          (("B", y),), Fraction(1, 4))
        terms.append(Term(coeff, corr, family))
    return tuple(terms)


def build_two_source_linear() -> dict[str, InequalityExpr]:
    """Line-network families: Z/X letters, Z/Y letters with signs, and both."""
    topo = network.two_source()
    first = InequalityExpr(
        name="two-source-first", tag="two-source-linear-first", topology=topo,
        observables=((UNPRIMED, _two_source_family("ZX")),),
        terms=_two_source_terms(UNPRIMED, False),
        classical_bound=1.0, claimed_quantum_max=2.0)
    second = InequalityExpr(
        name="two-source-second", tag="two-source-linear-second", topology=topo,
        observables=((PRIMED, _two_source_family("ZY")),),
        terms=_two_source_terms(PRIMED, True),
        classical_bound=1.0, claimed_quantum_max=2.0)
    combined = InequalityExpr(
        name="two-source-combined", tag="two-source-linear-combined", topology=topo,
        observables=((UNPRIMED, _two_source_family("ZX")),
                     (PRIMED, _two_source_family("ZY"))),
        terms=(_two_source_terms(UNPRIMED, False, "0")
               + _two_source_terms(PRIMED, True, "1")),
        classical_bound=2.0, claimed_quantum_max=4.0)
    return {"first": first, "second": second, "combined": combined}


# -- general (N, K, m) networks --------------------------------------------------

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
    inter_bits = dict(inter_bits or {})
    branch_sources = [s for s in topology.sources
                      if any(r.startswith("A") for r in s.recipients)]
    k = len(branch_sources)
    if k < 1:
        raise ValueError("need at least one branch source")
    branch_index = {s.id: i for i, s in enumerate(branch_sources)}
    hubs = [p for p in topology.parties if p.id.startswith("B")]
    labels = _bit_labels(k)

    def hub_input(hub: network.Party, y: str) -> str:
        bits = []
        for q in hub.qubits:
            src = topology.source_of(q)
            if src.id in branch_index:
                bits.append(y[branch_index[src.id]])
            else:
                bits.append(str(inter_bits.get(src.id, 0)))
        return "".join(bits)

    def family_expr(fam: str, plane: str, signed: bool) -> InequalityExpr:
        one = plane[1]
        obs: list[tuple[str, Observable]] = []
        for i in range(k):
            qubit = topology.party(f"A{i + 1}").qubits[0]
            obs.append((f"A{i + 1}", SingleQubitObservable(qubit, plane)))
        for hub in hubs:
            mapping: dict[str, str] = {}
            for y in labels:
                inp = hub_input(hub, y)
                letters = []
                for q, bit in zip(hub.qubits, inp):
                    src = topology.source_of(q)
                    letter_one = one if src.id in branch_index else "X"
                    letters.append("Z" if bit == "0" else letter_one)
                mapping[inp] = "".join(letters)
            obs.append((hub.id, JointPauliObservable.make(hub.qubits, mapping)))
        terms = []
        for y in labels:
            coeff = (-1) ** y.count("1") if signed else 1
            corr = Correlator(
                y,
                tuple((f"A{i + 1}", int(y[i])) for i in range(k)),
                tuple((hub.id, hub_input(hub, y)) for hub in hubs),
                Fraction(1, 2 ** k))
            terms.append(Term(coeff, corr, fam))
        n = len(topology.sources)
        m = len(hubs)
        return InequalityExpr(
            name=f"nkm-{fam}-n{n}k{k}m{m}",
            tag=f"nkm-{('first' if not signed else 'second')}[N={n},K={k},m={m}]",
            topology=topology,
            observables=((fam, tuple(sorted(obs))),), terms=tuple(terms),
            classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))

    return {"first": family_expr(UNPRIMED, "ZX", False),
            "second": family_expr(PRIMED, "ZY", True)}


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
    name: str
    tag: str
    summary: str
    params: str
    families: tuple[str, ...]
    build: Callable[..., Mapping[str, InequalityExpr]] = field(repr=False)


def _build_star_scenario(k: int = 3, r: Fraction = Fraction(1), **_):
    if r == 1:
        return {"first": build_star_first(k), "second": build_star_second(k),
                "combined": build_star_combined(k)}
    return {fam: build_star_nonlinear(k, r, fam)
            for fam in ("first", "second", "combined")}


def _build_nkm_scenario(n: int = 3, k: int = 2, m: int = 2,
                        wiring: Sequence[tuple[int, int, int]] = ((2, 0, 1),),
                        alice_recipients: Sequence[int] | None = None,
                        inter_bits: Mapping[int, int] | None = None, **_):
    topo = network.nkm(n, k, m, wiring, alice_recipients)
    return build_nkm(topo, inter_bits)


SCENARIOS: dict[str, ScenarioInfo] = {
    "chsh": ScenarioInfo(
        "chsh", "chsh", "two-party baseline, bound 2, max 2*sqrt(2)",
        "none", ("first",), lambda **_: {"first": build_chsh()}),
    "two-source": ScenarioInfo(
        "two-source", "two-source-linear",
        "line network A-B-C with two pair sources",
        "none", ("first", "second", "combined"),
        lambda **_: build_two_source_linear()),
    "star": ScenarioInfo(
        "star", "star-linear/nonlinear",
        "K pair sources sharing a hub; r != 1 switches to the power form",
        "k (branches, >=2); r-num/r-den (odd/odd, rK < 2)",
        ("first", "second", "combined"), _build_star_scenario),
    "nkm": ScenarioInfo(
        "nkm", "nkm", "N pair sources, K branch parties, m hubs",
        "n, k, m; wiring 'src:hubA-hubB,...' (1-based) for sources > K; "
        "inter-bits 'src:bit,...'",
        ("first", "second"), _build_nkm_scenario),
    "ghz-a": ScenarioInfo(
        "ghz-a", "ghz-hub", "pair + three-qubit source, hub holds three qubits",
        "none", ("first", "second", "combined"),
        lambda **_: {v: build_ghz_a(v) for v in ("first", "second", "combined")}),
    "ghz-b": ScenarioInfo(
        "ghz-b", "ghz-fanout", "pair + three-qubit source fanned out to 4 parties",
        "none", ("first",), lambda **_: {"first": build_ghz_b()}),
    "bilocal": ScenarioInfo(
        "bilocal", "bilocal-baseline",
        "square-root and linear two-source baselines (bilocal-model bounds)",
        "none", ("bi", "bil"), lambda **_: build_bilocal_baseline()),
}
