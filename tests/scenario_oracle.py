"""The per-term object model of ``scenario``, and reference builders in it.

An expression here is a ``Model``: per family one observable per party
(``SingleQubitObservable`` or ``JointPauliObservable``) and one ``Term``
per label, as the package held them before its builders wrote the term
table directly.  ``Model.input_index`` is the per-term loop that turned
those objects into the table, and ``Model.expr`` hands the table to the
package's one constructor, so an edited model is an expression.  Every
builder's ``InputIndex`` must equal the loop's on the reference builders
below (``assert_same_index``): the hub-and-branch ones for star,
two-source and (N, K, m), and CHSH, the bilocal pair and the GHZ-source
cases, written out label by label.

``observables_for`` reads one family's observables back from an
expression's table, for the reference loops that work per observable.

``segmented_operator`` is the per-term collapse of a correlator into one
coefficient and one Pauli word, the reading of the terms that the table's
letter and trig arrays replace.  ``party_inputs``, ``n_single`` and
``source_of`` are the per-object lookups that the tests and the builders
here use.
"""

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from netbell import network
from netbell.network import NetworkTopology, SourceSpec
from netbell.pauli import LETTER_CODE, PauliString, word
from netbell.scenario import (
    PRIMED,
    QUARTER_PI,
    UNPRIMED,
    AngleMap,
    Correlator,
    InequalityExpr,
    InputIndex,
    Term,
)

CODE_LETTER = {code: letter for letter, code in LETTER_CODE.items()}


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


def correlator(label: str, exponents, joint_inputs,
               normalization: Fraction) -> Correlator:
    """A ``Correlator`` record with its parties sorted, as the package's are."""
    return Correlator(label, tuple(sorted(exponents)), tuple(sorted(joint_inputs)),
                      Fraction(normalization))


@dataclass(frozen=True)
class Model:
    """An expression as objects: observables per family and a term per label."""

    name: str
    tag: str
    topology: NetworkTopology
    observables: tuple[tuple[str, tuple[tuple[str, Observable], ...]], ...]
    terms: tuple[Term, ...]
    exponent: Fraction = Fraction(1)
    absolute: bool = False
    classical_bound: float = 1.0
    claimed_quantum_max: float = 1.0
    bound_model: str = "genuine"

    def families(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.observables)

    def angle_keys(self) -> tuple[tuple[str, str], ...]:
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
        if len(self.party_variants(party)) > 1:
            return str(self.families().index(family)) + raw
        return raw

    def input_index(self) -> InputIndex:
        """The term table, term by term and party by party.

        A single party writes its exponent into its angle's column and Z
        (exponent 0) or its plane's letter (1) on its qubit; a joint party's
        input selects its letters.
        """
        parties = self.topology.party_ids()
        families = self.families()
        fam_pos = {f: i for i, f in enumerate(families)}
        prefixed = tuple(len(self.party_variants(p)) > 1 for p in parties)
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

        keys = self.angle_keys()
        column = {key: j for j, key in enumerate(keys)}
        letters = np.zeros((len(self.terms), self.topology.n_qubits), dtype=np.int8)
        exps = np.full((len(self.terms), len(keys)), -1, dtype=np.int8)
        for f in sorted(set(family.tolist())):
            rows = np.flatnonzero(family == f)
            obs_map = dict(self.observables[f][1])
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
        return InputIndex(
            parties, families, tuple(t.correlator.label for t in self.terms),
            family, np.array([t.coefficient for t in self.terms]),
            tuple(tuple(v) for v in vocab), prefixed, inputs, exponents, single,
            np.array(scale, dtype=np.int64), denominator, keys, letters, exps)

    def expr(self) -> InequalityExpr:
        """The expression: this model's table, through the package's constructor."""
        return InequalityExpr(
            self.name, self.tag, self.topology, self.input_index(), self.exponent,
            self.absolute, self.classical_bound, self.claimed_quantum_max,
            self.bound_model)


def observables_for(expr, family: str) -> dict[str, Observable]:
    """Each party's observable in ``family``: a model's own, or read back from
    an expression's table.  A joint observable read back holds the inputs
    the family's terms use, each with the letters its terms measure."""
    if isinstance(expr, Model):
        return dict(expr.observables[expr.families().index(family)][1])
    ix = expr.input_index
    rows = np.flatnonzero(ix.family == ix.families.index(family))
    out: dict[str, Observable] = {}
    for j, party in enumerate(expr.topology.parties):
        if ix.single[rows, j].all():
            (plane,) = {plane for c, (p, plane) in enumerate(ix.keys)
                        if p == party.id and (ix.exps[rows, c] >= 0).any()}
            out[party.id] = SingleQubitObservable(party.qubits[0], plane)
            continue
        mapping = {}
        for t in rows.tolist():
            raw = ix.vocab[j][ix.inputs[t, j, 0]][1 if ix.prefixed[j] else 0:]
            mapping[raw] = "".join(CODE_LETTER[c] for c in
                                   ix.letters[t, list(party.qubits)].tolist())
        out[party.id] = JointPauliObservable.make(party.qubits, mapping)
    return out


def assert_same_index(got: InputIndex, want: InputIndex) -> None:
    """Every field equal: tuples, and arrays in value, shape and dtype."""
    for f in dataclasses.fields(InputIndex):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def assert_matches(expr: InequalityExpr, model: Model) -> None:
    """``expr`` is ``model``: the same table, fields, terms and observables
    (each joint input the terms use measures the model's letters)."""
    assert_same_index(expr.input_index, model.input_index())
    for f in ("name", "tag", "topology", "exponent", "absolute",
              "classical_bound", "claimed_quantum_max", "bound_model"):
        assert getattr(expr, f) == getattr(model, f), f
    assert expr.terms == model.terms
    assert expr.families() == model.families()
    assert expr.angle_keys() == model.angle_keys()
    for family in model.families():
        want = observables_for(model, family)
        for party, obs in observables_for(expr, family).items():
            if isinstance(obs, SingleQubitObservable):
                assert obs == want[party], (family, party)
            else:
                assert obs.qubits == want[party].qubits
                for inp, letters in obs.letters:
                    assert want[party].letters_for(inp) == letters, (family, party, inp)


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


def party_inputs(expr: InequalityExpr, party: str) -> tuple[str, ...]:
    """All distinct qualified input labels a party can receive."""
    index = expr.input_index
    return dict(zip(index.parties, index.vocab)).get(party, ())


def n_single(corr: Correlator) -> int:
    return len(corr.exponents)


def source_of(topology: NetworkTopology, qubit: int) -> SourceSpec:
    for s in topology.sources:
        if qubit in s.qubits:
            return s
    raise KeyError(qubit)


def _bit_labels(n_bits: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n_bits)]


def _letter_word(bits: str, one_letter: str) -> str:
    return "".join("Z" if b == "0" else one_letter for b in bits)


def _pow2(e: float) -> float:
    return 2.0 ** e


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
        corr = correlator(label_prefix + y,
                          tuple((f"A{i + 1}", int(y[i])) for i in range(k)),
                          (("B", y),), Fraction(1, 2 ** k))
        terms.append(Term(coeff, corr, family))
    return tuple(terms)


def build_star_first(k: int) -> Model:
    """Hub-and-branch family with Z/X letters: bound 1, maximum 2^(K/2)."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs, _ = _star_family(k, "ZX")
    return Model(
        name=f"star-first-k{k}", tag=f"star-linear-first[K={k}]", topology=topo,
        observables=((UNPRIMED, obs),), terms=_star_terms(k, UNPRIMED, False),
        classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))


def build_star_second(k: int) -> Model:
    """Hub-and-branch family with Z/Y letters and parity signs."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs, _ = _star_family(k, "ZY")
    return Model(
        name=f"star-second-k{k}", tag=f"star-linear-second[K={k}]", topology=topo,
        observables=((PRIMED, obs),), terms=_star_terms(k, PRIMED, True),
        classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))


def build_star_combined(k: int) -> Model:
    """Both star families at once; branch inputs are relabeled with a family bit."""
    if k < 2:
        raise ValueError("star scenarios need K >= 2")
    topo = network.star(k)
    obs_zx, _ = _star_family(k, "ZX")
    obs_zy, _ = _star_family(k, "ZY")
    terms = (_star_terms(k, UNPRIMED, False, label_prefix="0")
             + _star_terms(k, PRIMED, True, label_prefix="1"))
    return Model(
        name=f"star-combined-k{k}", tag=f"star-linear-combined[K={k}]", topology=topo,
        observables=((UNPRIMED, obs_zx), (PRIMED, obs_zy)), terms=terms,
        classical_bound=2.0, claimed_quantum_max=2.0 * _pow2(k / 2))


def build_star_nonlinear(k: int, r: Fraction,
                         family: str = "first") -> Model:
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
    return Model(
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
        corr = correlator(label_prefix + y,
                          (("A", int(y[0])), ("C", int(y[1]))),
                          (("B", y),), Fraction(1, 4))
        terms.append(Term(coeff, corr, family))
    return tuple(terms)


def build_two_source_linear() -> dict[str, Model]:
    """Line-network families: Z/X letters, Z/Y letters with signs, and both."""
    topo = network.two_source()
    first = Model(
        name="two-source-first", tag="two-source-linear-first", topology=topo,
        observables=((UNPRIMED, _two_source_family("ZX")),),
        terms=_two_source_terms(UNPRIMED, False),
        classical_bound=1.0, claimed_quantum_max=2.0)
    second = Model(
        name="two-source-second", tag="two-source-linear-second", topology=topo,
        observables=((PRIMED, _two_source_family("ZY")),),
        terms=_two_source_terms(PRIMED, True),
        classical_bound=1.0, claimed_quantum_max=2.0)
    combined = Model(
        name="two-source-combined", tag="two-source-linear-combined", topology=topo,
        observables=((UNPRIMED, _two_source_family("ZX")),
                     (PRIMED, _two_source_family("ZY"))),
        terms=(_two_source_terms(UNPRIMED, False, "0")
               + _two_source_terms(PRIMED, True, "1")),
        classical_bound=2.0, claimed_quantum_max=4.0)
    return {"first": first, "second": second, "combined": combined}


# -- general (N, K, m) networks --------------------------------------------------

def build_nkm(topology: NetworkTopology,
              inter_bits: Mapping[int, int] | None = None) -> dict[str, Model]:
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
            src = source_of(topology, q)
            if src.id in branch_index:
                bits.append(y[branch_index[src.id]])
            else:
                bits.append(str(inter_bits.get(src.id, 0)))
        return "".join(bits)

    def family_expr(fam: str, plane: str, signed: bool) -> Model:
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
                    src = source_of(topology, q)
                    letter_one = one if src.id in branch_index else "X"
                    letters.append("Z" if bit == "0" else letter_one)
                mapping[inp] = "".join(letters)
            obs.append((hub.id, JointPauliObservable.make(hub.qubits, mapping)))
        terms = []
        for y in labels:
            coeff = (-1) ** y.count("1") if signed else 1
            corr = correlator(
                y,
                tuple((f"A{i + 1}", int(y[i])) for i in range(k)),
                tuple((hub.id, hub_input(hub, y)) for hub in hubs),
                Fraction(1, 2 ** k))
            terms.append(Term(coeff, corr, fam))
        n = len(topology.sources)
        m = len(hubs)
        return Model(
            name=f"nkm-{fam}-n{n}k{k}m{m}",
            tag=f"nkm-{('first' if not signed else 'second')}[N={n},K={k},m={m}]",
            topology=topology,
            observables=((fam, tuple(sorted(obs))),), terms=tuple(terms),
            classical_bound=1.0, claimed_quantum_max=_pow2(k / 2))

    return {"first": family_expr(UNPRIMED, "ZX", False),
            "second": family_expr(PRIMED, "ZY", True)}


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



# -- CHSH, bilocal baselines and the GHZ-source cases ------------------------------

def build_chsh() -> Model:
    """Two-party baseline: 2 correlator groups, bound 2, maximum 2*sqrt(2)."""
    topo = network.chsh_pair()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make((1,), {"0": "Z", "1": "X"})),
    )
    terms = tuple(
        Term(1, correlator(y, (("A", int(y)),), (("B", y),), Fraction(1)), UNPRIMED)
        for y in ("0", "1"))
    return Model(
        name="chsh", tag="chsh", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        classical_bound=2.0, claimed_quantum_max=2.0 * math.sqrt(2.0))


def build_bilocal_baseline() -> dict[str, Model]:
    """Square-root (bi) and linear (bil) two-source baselines."""
    topo = network.two_source()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make((1, 2), {"00": "ZZ", "11": "XX"})),
        ("C", SingleQubitObservable(3, "ZX")),
    )

    def corr(y: str) -> Correlator:
        return correlator(y, (("A", int(y[0])), ("C", int(y[1]))),
                          (("B", y),), Fraction(1, 4))
    terms = tuple(Term(1, corr(y), UNPRIMED) for y in ("00", "11"))
    bi = Model(
        name="bilocal-bi", tag="bilocal-sqrt", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        exponent=Fraction(1, 2), absolute=True,
        classical_bound=1.0, claimed_quantum_max=math.sqrt(2.0),
        bound_model="bilocal")
    bil = Model(
        name="bilocal-bil", tag="bilocal-linear", topology=topo,
        observables=((UNPRIMED, obs),), terms=terms,
        exponent=Fraction(1), absolute=True,
        classical_bound=1.0, claimed_quantum_max=1.0,
        bound_model="bilocal")
    return {"bi": bi, "bil": bil}


GHZ_A_LABELS = ("001", "000", "100", "110")
GHZ_A_LABELS_PRIMED = ("010", "000", "100", "101")


def _ghz_a_term(label: str, family: str, suffix: str = "") -> Term:
    y2, y3, y4 = (int(c) for c in label)
    corr = correlator(label + suffix,
                      (("A", y2), ("C", (y3 + y4 + 1) % 2)),
                      (("B", label),), Fraction(1, 4))
    return Term(1, corr, family)


def build_ghz_a(variant: str = "combined") -> Model:
    """Pair + three-qubit-source scenario with the hub holding three qubits."""
    topo = network.ghz_case_a()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make(
            (1, 2, 3), {y: _letter_word(y, "X") for y in _bit_labels(3)})),
        ("C", SingleQubitObservable(4, "ZX")),
    )
    first = tuple(_ghz_a_term(y, UNPRIMED) for y in sorted(GHZ_A_LABELS))
    second = tuple(_ghz_a_term(y, PRIMED, "'") for y in sorted(GHZ_A_LABELS_PRIMED))
    if variant == "first":
        return Model(
            name="ghz-a-first", tag="ghz-hub-first", topology=topo,
            observables=((UNPRIMED, obs),), terms=first,
            classical_bound=1.0, claimed_quantum_max=2.0)
    if variant == "second":
        return Model(
            name="ghz-a-second", tag="ghz-hub-second", topology=topo,
            observables=((PRIMED, obs),), terms=second,
            classical_bound=1.0, claimed_quantum_max=2.0)
    if variant == "combined":
        return Model(
            name="ghz-a-combined", tag="ghz-hub-combined", topology=topo,
            observables=((UNPRIMED, obs), (PRIMED, obs)), terms=first + second,
            classical_bound=2.0, claimed_quantum_max=4.0)
    raise ValueError(f"unknown variant {variant!r}")


def build_ghz_b() -> Model:
    """Pair + fanned-out three-qubit source: one family of 8 signed correlators."""
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
        corr = correlator(y, (("A", y2), ("C1", y2), ("C2", (y2 + y3 + 1) % 2)),
                          (("B", y),), Fraction(1, 8))
        terms.append(Term((-1) ** (y2 * y3), corr, UNPRIMED))
    for y in _bit_labels(2):
        y2, y3 = int(y[0]), int(y[1])
        corr = correlator(y + "'", (("A", y2), ("C1", 1 - y2), ("C2", (y2 + y3) % 2)),
                          (("B", y),), Fraction(1, 8))
        terms.append(Term((-1) ** ((1 - y2) * y3), corr, UNPRIMED))
    return Model(
        name="ghz-b", tag="ghz-fanout", topology=topo,
        observables=((UNPRIMED, obs),), terms=tuple(terms),
        classical_bound=1.0, claimed_quantum_max=2.0 * math.sqrt(2.0))


# the catalog, scenario by scenario: the families at the registry's parameters
SCENARIOS = {
    "chsh": lambda: {"first": build_chsh()},
    "two-source": lambda: build_two_source_linear(),
    "star": _build_star_scenario,
    "nkm": _build_nkm_scenario,
    "ghz-a": lambda: {v: build_ghz_a(v) for v in ("first", "second", "combined")},
    "ghz-b": lambda: {"first": build_ghz_b()},
    "bilocal": build_bilocal_baseline,
}
