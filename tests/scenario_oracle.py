"""Reference builders for ``scenario``: star, two-source and (N, K, m).

These are the builders that ``scenario._hub_family`` and
``scenario._hub_expr`` replace, kept verbatim: the star families and
terms, the two-source families and terms, and ``build_nkm`` with its
per-label ``hub_input`` lookup.  Each writes the same hub-and-branch
construction out by hand.  The generic builder must return equal
expressions (``==`` and ``repr``), the same bounds, and the same error
type and message.

``segmented_operator`` is the per-term collapse of a correlator into one
coefficient and one Pauli word, the reading of the terms that
``InequalityExpr.input_index`` replaces with its letter and trig arrays.
``party_inputs``, ``n_single`` and ``source_of`` are the per-object lookups
that the tests and the builders here use.
"""

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from netbell import network
from netbell.network import NetworkTopology, SourceSpec
from netbell.pauli import PauliString, word
from netbell.scenario import (
    PRIMED,
    QUARTER_PI,
    UNPRIMED,
    AngleMap,
    Correlator,
    InequalityExpr,
    JointPauliObservable,
    Observable,
    SingleQubitObservable,
    Term,
)


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
            src = source_of(topology, q)
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
                    src = source_of(topology, q)
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

