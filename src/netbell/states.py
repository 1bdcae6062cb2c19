"""Stabilizer-group states and mixtures of them.

A ``StabilizerGroup`` holds k <= n independent, pairwise commuting Hermitian
Pauli generators and represents the uniform (maximally mixed) state on the
stabilized subspace; k = n is a pure stabilizer state and k = 0 the maximally
mixed state.  Expectation values of Hermitian Pauli words are exact:

    <P> = +1 if P is in the group, -1 if -P is, 0 otherwise,

decided by GF(2) elimination over the symplectic rows with exact phase
accumulation.  ``StabilizerMixture`` takes convex combinations, and
``components`` splits either kind of state into its (weight, group) parts.

``word_expectations`` evaluates many words at once.  It splits the qubits
into ``blocks``, the connected components of the generator supports taken
over all mixture components (a qubit no generator touches is a block of its
own).  Every component's generators then lie in single blocks, so the
component is a product over blocks, and so is its group: a word W is in +-G
exactly when each restriction W_b of W to a block is in +-G_b, and the sign
of W is the product of the signs of the W_b (words on disjoint qubits
multiply with no phase).  Each factor is +1, -1 or 0, so a component's
value is one exact product.  A block's restricted words take few distinct
values over many words (a pair source sees a handful), so each distinct
W_b is looked up once per component, and the components' weighted values
add in the order ``expectation`` adds them: the result equals
``expectation`` word by word, bit for bit.  A state whose generators span
several sources just forms a larger block.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from . import network
from .pauli import PauliString, word
from .scenario import fold_rows, ordered_sum

# generator signs (z_sign, x_sign) for the four two-qubit pair states
PAIR_SIGNS = {
    "phi+": (1, 1),
    "phi-": (1, -1),
    "psi+": (-1, 1),
    "psi-": (-1, -1),
}


@dataclass(frozen=True)
class StabilizerGroup:
    """Independent commuting Hermitian generators on ``n_qubits`` qubits."""

    n_qubits: int
    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n_qubits != self.n_qubits:
                raise ValueError("generator register size mismatch")
            if not g.is_hermitian:
                raise ValueError(f"generator {g} has phase +-i")
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1:]:
                if not g.commutes(h):
                    raise ValueError(f"generators {g} and {h} anticommute")
        if len(self.generators) > self.n_qubits:
            raise ValueError("more generators than qubits")
        if len(self._echelon) != len(self.generators):
            raise ValueError("generators are not independent over GF(2)")

    @functools.cached_property
    def _echelon(self) -> list[tuple[int, int, int]]:
        """Row-reduced symplectic rows as (bits, pivot, generator-subset mask)."""
        rows: list[tuple[int, int, int]] = []
        n = self.n_qubits
        for idx, g in enumerate(self.generators):
            bits = (g.x_mask << n) | g.z_mask
            combo = 1 << idx
            for row, pivot, cmb in rows:
                if (bits >> pivot) & 1:
                    bits ^= row
                    combo ^= cmb
            if bits:
                rows.append((bits, bits.bit_length() - 1, combo))
        return rows

    def membership_sign(self, p: PauliString) -> int | None:
        """+1 if p is in the group, -1 if -p is, None if outside the span."""
        if p.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        if not p.is_hermitian:
            raise ValueError("membership is defined for Hermitian words")
        n = self.n_qubits
        bits = (p.x_mask << n) | p.z_mask
        combo = 0
        for row, pivot, cmb in self._echelon:
            if (bits >> pivot) & 1:
                bits ^= row
                combo ^= cmb
        if bits:
            return None
        element = word({}, n)  # identity
        for idx, g in enumerate(self.generators):
            if (combo >> idx) & 1:
                element = element * g
        return 1 if element.phase_pow == p.phase_pow else -1


@dataclass(frozen=True)
class StabilizerMixture:
    """Convex combination of stabilizer groups on a common register."""

    n_qubits: int
    components: tuple[tuple[float, StabilizerGroup], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w, g in self.components:
            if g.n_qubits != self.n_qubits:
                raise ValueError("component register size mismatch")
            if not -1e-15 <= w < float("inf"):  # refuses NaN too
                raise ValueError(f"weight {w!r} is not a finite number >= 0")
        total = sum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")


State = Union[StabilizerGroup, StabilizerMixture]


def components(state: State) -> tuple[tuple[float, StabilizerGroup], ...]:
    """The (weight, group) parts of a state: a group is one part of weight 1."""
    if isinstance(state, StabilizerGroup):
        return ((1.0, state),)
    if isinstance(state, StabilizerMixture):
        return state.components
    raise TypeError(f"unsupported state type {type(state)!r}")


def blocks(state: State) -> list[int]:
    """Qubit masks of the connected components of the generator supports,
    taken over all of the state's parts.

    Qubits that no generator touches form one block each.
    """
    masks: list[int] = []
    for g in (gen for _, group in components(state) for gen in group.generators):
        block, apart = g.x_mask | g.z_mask, []
        for b in masks:
            if b & block:
                block |= b
            else:
                apart.append(b)
        masks = apart + [block] if block else apart
    covered = 0
    for b in masks:
        covered |= b
    return masks + [1 << q for q in range(state.n_qubits) if not (covered >> q) & 1]


# -- expectation values -------------------------------------------------------

def expectation(state: State, p: PauliString) -> float:
    """Exact expectation of a Hermitian Pauli word in a group or mixture:
    the one-word definition that ``word_expectations`` is tested against."""
    if not p.is_hermitian:
        raise ValueError(f"{p} is not Hermitian")
    return float(ordered_sum(
        [w * (g.membership_sign(p) or 0.0) for w, g in components(state)]))


def word_expectations(state: State, letters: np.ndarray,
                      qubits: Sequence[int] | None = None) -> np.ndarray:
    """``expectation`` of many words at once, one per row of ``letters``.

    ``letters[w, i]`` is the ``pauli.LETTER_CODE`` of word w on
    ``qubits[i]`` (default: the whole register, one column per qubit), with
    phase +1 and I on every other qubit.  Each block's distinct restricted
    words are looked up once per component, and a row's sign is the
    product of its blocks' signs; the result equals ``expectation`` of each
    word exactly.
    """
    parts = components(state)
    n = state.n_qubits
    if qubits is None:
        if letters.shape[1] != n:
            raise ValueError("register size mismatch")
        qubits = range(n)
    listed = 0
    for q in qubits:
        listed |= 1 << q
    signs = np.ones((len(parts), len(letters)), dtype=np.int8)
    for block in blocks(state):
        if not block & listed:
            continue
        cols = [i for i, q in enumerate(qubits) if (block >> q) & 1]
        row_word, words, word_letters = fold_rows(
            [letters[:, i] for i in cols], [4] * len(cols))
        lookup = np.zeros((len(parts), int(words.max(initial=-1)) + 1),
                          dtype=np.int8)
        for w, codes in zip(words.tolist(), np.transpose(word_letters).tolist()):
            x = z = 0
            for i, c in zip(cols, codes):
                x |= (c & 1) << qubits[i]
                z |= (c >> 1) << qubits[i]
            p = PauliString(n, x, z)
            for c, (_, group) in enumerate(parts):
                lookup[c, w] = group.membership_sign(p) or 0
        signs *= lookup[:, row_word]
    total = np.zeros(len(letters))
    for (w, _), s in zip(parts, signs):
        total = total + float(w) * s.astype(float)  # the order of ``expectation``
    return total


# -- state builders -----------------------------------------------------------

def bell_pair(i: int, j: int, n_qubits: int,
              z_sign: int = 1, x_sign: int = 1) -> StabilizerGroup:
    """Two-qubit pair state on qubits (i, j): generators z_sign*ZZ, x_sign*XX."""
    if i == j:
        raise ValueError("pair qubits must differ")
    gens = (
        word({i: "Z", j: "Z"}, n_qubits, z_sign),
        word({i: "X", j: "X"}, n_qubits, x_sign),
    )
    return StabilizerGroup(n_qubits, gens)


def ghz3(i: int, j: int, k: int, n_qubits: int) -> StabilizerGroup:
    """Three-qubit GHZ state on qubits (i, j, k)."""
    if len({i, j, k}) != 3:
        raise ValueError("GHZ qubits must be distinct")
    gens = (
        word({i: "X", j: "Z", k: "Z"}, n_qubits),
        word({i: "Z", j: "X", k: "Z"}, n_qubits),
        word({i: "Z", j: "Z", k: "X"}, n_qubits),
    )
    return StabilizerGroup(n_qubits, gens)


def maximally_mixed(n_qubits: int) -> StabilizerGroup:
    return StabilizerGroup(n_qubits, ())


def product_group(groups: Iterable[StabilizerGroup]) -> StabilizerGroup:
    """Union of generator sets (groups must live on the same register)."""
    groups = list(groups)
    if not groups:
        raise ValueError("no groups given")
    n = groups[0].n_qubits
    gens: list[PauliString] = []
    for g in groups:
        if g.n_qubits != n:
            raise ValueError("register size mismatch")
        gens.extend(g.generators)
    return StabilizerGroup(n, tuple(gens))


def two_component_mixture(q: float, a: StabilizerGroup,
                          b: StabilizerGroup) -> StabilizerMixture:
    """q * a + (1 - q) * b."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return StabilizerMixture(a.n_qubits, ((q, a), (1.0 - q, b)))


def smolin(i: int = 0, j: int = 1, k: int = 2, l: int = 3,
           n_qubits: int | None = None) -> StabilizerMixture:
    """Equal mixture of the four identical pair-state products on (i,j),(k,l)."""
    if n_qubits is None:
        n_qubits = max(i, j, k, l) + 1
    comps = []
    for zs, xs in PAIR_SIGNS.values():
        group = product_group([
            bell_pair(i, j, n_qubits, zs, xs),
            bell_pair(k, l, n_qubits, zs, xs),
        ])
        comps.append((0.25, group))
    return StabilizerMixture(n_qubits, tuple(comps))


def network_state(topology: network.NetworkTopology) -> StabilizerGroup:
    """Natural product state: a pair state / GHZ state per source."""
    groups = []
    for s in topology.sources:
        if s.kind == network.BELL:
            groups.append(bell_pair(*s.qubits, topology.n_qubits))
        elif s.kind == network.GHZ3:
            groups.append(ghz3(*s.qubits, topology.n_qubits))
        else:  # pragma: no cover - SourceSpec already validates
            raise ValueError(f"unknown source kind {s.kind}")
    return StabilizerGroup(topology.n_qubits, tuple(
        g for grp in groups for g in grp.generators))


# -- textual state selectors ---------------------------------------------------

_MIX_RE = re.compile(r"^mix\(\s*([0-9.eE+-]+)\s*,\s*([^,]+?)\s*,\s*([^,]+?)\s*\)$")
_RHO_RE = re.compile(r"^rho([12])\(\s*([0-9.eE+-]+)\s*\)$")


def _pair_product(labels_text: str, topology: network.NetworkTopology) -> StabilizerGroup:
    """One pair-state label per source, '*'-joined, e.g. 'phi+*psi-'."""
    labels = [t.strip() for t in labels_text.split("*")]
    if len(labels) != len(topology.sources):
        raise ValueError(f"need one pair label per source, got {labels_text!r}")
    groups = []
    for s, label in zip(topology.sources, labels):
        if s.kind != network.BELL:
            raise ValueError("pair-state products need pair sources only")
        if label not in PAIR_SIGNS:
            raise ValueError(f"unknown pair state {label!r}")
        zs, xs = PAIR_SIGNS[label]
        groups.append(bell_pair(*s.qubits, topology.n_qubits, zs, xs))
    return product_group(groups)


def parse_state_spec(text: str, topology: network.NetworkTopology) -> State:
    """Resolve a state selector string against a topology.

    Case and surrounding blanks are ignored.  Spellings: ``natural``,
    ``product``, ``bell`` or ``default`` (each source's own state, the CLI's
    ``natural``), ``mixed`` or ``maximally-mixed`` (maximally mixed),
    ``smolin`` (two pair sources only), ``mix(q, A, B)`` with A and B
    '*'-joined pair labels, and the shortcuts ``rho1(q)`` / ``rho2(q)`` for
    mix(q, phi+*phi+, psi-*psi-) and mix(q, phi+*phi+, psi+*psi+).
    """
    spec = text.strip().lower()
    if spec in ("product", "bell", "natural", "default"):
        return network_state(topology)
    if spec in ("mixed", "maximally-mixed"):
        return maximally_mixed(topology.n_qubits)
    if spec == "smolin":
        pair_sources = [s for s in topology.sources if s.kind == network.BELL]
        if len(pair_sources) != 2 or topology.n_qubits != 4:
            raise ValueError("smolin needs a two-pair-source, four-qubit network")
        (i, j), (k, l) = pair_sources[0].qubits, pair_sources[1].qubits
        return smolin(i, j, k, l, topology.n_qubits)
    m = _RHO_RE.match(spec)
    if m:
        which, q = m.group(1), float(m.group(2))
        second = "psi-*psi-" if which == "1" else "psi+*psi+"
        spec = f"mix({q}, phi+*phi+, {second})"
    m = _MIX_RE.match(spec)
    if m:
        q = float(m.group(1))
        return two_component_mixture(
            q, _pair_product(m.group(2), topology), _pair_product(m.group(3), topology))
    raise ValueError(f"unknown state spec {text!r}")
