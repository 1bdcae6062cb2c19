"""Shared dense-vector oracles, independent of the package internals, the
Pauli-word helpers and the random (N, K, m) wirings that several tests use,
and the compensated float ``sum`` of Python 3.12 and later."""

import builtins
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from netbell import network
from netbell.pauli import PauliString, word

_POW_TO_PHASE = (1 + 0j, 1j, -1 + 0j, -1j)

LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def phase(p) -> complex:
    """The phase i^phase_pow as a complex number."""
    return _POW_TO_PHASE[p.phase_pow]


def letters(p) -> str:
    """Full letter string, qubit 0 first (phase not included)."""
    return "".join(p.letter(q) for q in range(p.n_qubits))


def from_letters(letter_string: str, phase: complex = 1) -> PauliString:
    """Build from a dense letter string, position = qubit index."""
    return word({q: c for q, c in enumerate(letter_string) if c != "I"},
                len(letter_string), phase)


def dense_word(p) -> np.ndarray:
    """Matrix of a PauliString; qubit q is bit q of the index (q=0 lowest)."""
    m = np.array([[1.0 + 0j]])
    for q in range(p.n_qubits):
        m = np.kron(LETTERS[p.letter(q)], m)
    return phase(p) * m


def apply_word(p, vec: np.ndarray) -> np.ndarray:
    """``dense_word(p) @ vec`` without the matrix: each 2x2 letter acts on its
    own tensor axis.  Bit q of the index is axis n-1-q of the (2,)*n view."""
    n = p.n_qubits
    psi = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for q in range(n):
        letter = p.letter(q)
        if letter != "I":
            axis = n - 1 - q
            psi = np.moveaxis(np.tensordot(LETTERS[letter], psi, axes=(1, axis)),
                              0, axis)
    return phase(p) * psi.reshape(-1)


def dense_expectation(vec: np.ndarray, p) -> complex:
    return complex(vec.conj() @ apply_word(p, vec))


def stabilizer_vector(group) -> np.ndarray:
    """Unit vector of a pure stabilizer group: the first computational basis
    state whose projection through prod_g (1 + g)/2 survives, normalised."""
    dim = 1 << group.n_qubits
    for basis in range(dim):
        psi = np.zeros(dim, dtype=complex)
        psi[basis] = 1.0
        for g in group.generators:
            psi = (psi + apply_word(g, psi)) / 2.0
        nrm = float(np.linalg.norm(psi))
        if nrm > 1e-6:
            return psi / nrm
    raise ValueError("generators stabilize no state")


@st.composite
def nkm_wirings(draw):
    """A valid (N, K, m) topology with random hub recipients, hub-hub
    sources and inter bits on some of those sources."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    alice = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    extra = draw(st.integers(0, 3)) if m >= 2 else 0
    wiring = tuple((k + i, *draw(st.lists(st.integers(0, m - 1), min_size=2,
                                          max_size=2, unique=True)))
                   for i in range(extra))
    try:
        topo = network.nkm(k + extra, k, m, wiring, alice)
    except ValueError:  # a hub with fewer than two qubits
        assume(False)
    bits = draw(st.dictionaries(st.integers(k, k + extra - 1), st.integers(0, 1))
                if extra else st.just({}))
    return topo, bits


def compensated_sum(xs, start=0):
    """``sum`` as Python 3.12 and later add floats: Neumaier compensation.

    Anything but a sequence of plain floats goes to ``builtins.sum``.  Set as
    a module global named ``sum`` it shadows the builtin in that module, so a
    float sum the module still leaves to ``sum`` reads the 3.12 result.
    """
    xs = list(xs)
    if not all(type(x) is float for x in xs):
        return builtins.sum(xs, start)
    total, comp = float(start), 0.0
    for x in xs:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total
