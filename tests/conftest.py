"""Shared dense-vector oracles, independent of the package internals."""

import numpy as np

LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(p) -> np.ndarray:
    """Matrix of a PauliString; qubit q is bit q of the index (q=0 lowest)."""
    m = np.array([[1.0 + 0j]])
    for q in range(p.n_qubits):
        m = np.kron(LETTERS[p.letter(q)], m)
    return p.phase * m


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
    return p.phase * psi.reshape(-1)


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
