"""Phased n-qubit Pauli strings in binary symplectic form.

A Pauli word is stored as two machine-word bitmasks plus a phase exponent:

    P = i^phase_pow * W(x_mask, z_mask),    phase_pow in {0, 1, 2, 3}

where bit q of ``x_mask``/``z_mask`` says whether qubit q carries an X/Z
factor and ``W`` is the tensor product of single-qubit letters

    (x, z) = (0, 0) -> I,  (1, 0) -> X,  (0, 1) -> Z,  (1, 1) -> Y.

The global convention is Y = i X Z, so W(x, z) = i^{|x & z|} * prod X^x Z^z
with X applied before Z on each site.  All letters are Hermitian, hence a
word is Hermitian iff its phase is +-1 (phase_pow even).  Multiplication
tracks the phase exactly through integer powers of i, and constructors take
+-1/+-i for it.

Text form: sign prefix followed by letter-index tokens, e.g. ``+X0 Z3 Y5``
(identity renders as ``+I``).  Signs are ``+``, ``-``, ``+i``, ``-i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

MAX_QUBITS = 64

_PHASE_TO_POW = {1: 0, 1j: 1, -1: 2, -1j: 3}

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}

# a letter as a small integer for arrays of words: code = x + 2 z
LETTER_CODE = {letter: x + 2 * z for letter, (x, z) in _LETTER_TO_BITS.items()}

_POW_TO_SIGN = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _pow_of(phase: complex) -> int:
    """The power of i that a phase of +1, -1, +i or -i is; reject anything else."""
    try:
        return _PHASE_TO_POW[phase]
    except (KeyError, TypeError):
        raise ValueError(f"phase must be one of +1, -1, +i, -i, got {phase!r}") from None


@dataclass(frozen=True)
class PauliString:
    """A phased Pauli word on ``n_qubits`` qubits."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_pow: int = 0  # phase = i^phase_pow

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("x_mask/z_mask have bits outside the register")
        if self.x_mask < 0 or self.z_mask < 0:
            raise ValueError("masks must be non-negative")
        if self.phase_pow not in (0, 1, 2, 3):
            raise ValueError(f"phase_pow must be 0..3, got {self.phase_pow!r}")

    # -- basic predicates ---------------------------------------------------

    @property
    def is_hermitian(self) -> bool:
        return self.phase_pow % 2 == 0

    @property
    def is_identity_word(self) -> bool:
        """True when the letter part is the identity (any phase)."""
        return self.x_mask == 0 and self.z_mask == 0

    def letter(self, qubit: int) -> str:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        return _BITS_TO_LETTER[((self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1)]

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot multiply words on different register sizes")
        x3 = self.x_mask ^ other.x_mask
        z3 = self.z_mask ^ other.z_mask
        g1 = (self.x_mask & self.z_mask).bit_count()
        g2 = (other.x_mask & other.z_mask).bit_count()
        g3 = (x3 & z3).bit_count()
        # W(x1,z1) W(x2,z2) = i^(g1+g2-g3) (-1)^|z1&x2| W(x3,z3)
        k = (self.phase_pow + other.phase_pow + g1 + g2 - g3
             + 2 * (self.z_mask & other.x_mask).bit_count()) % 4
        return PauliString(self.n_qubits, x3, z3, k)

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic inner product == 0 mod 2."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot compare words on different register sizes")
        return ((self.x_mask & other.z_mask).bit_count()
                + (self.z_mask & other.x_mask).bit_count()) % 2 == 0

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        sign = _POW_TO_SIGN[self.phase_pow]
        if self.is_identity_word:
            return sign + "I"
        tokens = [f"{self.letter(q)}{q}" for q in range(self.n_qubits)
                  if self.letter(q) != "I"]
        return sign + " ".join(tokens)


# -- construction ------------------------------------------------------------

def word(letters_by_qubit: Mapping[int, str], n_qubits: int,
         phase: complex = 1) -> PauliString:
    x = z = 0
    for qubit, letter in letters_by_qubit.items():
        if letter not in _LETTER_TO_BITS:
            raise ValueError(f"unknown letter {letter!r}")
        xb, zb = _LETTER_TO_BITS[letter]
        x |= xb << qubit
        z |= zb << qubit
    return PauliString(n_qubits, x, z, _pow_of(phase))
