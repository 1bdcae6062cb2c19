"""Phased n-qubit Pauli strings in binary symplectic form.

A Pauli word is stored as two machine-word bitmasks plus a phase exponent:

    P = i^phase_pow * W(x_mask, z_mask),    phase_pow in {0, 1, 2, 3}

where bit q of ``x_mask``/``z_mask`` says whether qubit q carries an X/Z
factor and ``W`` is the tensor product of single-qubit letters

    (x, z) = (0, 0) -> I,  (1, 0) -> X,  (0, 1) -> Z,  (1, 1) -> Y.

The global convention is Y = i X Z, so W(x, z) = i^{|x & z|} * prod X^x Z^z
with X applied before Z on each site.  All letters are Hermitian, hence a
word is Hermitian iff its phase is +-1 (phase_pow even).  Multiplication
tracks the phase exactly through integer powers of i; the complex ``phase``
is only a read-only view, and constructors take +-1/+-i for it.

Text form: sign prefix followed by letter-index tokens, e.g. ``+X0 Z3 Y5``
(identity renders as ``+I``).  Signs are ``+``, ``-``, ``+i``, ``-i``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

MAX_QUBITS = 64

_POW_TO_PHASE = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_TO_POW = {1: 0, 1j: 1, -1: 2, -1j: 3}

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}

# a letter as a small integer for arrays of words: code = x + 2 z
LETTER_CODE = {letter: x + 2 * z for letter, (x, z) in _LETTER_TO_BITS.items()}

_SIGN_TO_POW = {"": 0, "+": 0, "-": 2, "+i": 1, "i": 1, "-i": 3}
_POW_TO_SIGN = {0: "+", 1: "+i", 2: "-", 3: "-i"}

_TOKEN_RE = re.compile(r"([IXYZ])(\d*)$")


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
    def phase(self) -> complex:
        """The phase i^phase_pow as a complex number."""
        return _POW_TO_PHASE[self.phase_pow]

    @property
    def is_hermitian(self) -> bool:
        return self.phase_pow % 2 == 0

    @property
    def is_identity_word(self) -> bool:
        """True when the letter part is the identity (any phase)."""
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def letter(self, qubit: int) -> str:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        return _BITS_TO_LETTER[((self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1)]

    def letters(self) -> str:
        """Full letter string, qubit 0 first (phase not included)."""
        return "".join(self.letter(q) for q in range(self.n_qubits))

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

    def __neg__(self) -> "PauliString":
        return self.scaled(-1)

    def scaled(self, factor: complex) -> "PauliString":
        """Multiply the phase by +-1 or +-i."""
        k = (self.phase_pow + _pow_of(factor)) % 4
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, k)

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

    @classmethod
    def from_text(cls, text: str, n_qubits: int) -> "PauliString":
        """Parse the ``+X0 Z3 Y5`` form (sign optional, ``I`` allowed)."""
        body = text.strip()
        sign = ""
        for prefix in ("+i", "-i", "+", "-", "i"):
            if body.startswith(prefix):
                sign, body = prefix, body[len(prefix):]
                break
        x = z = 0
        seen: set[int] = set()
        for token in body.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise ValueError(f"bad Pauli token {token!r}")
            letter, idx = m.group(1), m.group(2)
            if letter == "I":
                if idx:
                    raise ValueError("identity token takes no qubit index")
                continue
            if not idx:
                raise ValueError(f"token {token!r} is missing a qubit index")
            q = int(idx)
            if q in seen:
                raise ValueError(f"qubit {q} listed twice")
            if q >= n_qubits:
                raise ValueError(f"qubit {q} outside register of {n_qubits}")
            seen.add(q)
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(n_qubits, x, z, _SIGN_TO_POW[sign])


# -- convenience constructors ----------------------------------------------

def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0)


def single(letter: str, qubit: int, n_qubits: int) -> PauliString:
    """One letter on one qubit, identity elsewhere."""
    return word({qubit: letter}, n_qubits)


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


def from_letters(letter_string: str, phase: complex = 1) -> PauliString:
    """Build from a dense letter string, position = qubit index."""
    return word({q: c for q, c in enumerate(letter_string) if c != "I"},
                len(letter_string), phase)


def product(factors: Iterable[PauliString]) -> PauliString:
    """Left-to-right product of an iterable of words (must be non-empty)."""
    result: PauliString | None = None
    for f in factors:
        result = f if result is None else result * f
    if result is None:
        raise ValueError("product of no factors; pass identity(n) explicitly")
    return result
