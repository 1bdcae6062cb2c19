"""Pauli word algebra against a dense matrix oracle."""

import itertools
import re
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import pauli
from netbell.pauli import PauliString, word

from conftest import dense_word, from_letters, letters, phase

PHASE_POWS = [0, 2, 1, 3]  # +1, -1, +i, -i

_SIGN_TO_POW = {"": 0, "+": 0, "-": 2, "+i": 1, "i": 1, "-i": 3}

_TOKEN_RE = re.compile(r"([IXYZ])(\d*)$")


def weight(p) -> int:
    return (p.x_mask | p.z_mask).bit_count()


def neg(p) -> PauliString:
    return scaled(p, -1)


def scaled(p, factor: complex) -> PauliString:
    """Multiply the phase by +-1 or +-i."""
    k = (p.phase_pow + pauli._pow_of(factor)) % 4
    return PauliString(p.n_qubits, p.x_mask, p.z_mask, k)


def from_text(text: str, n_qubits: int) -> PauliString:
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
        xb, zb = pauli._LETTER_TO_BITS[letter]
        x |= xb << q
        z |= zb << q
    return PauliString(n_qubits, x, z, _SIGN_TO_POW[sign])


def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0)


def single(letter: str, qubit: int, n_qubits: int) -> PauliString:
    """One letter on one qubit, identity elsewhere."""
    return word({qubit: letter}, n_qubits)


def product(factors: Iterable[PauliString]) -> PauliString:
    """Left-to-right product of an iterable of words (must be non-empty)."""
    result: PauliString | None = None
    for f in factors:
        result = f if result is None else result * f
    if result is None:
        raise ValueError("product of no factors; pass identity(n) explicitly")
    return result


def all_words(n, phase_pows=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for k in phase_pows:
                yield PauliString(n, x, z, k)


def test_letter_convention():
    p = word({0: "X", 2: "Z", 3: "Y"}, 4)
    assert letters(p) == "XIZY"
    assert str(p) == "+X0 Z2 Y3"
    assert weight(p) == 3


def test_single_products():
    X = from_letters("X")
    Y = from_letters("Y")
    Z = from_letters("Z")
    assert Z * X == scaled(Y, 1j)
    assert X * Z == scaled(Y, -1j)
    assert X * Y == scaled(Z, 1j)
    assert Y * Y == from_letters("I")


def test_multiply_matches_dense_exhaustive_n2():
    words = list(all_words(2, phase_pows=(0, 1)))
    for p, q in itertools.product(words, words):
        got = dense_word(p * q)
        want = dense_word(p) @ dense_word(q)
        assert np.allclose(got, want, atol=0), (p, q)


def test_commutes_matches_dense_exhaustive_n2():
    words = list(all_words(2))
    for p, q in itertools.product(words, words):
        mp, mq = dense_word(p), dense_word(q)
        assert p.commutes(q) == np.allclose(mp @ mq, mq @ mp)


def test_ghz_generator_product():
    # XZZ * ZXZ * ZZX = -XXX, locally and embedded on a larger register
    gens = [from_letters(s) for s in ("XZZ", "ZXZ", "ZZX")]
    assert product(gens) == from_letters("XXX", phase=-1)
    embedded = [word({1: a, 2: b, 3: c}, 5) for a, b, c in ("XZZ", "ZXZ", "ZZX")]
    assert product(embedded) == word({1: "X", 2: "X", 3: "X"}, 5, phase=-1)


def test_text_round_trip_and_errors():
    for text in ("+X0 Z3 Y5", "-I", "+Y1", "-Z0 Z1"):
        p = from_text(text, 6)
        assert str(from_text(str(p), 6)) == str(p)
    assert from_text("X0 Z3", 4) == word({0: "X", 3: "Z"}, 4)
    with pytest.raises(ValueError):
        from_text("Q0", 2)
    with pytest.raises(ValueError):
        from_text("X0 X0", 2)
    with pytest.raises(ValueError):
        from_text("X5", 2)


def test_phase_bookkeeping():
    p = single("Y", 0, 1)
    assert phase(p) == 1 and p.is_hermitian
    assert phase(neg(p)) == -1
    assert scaled(p, 1j).phase_pow == 1
    assert not scaled(p, 1j).is_hermitian
    with pytest.raises(ValueError):
        scaled(p, 0.5)
    ident = word({}, 3, phase=-1)
    assert ident.is_identity_word and phase(ident) == -1


def test_register_limits():
    with pytest.raises(ValueError):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError):
        PauliString(pauli.MAX_QUBITS + 1, 0, 0)
    with pytest.raises(ValueError):
        PauliString(2, 1 << 2, 0)
    with pytest.raises(ValueError):
        single("X", 0, 1) * single("X", 0, 2)


@st.composite
def random_word(draw, n):
    full = (1 << n) - 1
    return PauliString(
        n,
        draw(st.integers(0, full)),
        draw(st.integers(0, full)),
        draw(st.sampled_from(PHASE_POWS)),
    )


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(random_word(n), random_word(n), random_word(n))))
@settings(max_examples=200)
def test_group_laws(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)
    # p^2 is the identity word with phase (+-1 for Hermitian p)
    assert (p * p).is_identity_word
    if p.is_hermitian:
        assert phase(p * p) == 1


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(random_word(n), random_word(n))))
@settings(max_examples=200)
def test_commutator_sign(pair):
    # pq = +-qp, with the sign decided by commutes()
    p, q = pair
    lhs = p * q
    rhs = q * p
    if p.commutes(q):
        assert lhs == rhs
    else:
        assert lhs == neg(rhs)


@given(st.integers(1, 3).flatmap(random_word))
@settings(max_examples=150)
def test_dense_round_trip(p):
    m = dense_word(p)
    # matrix determines the word: recover letters from conjugation signs
    assert np.allclose(m @ m.conj().T, np.eye(1 << p.n_qubits))
    assert (p.is_hermitian) == np.allclose(m, m.conj().T)
    assert from_text(str(p), p.n_qubits) == p
