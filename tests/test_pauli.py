"""Pauli word algebra against a dense matrix oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import pauli
from netbell.pauli import PauliString, from_letters, single, word

from conftest import dense_word

PHASE_POWS = [0, 2, 1, 3]  # +1, -1, +i, -i


def all_words(n, phase_pows=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for k in phase_pows:
                yield PauliString(n, x, z, k)


def test_letter_convention():
    p = word({0: "X", 2: "Z", 3: "Y"}, 4)
    assert p.letters() == "XIZY"
    assert str(p) == "+X0 Z2 Y3"
    assert p.weight == 3


def test_single_products():
    X = from_letters("X")
    Y = from_letters("Y")
    Z = from_letters("Z")
    assert Z * X == Y.scaled(1j)
    assert X * Z == Y.scaled(-1j)
    assert X * Y == Z.scaled(1j)
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
    assert pauli.product(gens) == from_letters("XXX", phase=-1)
    embedded = [word({1: a, 2: b, 3: c}, 5) for a, b, c in ("XZZ", "ZXZ", "ZZX")]
    assert pauli.product(embedded) == word({1: "X", 2: "X", 3: "X"}, 5, phase=-1)


def test_text_round_trip_and_errors():
    for text in ("+X0 Z3 Y5", "-I", "+Y1", "-Z0 Z1"):
        p = PauliString.from_text(text, 6)
        assert str(PauliString.from_text(str(p), 6)) == str(p)
    assert PauliString.from_text("X0 Z3", 4) == word({0: "X", 3: "Z"}, 4)
    with pytest.raises(ValueError):
        PauliString.from_text("Q0", 2)
    with pytest.raises(ValueError):
        PauliString.from_text("X0 X0", 2)
    with pytest.raises(ValueError):
        PauliString.from_text("X5", 2)


def test_phase_bookkeeping():
    p = single("Y", 0, 1)
    assert p.phase == 1 and p.is_hermitian
    assert (-p).phase == -1
    assert p.scaled(1j).phase_pow == 1
    assert not p.scaled(1j).is_hermitian
    with pytest.raises(ValueError):
        p.scaled(0.5)
    ident = word({}, 3, phase=-1)
    assert ident.is_identity_word and ident.phase == -1


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
        assert (p * p).phase == 1


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
        assert lhs == -rhs


@given(st.integers(1, 3).flatmap(random_word))
@settings(max_examples=150)
def test_dense_round_trip(p):
    m = dense_word(p)
    # matrix determines the word: recover letters from conjugation signs
    assert np.allclose(m @ m.conj().T, np.eye(1 << p.n_qubits))
    assert (p.is_hermitian) == np.allclose(m, m.conj().T)
    assert PauliString.from_text(str(p), p.n_qubits) == p
