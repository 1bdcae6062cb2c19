"""Stabilizer-group expectations against dense linear algebra."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import network, pauli, states
from netbell.pauli import PauliString, word
from netbell.states import (
    StabilizerGroup,
    bell_pair,
    expectation,
    ghz3,
    maximally_mixed,
    parse_state_spec,
    product_group,
    smolin,
    two_component_mixture,
)

from conftest import (apply_word, compensated_sum, dense_expectation, dense_word,
                      from_letters, phase, stabilizer_vector)

RNG = np.random.default_rng(20240814)


def rank(group) -> int:
    return len(group.generators)


def is_pure(group) -> bool:
    return rank(group) == group.n_qubits


def random_hermitian_word(n, rng=RNG):
    full = (1 << n) - 1
    x = int(rng.integers(0, full + 1))
    z = int(rng.integers(0, full + 1))
    return PauliString(n, x, z, 0 if rng.integers(2) else 2)


def fixed_phase(vec):
    """Rotate away the global phase: first nonzero amplitude becomes positive."""
    idx = np.flatnonzero(np.abs(vec) > 1e-9)[0]
    return vec * (abs(vec[idx]) / vec[idx])


def test_bell_pair_vectors():
    # phi+ = (|00> + |11>)/sqrt(2) and friends, up to global phase
    want = {
        (1, 1): [1, 0, 0, 1],
        (1, -1): [1, 0, 0, -1],
        (-1, 1): [0, 1, 1, 0],
        (-1, -1): [0, 1, -1, 0],
    }
    for (zs, xs), target in want.items():
        vec = fixed_phase(stabilizer_vector(bell_pair(0, 1, 2, zs, xs)))
        assert np.allclose(vec, np.array(target) / math.sqrt(2))


def test_pair_sign_labels():
    assert states.PAIR_SIGNS["phi+"] == (1, 1)
    assert states.PAIR_SIGNS["phi-"] == (1, -1)
    assert states.PAIR_SIGNS["psi+"] == (-1, 1)
    assert states.PAIR_SIGNS["psi-"] == (-1, -1)


def test_ghz3_dense_vector():
    # eight equal-magnitude amplitudes with signs (-1)^(b1 b2 + b1 b3 + b2 b3)
    vec = fixed_phase(stabilizer_vector(ghz3(0, 1, 2, 3)))
    want = np.empty(8)
    for b in range(8):
        b1, b2, b3 = b & 1, (b >> 1) & 1, (b >> 2) & 1
        want[b] = (-1) ** (b1 * b2 + b1 * b3 + b2 * b3)
    assert np.allclose(vec, want / math.sqrt(8), atol=1e-12)


def test_ghz3_stabilizer_facts():
    g = ghz3(0, 1, 2, 3)
    assert expectation(g, from_letters("XXX")) == -1.0
    assert expectation(g, from_letters("XZZ")) == 1.0
    assert expectation(g, word({0: "Z"}, 3)) == 0.0
    assert expectation(g, from_letters("ZZZ")) == 0.0


def test_membership_is_basis_independent():
    g = ghz3(0, 1, 2, 3)
    gens = g.generators
    reordered = StabilizerGroup(3, (gens[2], gens[0], gens[1]))
    mixed = StabilizerGroup(3, (gens[0], gens[0] * gens[1], gens[2]))
    for _ in range(200):
        p = random_hermitian_word(3)
        assert expectation(g, p) == expectation(reordered, p) == expectation(mixed, p)


def test_group_expectation_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(50):
        zs1, xs1 = rng.choice([-1, 1], 2)
        zs2, xs2 = rng.choice([-1, 1], 2)
        g = product_group([bell_pair(0, 2, 5, zs1, xs1),
                           bell_pair(1, 4, 5, zs2, xs2),
                           StabilizerGroup(
                               5, (word({3: "Z"}, 5, int(rng.choice([-1, 1]))),))])
        vec = stabilizer_vector(g)
        for _ in range(40):
            p = random_hermitian_word(5, rng)
            got = expectation(g, p)
            want = dense_expectation(vec, p).real
            assert abs(got - want) < 1e-12


def test_matrix_free_oracle_matches_kronecker_matrix():
    # the tensor-axis oracle behind dense_expectation agrees with the matrix
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for _ in range(20):
            full = (1 << n) - 1
            p = PauliString(n, int(rng.integers(0, full + 1)),
                            int(rng.integers(0, full + 1)),
                            [0, 2, 1, 3][rng.integers(4)])
            assert np.allclose(apply_word(p, vec), dense_word(p) @ vec,
                               rtol=0, atol=1e-12)


def test_smolin_expectations():
    s = smolin()
    assert expectation(s, from_letters("ZZZZ")) == 1.0
    assert expectation(s, from_letters("XXXX")) == 1.0
    assert expectation(s, from_letters("YYYY")) == 1.0
    assert expectation(s, from_letters("ZZXX")) == 0.0
    assert expectation(s, word({0: "Z"}, 4)) == 0.0
    # either pair alone is maximally mixed
    assert expectation(s, word({0: "Z", 1: "Z"}, 4)) == 0.0


def test_smolin_pairing_independence():
    # building the same mixture over pairs (0,2),(1,3) gives the same state
    a = smolin(0, 1, 2, 3)
    b = smolin(0, 2, 1, 3)
    for _ in range(300):
        p = random_hermitian_word(4)
        assert expectation(a, p) == pytest.approx(expectation(b, p), abs=1e-15)


def test_maximally_mixed():
    m = maximally_mixed(3)
    assert rank(m) == 0 and not is_pure(m)
    assert expectation(m, word({}, 3)) == 1.0
    for _ in range(20):
        p = random_hermitian_word(3)
        if p.is_identity_word:
            assert expectation(m, p) == float(phase(p).real)
        else:
            assert expectation(m, p) == 0.0


def test_mixture_linearity():
    a = bell_pair(0, 1, 2)
    b = bell_pair(0, 1, 2, -1, -1)
    zz = from_letters("ZZ")
    for q in (0.0, 0.25, 0.6, 1.0):
        mix = two_component_mixture(q, a, b)
        assert expectation(mix, zz) == pytest.approx(q - (1 - q), abs=1e-15)
    with pytest.raises(ValueError):
        two_component_mixture(1.5, a, b)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, -0.5, -1e-14])
def test_mixture_refuses_a_weight_that_is_not_a_finite_number(w):
    # NaN passed both the sign and the sum check, and evaluated to nan
    a = bell_pair(0, 1, 2)
    with pytest.raises(ValueError, match="finite"):
        states.StabilizerMixture(2, ((w, a), (1.0, a)))
    assert states.StabilizerMixture(2, ((-1e-16, a), (1.0, a))).components


def test_mixture_expectation_adds_left_to_right(monkeypatch):
    # weights 0.6, 0.3, 0.1 on +ZZ: left to right 0.9999999999999999, while
    # Python 3.12's compensated sum gives 1.0
    a = bell_pair(0, 1, 2)
    mix = states.StabilizerMixture(2, ((0.6, a), (0.3, a), (0.1, a)))
    zz = from_letters("ZZ")
    want = functools.reduce(operator.add, [0.6, 0.3, 0.1], 0.0)
    assert want != compensated_sum([0.6, 0.3, 0.1])
    monkeypatch.setattr(states, "sum", compensated_sum, raising=False)
    assert expectation(mix, zz) == want
    letters = np.array([[pauli.LETTER_CODE["Z"]] * 2], dtype=np.int8)
    assert states.word_expectations(mix, letters).tolist() == [want]


def test_group_validation():
    with pytest.raises(ValueError):  # anticommuting
        StabilizerGroup(1, (from_letters("X"), from_letters("Z")))
    with pytest.raises(ValueError):  # dependent
        StabilizerGroup(2, (from_letters("ZZ"), from_letters("XX"),
                            from_letters("YY")))
    with pytest.raises(ValueError):  # non-Hermitian generator
        StabilizerGroup(1, (from_letters("X", phase=1j),))
    with pytest.raises(ValueError):
        expectation(bell_pair(0, 1, 2), from_letters("XY", phase=1j))


def test_parse_state_spec():
    topo = network.two_source()
    nat = parse_state_spec("natural", topo)
    assert isinstance(nat, StabilizerGroup) and is_pure(nat)
    assert isinstance(parse_state_spec("mixed", topo), StabilizerGroup)
    sm = parse_state_spec("smolin", topo)
    assert expectation(sm, from_letters("YYYY")) == 1.0
    r1 = parse_state_spec("rho1(0.3)", topo)
    assert r1.components[0][0] == pytest.approx(0.3)
    assert expectation(r1, from_letters("ZZII")) == pytest.approx(0.3 - 0.7)
    r2 = parse_state_spec("rho2(0.5)", topo)
    assert expectation(r2, from_letters("XXII")) == pytest.approx(1.0)
    mx = parse_state_spec("mix(0.25, phi+*psi-, psi+*phi-)", topo)
    assert isinstance(mx, states.StabilizerMixture)
    with pytest.raises(ValueError):
        parse_state_spec("mix(0.5, phi+, phi+*phi+)", topo)
    with pytest.raises(ValueError):
        parse_state_spec("smolin", network.star(3))
    with pytest.raises(ValueError):
        parse_state_spec("gibberish", topo)


def test_parse_state_spec_rejects_pairs_on_ghz_sources():
    topo = network.ghz_case_a()
    with pytest.raises(ValueError):
        parse_state_spec("mix(0.5, phi+*phi+, psi+*psi+)", topo)
    nat = parse_state_spec("natural", topo)
    assert nat.n_qubits == 5 and is_pure(nat)


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_pair_products_agree_with_dense(i, j):
    labels = list(states.PAIR_SIGNS)
    zi, xi = states.PAIR_SIGNS[labels[i]]
    zj, xj = states.PAIR_SIGNS[labels[j]]
    g = product_group([bell_pair(0, 1, 4, zi, xi), bell_pair(2, 3, 4, zj, xj)])
    vec = stabilizer_vector(g)
    rng = np.random.default_rng(i * 4 + j)
    for _ in range(25):
        p = random_hermitian_word(4, rng)
        assert expectation(g, p) == pytest.approx(
            dense_expectation(vec, p).real, abs=1e-12)
