"""Quantum values and angle optimization against closed forms."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import quantum, states
from netbell.lhv import certify
from netbell.quantum import (
    claimed_max_check,
    compile_expression,
    evaluate,
    optimize_angles,
)
from netbell.scenario import (
    QUARTER_PI,
    SCENARIOS,
    build_bilocal_baseline,
    build_chsh,
    build_ghz_a,
    build_ghz_b,
    build_nkm,
    build_star_combined,
    build_star_first,
    build_star_nonlinear,
    build_star_second,
    build_two_source_linear,
    resolve_angles,
)
from netbell.states import network_state, parse_state_spec, smolin
from conftest import LETTERS, from_letters, nkm_wirings, stabilizer_vector
from quantum_oracle import (compile_reference, gradient, optimize_angles_reference,
                            step)
from scenario_oracle import CODE_LETTER

SQRT2 = math.sqrt(2.0)


def natural(expr):
    return network_state(expr.topology)


def test_chsh_closed_form():
    expr = build_chsh()
    state = natural(expr)
    # value(theta) = 2 (cos theta + sin theta)
    for theta in (0.1, 0.5, QUARTER_PI, 1.2):
        got = evaluate(expr, state, {("A", "ZX"): theta})
        assert got == pytest.approx(2.0 * (math.cos(theta) + math.sin(theta)),
                                    abs=1e-12)
    assert evaluate(expr, state) == pytest.approx(2.0 * SQRT2, abs=1e-15)


def test_star_closed_form():
    expr = build_star_first(2)
    state = natural(expr)
    for t1, t2 in ((0.2, 0.9), (QUARTER_PI, 0.4), (1.1, 1.3)):
        got = evaluate(expr, state, {("A1", "ZX"): t1, ("A2", "ZX"): t2})
        want = (math.cos(t1) + math.sin(t1)) * (math.cos(t2) + math.sin(t2))
        assert got == pytest.approx(want, abs=1e-12)


def test_ghz_b_closed_form():
    expr = build_ghz_b()
    state = natural(expr)
    angles = {("A", "ZX"): 0.3, ("C1", "ZX"): 0.7, ("C2", "ZX"): 1.0}
    want = 1.0
    for _, theta in angles.items():
        want *= math.cos(theta) + math.sin(theta)
    assert evaluate(expr, state, angles) == pytest.approx(want, abs=1e-12)
    assert evaluate(expr, state) == pytest.approx(2.0 * SQRT2, abs=1e-15)


def test_two_source_combined_on_mixtures():
    # at the symmetric angles the combined value is exactly 2 + 2q on rho1(q)
    expr = build_two_source_linear()["combined"]
    topo = expr.topology
    values = []
    for q in (0.0, 0.2, 0.5, 0.8, 1.0):
        state = parse_state_spec(f"rho1({q})", topo)
        got = evaluate(expr, state)
        assert got == pytest.approx(2.0 + 2.0 * q, abs=1e-12)
        values.append(got)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_two_source_combined_optimum_needs_pure_state():
    expr = build_two_source_linear()["combined"]
    topo = expr.topology
    best = optimize_angles(expr, parse_state_spec("rho1(1.0)", topo), starts=4)
    assert best.value == pytest.approx(4.0, abs=1e-9)
    worse = optimize_angles(expr, parse_state_spec("rho1(0.4)", topo), starts=4)
    assert worse.value < 4.0 - 0.3


def test_rho2_swaps_the_roles_of_the_families():
    # psi+ pairs keep the Z/Y family at 2 while the Z/X family scales as 2q
    exprs = build_two_source_linear()
    topo = exprs["first"].topology
    for q in (0.0, 0.5, 1.0):
        state = parse_state_spec(f"rho2({q})", topo)
        assert evaluate(exprs["first"], state) == pytest.approx(2.0 * q, abs=1e-12)
        assert evaluate(exprs["second"], state) == pytest.approx(2.0, abs=1e-12)
        assert evaluate(exprs["combined"], state) == pytest.approx(
            2.0 + 2.0 * q, abs=1e-12)


def test_smolin_values_exact():
    exprs = build_two_source_linear()
    sm = smolin()
    assert evaluate(exprs["first"], sm) == 1.0
    assert evaluate(exprs["second"], sm) == 1.0
    assert evaluate(exprs["combined"], sm) == 2.0


def test_smolin_square_root_baseline():
    bi = build_bilocal_baseline()["bi"]
    assert evaluate(bi, smolin()) == pytest.approx(SQRT2, abs=1e-12)
    bil = build_bilocal_baseline()["bil"]
    assert evaluate(bil, smolin()) == pytest.approx(1.0, abs=1e-12)


def test_optimize_chsh():
    expr = build_chsh()
    res = optimize_angles(expr, natural(expr), starts=4)
    assert res.value == pytest.approx(2.0 * SQRT2, abs=1e-9)
    assert res.angles[("A", "ZX")] == pytest.approx(QUARTER_PI, abs=1e-6)
    for starts in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            optimize_angles(expr, natural(expr), starts=starts)
    # chsh stops at the proved bound; off a stabilizer group the ascent runs
    # every start, and a later start beats pi/4
    two = build_two_source_linear()["combined"]
    res = optimize_angles(two, parse_state_spec("rho1(0.4)", two.topology), starts=4)
    assert res.upper is None and res.start_values[0] < res.value
    assert len(res.start_values) == 4
    assert max(res.start_values) == res.value


@pytest.mark.parametrize("build,k", [
    (build_star_first, 3), (build_star_first, 5), (build_star_first, 6),
    (build_star_first, 7), (build_star_first, 8),
    (build_star_combined, 4), (build_star_combined, 5),
    (build_star_combined, 6), (build_star_combined, 7),
], ids=["first-3", "first-5", "first-6", "first-7", "first-8", "combined-4",
        "combined-5", "combined-6", "combined-7"])
def test_optimize_lands_exactly_on_quarter_pi(build, k, monkeypatch):
    # the symmetric start is kept whenever no step can beat it; with no
    # proved bound the ascent runs, where the early stop would return pi/4
    monkeypatch.setattr(quantum, "upper_bound", lambda expr: None)
    expr = build(k)
    res = optimize_angles(expr, natural(expr), starts=2)
    assert res.value == pytest.approx(expr.claimed_quantum_max, abs=1e-12)
    for key in expr.angle_keys():
        assert res.angles[key] == QUARTER_PI


def _step_cases():
    two_source = build_two_source_linear()["combined"]
    cases = [
        (build_chsh(), None),
        (build_star_nonlinear(3, Fraction(1, 3), "first"), None),
        (build_bilocal_baseline()["bi"], smolin()),
        (two_source, parse_state_spec("rho1(0.4)", two_source.topology)),
    ]
    return [compile_expression(expr, state if state is not None else natural(expr))
            for expr, state in cases]


STEP_CASES = _step_cases()
LO, HI = quantum.ANGLE_MARGIN, math.pi / 2 - quantum.ANGLE_MARGIN
STEP_GRID = np.linspace(LO, HI, 2001)


@given(st.integers(0, len(STEP_CASES) - 1),
       st.lists(st.floats(LO, HI), min_size=4, max_size=4),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_coordinate_step_beats_dense_grid(case, thetas, which):
    compiled = STEP_CASES[case]
    keys = compiled.expr.angle_keys()
    angles = dict(zip(keys, thetas))
    key = keys[which % len(keys)]
    theta, value = step(compiled, key, angles)
    assert value == compiled.value({**angles, key: theta})
    grid = np.tile([angles[k] for k in keys], (len(STEP_GRID), 1))
    grid[:, keys.index(key)] = STEP_GRID
    best = compiled.values(grid).max()
    assert value >= best - 1e-12


def _library_inputs():
    """(id, expr) for every catalog input and the star ladder."""
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]
    out = []
    for name, params in builds:
        tag = name + "".join(f"-{k}{v}" for k, v in params.items())
        out += [(f"{tag}/{family}", expr)
                for family, expr in SCENARIOS[name].build(**params).items()]
    for label, build, ks in (("first", build_star_first, range(2, 9)),
                             ("combined", build_star_combined, range(2, 8))):
        out += [(f"star-{label}-k{k}", build(k)) for k in ks]
    return out


LIBRARY = _library_inputs()


def _ascent_cases():
    """Every library input and two mixed-state inputs."""
    cases = [pytest.param(expr, natural(expr), id=name) for name, expr in LIBRARY]
    two_source = build_two_source_linear()["combined"]
    cases.append(pytest.param(two_source,
                              parse_state_spec("rho1(0.4)", two_source.topology),
                              id="two-source/combined-rho1(0.4)"))
    cases.append(pytest.param(build_bilocal_baseline()["bi"], smolin(),
                              id="bilocal/bi-smolin"))
    return cases


@pytest.mark.parametrize("expr,state", _ascent_cases())
def test_batched_ascent_matches_serial(expr, state, monkeypatch):
    # the serial loop it replaces: same best start, bit for bit; every start
    # within 1e-12 (the closed-form score can break a near-tie the other way).
    # No proved bound, so the ascent runs where the early stop would fire.
    monkeypatch.setattr(quantum, "upper_bound", lambda expr: None)
    reference = compile_reference(expr, state)
    assert evaluate(expr, state) == reference.value(resolve_angles(expr, None))
    seeds = (1, 2, 3)
    want = [optimize_angles_reference(expr, state, starts=8, seed=s) for s in seeds]
    per_start = 8 * len(expr.terms) * len(expr.angle_keys())
    for cap in (quantum._BLOCK_BYTES, per_start, 3 * per_start):  # 8, 1, 3 a block
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", cap)
        for seed, ref in zip(seeds, want):
            got = optimize_angles(expr, state, starts=8, seed=seed)
            assert (got.value, got.angles, got.sweeps) == \
                (ref.value, ref.angles, ref.sweeps)
            assert got.start_values == pytest.approx(ref.start_values, rel=0, abs=1e-12)


def _block_compile_cases():
    """Every catalog input, the star ladder with combined K=10, two-source
    under mixtures, and states whose generators span several sources."""
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]
    cases = []
    for name, params in builds:
        tag = name + "".join(f"-{k}{v}" for k, v in params.items())
        for family, expr in SCENARIOS[name].build(**params).items():
            cases.append(pytest.param(expr, natural(expr), id=f"{tag}/{family}"))
    for label, build, ks in (("first", build_star_first, range(2, 9)),
                             ("combined", build_star_combined, [*range(2, 8), 10])):
        for k in ks:
            expr = build(k)
            cases.append(pytest.param(expr, natural(expr), id=f"star-{label}-k{k}"))
    for family, expr in build_two_source_linear().items():
        for spec in ("rho1(0.4)", "rho2(0.3)", "smolin", "mixed"):
            cases.append(pytest.param(expr, parse_state_spec(spec, expr.topology),
                                      id=f"two-source/{family}-{spec}"))
    # a 4-qubit GHZ state across both sources of star K=2: one block, two sources
    star2 = build_star_combined(2)
    ghz4 = states.StabilizerGroup(4, (
        from_letters("XXXX"), from_letters("ZZII"), from_letters("IZZI"),
        from_letters("IIZZ")))
    cases.append(pytest.param(star2, ghz4, id="star-combined-k2/ghz4"))
    cases.append(pytest.param(star2, states.two_component_mixture(
        0.3, ghz4, natural(star2)), id="star-combined-k2/ghz4-mix"))
    # a 10-qubit block: its words outgrow the 4^8-entry lookup table
    star5 = build_star_combined(5)
    ghz10 = states.StabilizerGroup(10, (from_letters("X" * 10),) + tuple(
        from_letters("I" * i + "ZZ" + "I" * (8 - i)) for i in range(9)))
    cases.append(pytest.param(star5, ghz10, id="star-combined-k5/ghz10"))
    return cases


@pytest.mark.parametrize("expr,state", _block_compile_cases())
def test_block_compile_matches_reference(expr, state):
    # the per-term loop: one Pauli word and one states.expectation per term
    reference = compile_reference(expr, state)
    compiled = compile_expression(expr, state)
    keys = expr.angle_keys()
    exps = np.full((len(expr.terms), len(keys)), -1, dtype=np.int8)
    for t, term in enumerate(reference.terms):
        for key, e in term.trig:
            exps[t, keys.index(key)] = e
    want = np.array([t.expectation for t in reference.terms])
    assert compiled.expectation.tobytes() == want.tobytes()
    assert compiled.keys == keys
    assert np.array_equal(compiled.exps, exps) and compiled.exps.dtype == np.int8
    assert compiled.base.tolist() == [t.base for t in reference.terms]
    assert compiled.coefficient.tolist() == [float(t.coefficient)
                                             for t in reference.terms]
    assert evaluate(expr, state) == reference.value(resolve_angles(expr, None))


def test_compile_looks_up_each_distinct_block_word_once(monkeypatch):
    # star combined K=10: 2048 terms, 10 pair blocks of 3 distinct words each
    expr = build_star_combined(10)
    state = natural(expr)
    calls = []
    real = states.StabilizerGroup.membership_sign

    def counted(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(states.StabilizerGroup, "membership_sign", counted)
    compile_expression(expr, state)
    assert len(calls) == 30


def test_compile_rejects_a_state_on_another_register():
    expr = build_chsh()
    with pytest.raises(ValueError, match="register size"):
        compile_expression(expr, states.maximally_mixed(3))
    with pytest.raises(TypeError, match="unsupported state"):
        compile_expression(expr, np.ones(4))


def test_optimize_ghz_scenarios():
    a = build_ghz_a("combined")
    res = claimed_max_check(a, starts=4)
    assert res["achieved"] and res["optimized_value"] == pytest.approx(4.0, abs=1e-9)
    b = build_ghz_b()
    res = claimed_max_check(b, starts=4)
    assert res["achieved"]
    assert set(res["angles"]) == {"A:ZX", "C1:ZX", "C2:ZX"}


def test_optimize_nonlinear_star():
    expr = build_star_nonlinear(3, Fraction(1, 3), "first")
    res = optimize_angles(expr, natural(expr), starts=3)
    assert res.value == pytest.approx(2.0 ** 2.5, abs=1e-9)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    cases = [
        (build_chsh(), None),
        (build_two_source_linear()["combined"], None),
        (build_star_nonlinear(3, Fraction(1, 3), "first"), None),
        (build_bilocal_baseline()["bi"], smolin()),
    ]
    for expr, state in cases:
        state = state if state is not None else natural(expr)
        compiled = compile_expression(expr, state)
        keys = expr.angle_keys()
        for _ in range(20):
            angles = {k: float(rng.uniform(0.15, math.pi / 2 - 0.15))
                      for k in keys}
            grad = gradient(compiled, angles)
            h = 1e-6
            for key in keys:
                up = {**angles, key: angles[key] + h}
                dn = {**angles, key: angles[key] - h}
                fd = (compiled.value(up) - compiled.value(dn)) / (2.0 * h)
                assert grad[key] == pytest.approx(fd, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(nkm_wirings())
def test_evaluate_at_quarter_pi_meets_the_claim_on_nkm_wirings(case):
    # every family on a random wiring with inter bits reaches its claim at
    # pi/4 on the natural state, and the arrays equal the per-term reference
    # (segmented operators, one expectation per term) bit for bit
    topo, bits = case
    for expr in build_nkm(topo, bits).values():
        state = natural(expr)
        value = evaluate(expr, state)
        assert value == pytest.approx(expr.claimed_quantum_max, rel=0, abs=1e-12)
        reference = compile_reference(expr, state).value(resolve_angles(expr, None))
        assert value == reference


def test_evaluate_rejects_unknown_angles():
    expr = build_chsh()
    with pytest.raises(KeyError):
        evaluate(expr, natural(expr), {("Q", "ZX"): 0.3})


# -- the proved maximum and the early stop ---------------------------------------


# the catalog inputs where no start meets a proved bound: no structure, or a
# power form; the stop fires on every other library input
ASCENDS = {"bilocal/bi", "bilocal/bil", "star-k3-r1/3/first",
           "star-k3-r1/3/second", "star-k3-r1/3/combined"}


def _apply(op, qubits, psi):
    """``op`` on the listed qubits of ``psi``, a (2,)*n array with qubit q on
    axis n-1-q; bit i of op's index is ``qubits[i]``."""
    n, k = psi.ndim, len(qubits)
    axes = [n - 1 - q for q in reversed(qubits)]
    out = np.tensordot(op.reshape((2,) * 2 * k), psi,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _dense_value(expr, psi, obs):
    """The expression on the pure state ``psi`` with ``obs[j][i]`` party j's
    observable for input i: a correlator is normalization * <prod_j X_j>,
    X_j = a_0 + (-1)^e a_1 for a single party and b_input for a joint one."""
    ix = expr.input_index
    corr = []
    for t in range(len(ix.labels)):
        phi = psi
        for j, party in enumerate(expr.topology.parties):
            a, b = ix.inputs[t, j].tolist()
            op = obs[j][a]
            if ix.single[t, j]:
                op = op + (1 - 2 * int(ix.exponents[t, j])) * obs[j][b]
            phi = _apply(op, party.qubits, phi)
        corr.append(np.vdot(psi, phi).real * int(ix.scale[t]) / ix.denominator)
    return float(np.sum(ix.coefficient * expr.power(np.array(corr))))


def _table_observables(expr, theta):
    """The observables the table measures: a single party's input for bit x
    is cos(t) Z + (-1)^x sin(t) P in its plane ZP, a joint party's input the
    Pauli word its terms read."""
    ix = expr.input_index
    obs = [{} for _ in ix.parties]
    for t in range(len(ix.labels)):
        for j, party in enumerate(expr.topology.parties):
            if not ix.single[t, j]:
                obs[j][ix.inputs[t, j, 0]] = functools.reduce(np.kron, [
                    LETTERS[CODE_LETTER[ix.letters[t, q]]] for q in reversed(party.qubits)])
                continue
            (key,) = [key for c, key in enumerate(ix.keys)
                      if key[0] == party.id and ix.exps[t, c] >= 0]
            for x in (0, 1):
                obs[j][ix.inputs[t, j, x]] = (
                    math.cos(theta[key]) * LETTERS["Z"]
                    + (-1) ** x * math.sin(theta[key]) * LETTERS[key[1][1]])
    return obs


def _random_observables(expr, rng):
    """Random +-1 observables: a single party's in any plane of the Bloch
    sphere, a joint party's U diag(+-1) U^dagger; a third of the single
    parties' pairs are degenerate, a_1 = a_0 or a_1 = -a_0."""
    ix = expr.input_index
    obs = []
    for j, party in enumerate(expr.topology.parties):
        dim = 1 << len(party.qubits)
        mine = []
        for _ in ix.vocab[j]:
            u, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                                + 1j * rng.normal(size=(dim, dim)))
            signs = [1.0, -1.0] if dim == 2 else rng.choice([-1.0, 1.0], dim)
            mine.append(u @ np.diag(signs) @ u.conj().T)
        for a, b in {tuple(p) for p in ix.inputs[ix.single[:, j], j].tolist()}:
            mode = int(rng.integers(6))
            if mode < 2:
                mine[b] = (1 - 2 * mode) * mine[a]
        obs.append(mine)
    return obs


DENSE = [pytest.param(expr, id=name) for name, expr in LIBRARY
         if expr.topology.n_qubits <= 10 and quantum.upper_bound(expr) is not None]


@pytest.mark.parametrize("expr", DENSE)
def test_upper_bound_holds_for_every_state_and_observable(expr):
    # the dense oracle first reproduces evaluate on the natural state; then
    # random +-1 observables on random pure states (and the natural one)
    # never exceed the bound, which the natural state meets at pi/4
    bound = quantum._as_float(quantum.upper_bound(expr))
    n = expr.topology.n_qubits
    natural_psi = stabilizer_vector(natural(expr)).reshape((2,) * n)
    rng = np.random.default_rng(7)
    keys = expr.angle_keys()
    theta = dict(zip(keys, rng.uniform(0.1, 1.4, len(keys)).tolist()))
    for angles in (theta, dict.fromkeys(keys, QUARTER_PI)):
        got = _dense_value(expr, natural_psi, _table_observables(expr, angles))
        assert got == pytest.approx(evaluate(expr, natural(expr), angles),
                                    rel=1e-12, abs=1e-12)
    assert got == pytest.approx(bound, rel=1e-12)
    for trial in range(8):
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = natural_psi if trial == 0 else (psi / np.linalg.norm(psi)).reshape((2,) * n)
        assert _dense_value(expr, psi, _random_observables(expr, rng)) <= bound + 1e-9


@pytest.mark.parametrize("expr", [pytest.param(e, id=name) for name, e in LIBRARY
                                  if quantum.upper_bound(e) is not None])
def test_classical_maximum_never_exceeds_the_quantum_bound(expr):
    # a deterministic strategy is a quantum one with commuting observables:
    # two proof routes checked against each other
    bound = quantum.upper_bound(expr)
    report = certify(expr)
    if expr.exponent == 1:
        a, b = bound
        assert quantum._sign(Fraction(report["lhv_max_exact"]) - a, -b) <= 0
    else:
        assert report["lhv_max"] <= bound * (1 + 1e-12)


def test_upper_bound_values():
    assert quantum.upper_bound(build_chsh()) == (0, 2)
    assert quantum.upper_bound(build_star_first(4)) == (4, 0)
    assert quantum.upper_bound(build_star_combined(5)) == (0, 8)
    assert quantum.upper_bound(build_star_nonlinear(3, Fraction(1, 3), "first")) \
        == pytest.approx(2.0 ** 2.5, rel=1e-15)
    # the two ghz-a families share every input, which the quantum bound
    # does not need: each adds 2
    assert quantum.upper_bound(build_ghz_a("first")) == (2, 0)
    assert quantum.upper_bound(build_ghz_a("combined")) == (4, 0)
    assert quantum.upper_bound(build_bilocal_baseline()["bi"]) is None
    # a + b sqrt(2) against zero, where floats would tie
    assert quantum._sign(Fraction(-1), Fraction(1)) == 1
    assert quantum._sign(Fraction(3), Fraction(-2)) == 1
    # p^2 - 2 q^2 = 1: p/q lies above sqrt(2), by 3.5e-20 for the second
    assert quantum._sign(Fraction(-577, 408), Fraction(1)) == -1
    assert quantum._sign(Fraction(4478554083, 3166815962), Fraction(-1)) == 1
    assert quantum._sign(Fraction(-4478554083, 3166815962), Fraction(1)) == -1
    assert quantum._sign(Fraction(0), Fraction(0)) == 0


@pytest.mark.parametrize("name,expr", [pytest.param(n, e, id=n) for n, e in LIBRARY])
def test_optimize_stops_where_start_0_meets_the_bound(name, expr, monkeypatch):
    state = natural(expr)
    got = optimize_angles(expr, state, starts=8, seed=3)
    if name in ASCENDS:
        assert got.upper is None and len(got.start_values) == 8
        return
    assert got.start_values == (got.value,) and got.sweeps == 0
    assert got.angles == dict.fromkeys(expr.angle_keys(), QUARTER_PI)
    assert got.upper == quantum._as_float(quantum.upper_bound(expr))
    # the value the full ascent reaches, bit for bit
    monkeypatch.setattr(quantum, "upper_bound", lambda expr: None)
    full = optimize_angles(expr, state, starts=8, seed=3)
    assert (got.value, got.angles) == (full.value, full.angles)
    assert full.upper is None


def test_optimize_ascends_below_the_bound_and_off_a_stabilizer_group():
    two_source = build_two_source_linear()["combined"]
    ghz_b = build_ghz_b()
    cases = [(two_source, parse_state_spec("rho1(0.4)", two_source.topology)),
             (ghz_b, parse_state_spec("mixed", ghz_b.topology)),
             (build_star_nonlinear(3, Fraction(1, 3), "combined"), None),
             # |.| turns the parity-signed terms negative: below the bound
             (dataclasses.replace(build_star_second(3), absolute=True), None)]
    for expr, state in cases:
        state = natural(expr) if state is None else state
        res = optimize_angles(expr, state, starts=3)
        assert res.upper is None and len(res.start_values) == 3
        assert claimed_max_check(expr, state, starts=3)["proved"] is False


def test_a_pi_4_value_above_the_bound_refutes_it(monkeypatch):
    monkeypatch.setattr(quantum, "upper_bound",
                        lambda expr: (Fraction(0), Fraction(1)))
    with pytest.raises(AssertionError, match="exceeds the proved bound"):
        optimize_angles(build_chsh(), natural(build_chsh()))
