"""Round simulation and statistical reconstruction."""

import collections
import dataclasses
import functools
import io
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import sampler
from netbell.network import SourceSpec, ghz_case_b, two_source
from netbell.sampler import RoundBatch, estimate, simulate_rounds
from netbell.scenario import (
    SCENARIOS,
    UNPRIMED,
    build_bilocal_baseline,
    build_chsh,
    build_ghz_a,
    build_ghz_b,
    build_star_combined,
    build_star_first,
    build_two_source_linear,
)
from netbell.pauli import word
from netbell.states import (StabilizerGroup, StabilizerMixture, bell_pair,
                            blocks, components, ghz3, maximally_mixed,
                            network_state, parse_state_spec, product_group,
                            smolin)
from conftest import compensated_sum, stabilizer_vector
import sampler_oracle
from sampler_oracle import (csv_reference, estimate_reference, setting_tables,
                            simulate_rounds_reference)
import scenario_oracle
from scenario_oracle import party_inputs


def _oracle_cases():
    """Every catalog expression, star K=2 and K=3 at r=1/3, star K=2..6 on
    the natural state; then mixtures of 2 and 4 components, the maximally
    mixed state, and skewed angles on chsh, two-source combined (on rho1) and
    star combined K=3, where one party measures in two planes at two angles."""
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]
    cases = []
    for name, params in builds:
        tag = name + "".join(f"-{k}{v}" for k, v in params.items())
        for family, expr in SCENARIOS[name].build(**params).items():
            cases.append(pytest.param(expr, "natural", None, id=f"{tag}/{family}"))
    for k in range(2, 7):
        cases.append(pytest.param(build_star_first(k), "natural", None,
                                  id=f"star-first-k{k}"))
        cases.append(pytest.param(build_star_combined(k), "natural", None,
                                  id=f"star-combined-k{k}"))
    for name, family, spec, angles in (
            ("two-source", "combined", "rho1(0.4)", None),
            ("bilocal", "bi", "smolin", None),
            ("ghz-b", "first", "mixed", None),
            ("chsh", "first", "natural", {("A", "ZX"): 0.3}),
            ("two-source", "combined", "rho1(0.4)", "skewed"),
            ("star", "combined", "natural", "skewed")):
        expr = SCENARIOS[name].build()[family]
        if angles == "skewed":  # every key its own angle: a party's two planes differ
            angles = {key: 0.2 + 0.1 * j for j, key in enumerate(expr.angle_keys())}
        tag = f"{name}/{family}-{'skewed' if angles else spec}"
        cases.append(pytest.param(expr, spec, angles, id=tag))
    return cases


def _assert_same_batch(got, want):
    """Same parties, vocabularies and arrays, values and dtypes."""
    assert got.parties == want.parties and got.vocab == want.vocab
    for p in want.parties:
        for a, b in ((got.input_idx[p], want.input_idx[p]),
                     (got.outcomes[p], want.outcomes[p])):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _hand_batch(expr, rows):
    """A batch with one round per (inputs, outcomes) row, both keyed by party."""
    parties = expr.topology.party_ids()
    vocab = {p: party_inputs(expr, p) for p in parties}
    input_idx = {p: np.array([vocab[p].index(inp[p]) for inp, _ in rows])
                 for p in parties}
    outcomes = {p: np.array([out[p] for _, out in rows], dtype=np.int8)
                for p in parties}
    return RoundBatch(parties, vocab, input_idx, outcomes, seed=0)


def test_source_distribution_respects_stabilizers():
    # measuring X,Z,Z on a three-qubit GHZ source: XZZ outcome product is +1
    g = ghz3(0, 1, 2, 3)
    specs = [(("X", 1.0),), (("Z", 1.0),), (("Z", 1.0),)]
    p = sampler._source_distributions(g, (0, 1, 2), *setting_tables([specs]))[0]
    assert p.shape == (8,)
    for s in range(8):
        parity = bin(s).count("1") % 2
        if parity == 1:
            assert p[s] == pytest.approx(0.0, abs=1e-12)
    assert p.sum() == pytest.approx(1.0)


def test_source_distribution_mixed_basis():
    # Z on one half of a pair: both outcomes equally likely, independent
    g = bell_pair(0, 1, 2)
    specs = [(("Z", 1.0),), (("Z", 1.0),)]
    p = sampler._source_distributions(g, (0, 1), *setting_tables([specs]))[0]
    # perfect ZZ correlation: only 00 and 11
    assert p[0] == pytest.approx(0.5) and p[3] == pytest.approx(0.5)
    assert p[1] == p[2] == pytest.approx(0.0)
    tilted = [(("Z", math.cos(0.7)), ("X", math.sin(0.7))), (("Z", 1.0),)]
    p = sampler._source_distributions(g, (0, 1), *setting_tables([tilted]))[0]
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0.0)


def test_source_distribution_matches_the_per_word_loop():
    # one states.expectation per word and one call per setting in the
    # reference; one call for all settings here, bit for bit, also where a
    # coefficient is 0 (the reference skips its words)
    tilt = ("Z", math.cos(0.3)), ("X", -math.sin(0.3))
    skew = ("Z", math.cos(1.1)), ("Y", math.sin(1.1))
    pair_and_ghz = product_group([bell_pair(3, 0, 6), ghz3(1, 5, 2, 6)])
    cases = [
        (pair_and_ghz, (3, 0), [[tilt, (("X", 1.0),)], [skew, skew]]),
        (pair_and_ghz, (1, 5, 2), [[(("Z", 1.0),), skew, tilt],
                                   [tilt, tilt, (("Y", 1.0),)]]),
        (pair_and_ghz, (2, 4), [[skew, (("Y", 1.0),)]]),      # 4 is untouched
        (bell_pair(0, 1, 2, -1, -1), (0, 1), [[skew, (("Y", 1.0),)]]),
        (bell_pair(0, 1, 2), (0, 1), [[(("Z", 0.0), ("X", 1.0)), tilt],
                                      [(("Z", 1.0),), (("Z", 1.0),)]]),
        (parse_state_spec("mixed", build_chsh().topology), (0, 1), [[tilt, skew]]),
    ]
    for group, qubits, settings in cases:
        got = sampler._source_distributions(group, qubits, *setting_tables(settings))
        assert got.shape == (len(settings), 1 << len(qubits))
        for row, specs in zip(got, settings):
            want = sampler_oracle._source_distribution(group, qubits, specs)
            assert row.tobytes() == want.tobytes()


def _random_tables(alphabet, coefficient, entries, k_min):
    """Qubits among 4 and one to three settings of k = k_min..3 qubits,
    each qubit ``entries`` (letter, coefficient) pairs."""
    spec = st.lists(st.tuples(st.sampled_from(alphabet), coefficient),
                    min_size=entries[0], max_size=entries[1]).map(tuple)
    return st.integers(k_min, 3).flatmap(lambda k: st.tuples(
        st.permutations(range(4)).map(lambda qs: tuple(qs[:k])),
        st.lists(st.lists(spec, min_size=k, max_size=k), min_size=1, max_size=3)))


# sines use every mantissa bit, as the angles' coefficients do
_SINE = st.floats(-4.0, 4.0).map(lambda a: math.sin(a) / 2)
_COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5), _SINE)
_STATES = [product_group([bell_pair(0, 2, 4), bell_pair(1, 3, 4, -1, -1)]),
           ghz3(3, 0, 2, 4), smolin(), maximally_mixed(4)]
# every word of I and Z has expectation +-1 here, so with two entries a
# qubit each m_t adds all its patterns' products of three coefficients and
# shows any change in the order of the operations
_Z_STATE = StabilizerGroup(4, tuple(word({q: "Z"}, 4, (-1) ** q) for q in range(4)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(_random_tables("IXYZ", _COEFFICIENT, (1, 2), 1), st.sampled_from(_STATES)),
    st.tuples(_random_tables("IZ", _SINE, (2, 2), 3), st.just(_Z_STATE))))
def test_source_distribution_matches_the_oracle_on_random_tables(case):
    # random letters and coefficients, zeros included; two entries of
    # |coefficient| <= 1/2 keep each qubit's I + s O positive, so every
    # probability is >= 0
    (qubits, rows), group = case
    got = sampler._source_distributions(group, qubits, *setting_tables(rows))
    for row, specs in zip(got, rows):
        want = sampler_oracle._source_distribution(group, qubits, specs)
        assert row.tobytes() == want.tobytes()


def test_simulate_rejects_dense_and_non_product():
    expr = build_chsh()
    dense = stabilizer_vector(network_state(expr.topology))
    with pytest.raises(ValueError, match="stabilizer"):
        simulate_rounds(expr, dense, 10, seed=1)
    crossed = product_group([bell_pair(0, 2, 4), bell_pair(1, 3, 4)])
    with pytest.raises(ValueError, match="spans"):
        simulate_rounds(build_two_source_linear()["first"], crossed, 10, seed=1)


def test_simulate_rejects_a_mixture_with_a_crossed_component():
    expr = build_two_source_linear()["first"]
    topo = expr.topology
    crossed = bell_pair(1, 2, 4)  # one qubit of each source
    mixture = StabilizerMixture(4, ((0.5, network_state(topo)), (0.5, crossed)))
    with pytest.raises(ValueError, match="spans"):
        simulate_rounds(expr, mixture, 10, seed=1)
    # mixed: every qubit its own block; smolin: four components of two pairs
    assert sorted(blocks(parse_state_spec("mixed", topo))) == [1, 2, 4, 8]
    for spec in ("mixed", "smolin"):
        batch = simulate_rounds(expr, parse_state_spec(spec, topo), 10, seed=1)
        assert len(batch) == 10


def test_simulate_never_sees_a_nan_weight():
    # such a mixture once simulated chsh to a finite estimate of a nan value
    expr = build_chsh()
    natural = network_state(expr.topology)
    with pytest.raises(ValueError, match="finite"):
        simulate_rounds(expr, StabilizerMixture(
            2, ((math.nan, natural), (1.0, natural))), 1000, seed=1)


def _stabilizer_groups(n):
    """The empty group, a pair state on every two qubits, a GHZ state on
    every three, and two pair states on every two disjoint pairs."""
    pairs = [bell_pair(i, j, n) for i, j in itertools.combinations(range(n), 2)]
    groups = [maximally_mixed(n), *pairs,
              *(ghz3(*t, n) for t in itertools.combinations(range(n), 3))]
    for a, b in itertools.combinations(pairs, 2):
        if not (a.generators[0].z_mask & b.generators[0].z_mask):
            groups.append(product_group([a, b]))
    return groups


@pytest.mark.parametrize("topology", [two_source(), ghz_case_b()],
                         ids=["two-source", "ghz-b"])
def test_block_check_agrees_with_the_per_generator_check(topology):
    # the sources partition the register, so the state's qubit blocks lie
    # within sources exactly when its generators do
    groups = _stabilizer_groups(topology.n_qubits)
    mixtures = [StabilizerMixture(topology.n_qubits, ((0.25, a), (0.75, b)))
                for a, b in itertools.product(groups[::3], groups[1::3])]
    verdicts = set()
    for state in groups + mixtures:
        try:
            want = sampler_oracle.product_components_reference(topology, state)
        except ValueError:
            with pytest.raises(ValueError, match="spans"):
                sampler._product_components(topology, state)
            verdicts.add(False)
        else:
            assert sampler._product_components(topology, state) == want
            verdicts.add(True)
    assert verdicts == {True, False}


def test_simulation_is_deterministic():
    expr = build_two_source_linear()["combined"]
    state = network_state(expr.topology)
    a = simulate_rounds(expr, state, 400, seed=9)
    b = simulate_rounds(expr, state, 400, seed=9)
    for p in a.parties:
        assert np.array_equal(a.input_idx[p], b.input_idx[p])
        assert np.array_equal(a.outcomes[p], b.outcomes[p])
    c = simulate_rounds(expr, state, 400, seed=10)
    assert any(not np.array_equal(a.outcomes[p], c.outcomes[p])
               for p in a.parties)


def test_csv_round_log():
    expr = build_chsh()
    batch = simulate_rounds(expr, network_state(expr.topology), 5, seed=2)
    buf = io.StringIO()
    batch.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "round,party,input,outcome"
    assert len(lines) == 1 + 5 * 2  # one row per party per round
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "A"
    assert first[3] in ("1", "-1")


def test_perfect_correlations_survive_sampling():
    # CHSH at pi/4: every round with input pair (0,0) applies Z x Z-ish
    # observables; the estimate must stay within a few SE of sqrt(2) per term
    expr = build_chsh()
    batch = simulate_rounds(expr, network_state(expr.topology), 40000, seed=5)
    rep = estimate(expr, batch)
    assert rep.n_rounds == 40000
    assert rep.empty_cells == 0
    for t in rep.terms:
        assert t.se < 0.02
        assert abs(t.estimate - math.sqrt(2.0)) < 5 * t.se
    assert abs(rep.value - 2.0 * math.sqrt(2.0)) < 5 * rep.se


def test_estimate_star_family():
    expr = build_star_first(2)
    state = network_state(expr.topology)
    batch = simulate_rounds(expr, state, 60000, seed=11)
    rep = estimate(expr, batch)
    # each of the four correlators sits at 1/2 at the symmetric angles
    for t in rep.terms:
        assert abs(t.estimate - 0.5) < 5 * t.se
    assert abs(rep.value - 2.0) < 5 * rep.se
    assert set(rep.families) == {UNPRIMED}


def test_estimate_handles_mixtures_and_powers():
    bi = build_bilocal_baseline()["bi"]
    batch = simulate_rounds(bi, smolin(), 60000, seed=13)
    rep = estimate(bi, batch)
    assert math.isfinite(rep.se) and rep.se > 0
    assert abs(rep.value - math.sqrt(2.0)) < 5 * rep.se


def test_ghz_b_shared_cells():
    # plain and primed correlators with the same B input share sample cells
    expr = build_ghz_b()
    batch = simulate_rounds(expr, network_state(expr.topology), 80000, seed=17)
    rep = estimate(expr, batch)
    assert len(rep.terms) == 8
    assert abs(rep.value - 2.0 * math.sqrt(2.0)) < 5 * rep.se


def test_ghz_a_simulation_uses_joint_hub():
    expr = build_ghz_a("combined")
    state = network_state(expr.topology)
    batch = simulate_rounds(expr, state, 60000, seed=19)
    rep = estimate(expr, batch)
    assert abs(rep.value - 4.0) < 6 * rep.se


def test_empty_cells_give_infinite_se():
    expr = build_chsh()
    batch = simulate_rounds(expr, network_state(expr.topology), 2, seed=21)
    rep = estimate(expr, batch)
    assert rep.empty_cells > 0
    assert math.isinf(rep.se)


def test_estimate_rejects_mismatched_batch():
    chsh_batch = simulate_rounds(build_chsh(),
                                 network_state(build_chsh().topology), 10, seed=1)
    with pytest.raises(ValueError, match="parties"):
        estimate(build_ghz_b(), chsh_batch)
    reordered = RoundBatch(chsh_batch.parties, {"A": ("1", "0"), "B": ("0", "1")},
                           chsh_batch.input_idx, chsh_batch.outcomes, seed=1)
    with pytest.raises(ValueError, match="inputs"):
        estimate(build_chsh(), reordered)
    out_of_range = RoundBatch(chsh_batch.parties, chsh_batch.vocab,
                              {**chsh_batch.input_idx, "A": np.full(10, 2)},
                              chsh_batch.outcomes, seed=1)
    with pytest.raises(ValueError, match="out of range"):
        estimate(build_chsh(), out_of_range)
    # an outcome that is not +-1 (the true batch gives 2.79, A's zeros 2.0)
    batch = simulate_rounds(build_chsh(), network_state(build_chsh().topology),
                            1000, seed=1)
    for bad in (0, 2, -128):
        outcomes = batch.outcomes["A"].copy()
        outcomes[999] = bad  # in the last round only
        wrong = RoundBatch(batch.parties, batch.vocab, batch.input_idx,
                           {**batch.outcomes, "A": outcomes}, seed=1)
        with pytest.raises(ValueError, match="outside .* for A"):
            estimate(build_chsh(), wrong)
    zeros = RoundBatch(batch.parties, batch.vocab, batch.input_idx,
                       {**batch.outcomes, "A": np.zeros(1000, dtype=np.int8)}, seed=1)
    with pytest.raises(ValueError, match="for A"):
        estimate(build_chsh(), zeros)
    # a column shorter than the batch, inputs or outcomes
    for field in ("input_idx", "outcomes"):
        columns = {"input_idx": batch.input_idx, "outcomes": batch.outcomes}
        columns[field] = {**columns[field], "B": columns[field]["B"][:999]}
        short = RoundBatch(batch.parties, batch.vocab, **columns, seed=1)
        with pytest.raises(ValueError, match="for B is not 1000 rounds long"):
            estimate(build_chsh(), short)


def test_angles_shift_input_distributions():
    expr = build_chsh()
    state = network_state(expr.topology)
    skew = {("A", "ZX"): 0.3}
    batch = simulate_rounds(expr, state, 30000, seed=23, angles=skew)
    rep = estimate(expr, batch)
    # closed form at a skewed A angle: 2 (cos 0.3 + sin 0.3)
    want = 2.0 * (math.cos(0.3) + math.sin(0.3))
    assert abs(rep.value - want) < 5 * rep.se


def test_report_dict_round_trips_to_json():
    import json

    expr = build_chsh()
    batch = simulate_rounds(expr, network_state(expr.topology), 1000, seed=29)
    rep = estimate(expr, batch)
    data = json.loads(json.dumps(rep.as_dict()))
    assert data["n_rounds"] == 1000
    assert len(data["terms"]) == 2


@pytest.mark.parametrize("expr,spec,angles", _oracle_cases())
def test_estimate_and_round_log_match_reference_loops(expr, spec, angles,
                                                       monkeypatch):
    # as on Python 3.12+: a float sum the oracle left to ``sum`` would be
    # compensated, and the bits would then differ from the package's
    monkeypatch.setattr(sampler_oracle, "sum", compensated_sum, raising=False)
    state = parse_state_spec(spec, expr.topology)
    for rounds, seed in ((40, 1), (3000, 2)):
        batch = simulate_rounds(expr, state, rounds, seed=seed, angles=angles)
        _assert_same_batch(batch, simulate_rounds_reference(
            expr, state, rounds, seed, angles))
        assert estimate(expr, batch).as_dict() == estimate_reference(expr, batch).as_dict()
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        batch.to_csv(got)
        csv_reference(batch, want)
        assert got.getvalue() == want.getvalue()


def test_group_table_matches_the_structured_sort(monkeypatch):
    real, calls = sampler._group_table, []

    def checked(*args):
        got = real(*args)
        want = sampler_oracle.group_table_reference(*args)
        assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        calls.append(len(want[0]))
        return got

    monkeypatch.setattr(sampler, "_group_table", checked)
    for case in _oracle_cases():
        expr, spec, angles = case.values
        simulate_rounds(expr, parse_state_spec(spec, expr.topology), 40, seed=3,
                        angles=angles)
    assert calls
    # setting rows past one and two bytes (there are 4 + 2J for J angle keys)
    rng = np.random.default_rng(5)
    for high in (300, 70000):
        spec_of = {q: rng.integers(0, high, size=(64, 2)) for q in range(3)}
        src = SourceSpec(0, "ghz3", (0, 1, 2), ("A", "B", "C"))
        checked(spec_of, 2, src, ["C", "A"])


def test_delta_se_adds_cells_left_to_right(monkeypatch):
    # d^2 var of the cells is 1, 1e-16 x 4: left to right the tail is lost,
    # while Python 3.12's compensated sum keeps it
    slot = np.array([[0, 1, 2], [3, 4, 0]])
    deriv = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    var = np.array([1.0, 1e-16, 1e-16, 1e-16, 1e-16])
    terms = [1.0, 1e-16, 1e-16, 1e-16, 1e-16]
    want = math.sqrt(functools.reduce(operator.add, terms, 0.0))
    assert want != math.sqrt(compensated_sum(terms))
    monkeypatch.setattr(sampler, "sum", compensated_sum, raising=False)
    assert sampler._cell_se(slot.ravel(), deriv.ravel(), var) == want


def _settings(letters, coefs):
    """Each row of a pair of (setting, qubit, entry) tables as one hashable
    value."""
    return [(tuple(map(tuple, row)), tuple(map(tuple, c)))
            for row, c in zip(letters.tolist(), coefs.tolist())]


@pytest.mark.parametrize("rounds", [1, 40])
@pytest.mark.parametrize("expr,state", [
    pytest.param(build_star_first(6), None, id="star-first-k6"),
    pytest.param(build_bilocal_baseline()["bi"], smolin(), id="bilocal/bi-smolin"),
])
def test_simulate_builds_every_group_distribution_once(expr, state, rounds,
                                                       monkeypatch):
    # the group table spans every (component, term, owner bits) key, and
    # every one of its distinct rows gets a distribution once, however few
    # rounds reach it
    state = state or network_state(expr.topology)
    groups = [g for _, g in components(state)]
    tables, built, reached = [], collections.Counter(), set()
    real = (sampler._group_table, sampler._source_distributions,
            sampler_oracle._source_distribution)

    def table(spec_of, n_comp, src, owners):
        keys, group_of = real[0](spec_of, n_comp, src, owners)
        tables.append((tuple(src.qubits), keys[:, 0].tolist()))
        return keys, group_of

    def batch(group, qubits, letters, coefs):
        c = next(c for c, g in enumerate(groups) if g is group)
        built.update((tuple(qubits), c, setting)
                     for setting in _settings(letters, coefs))
        return real[1](group, qubits, letters, coefs)

    def single(group, qubits, specs):
        c = next(c for c, g in enumerate(groups) if g is group)
        reached.add((tuple(qubits), c, *_settings(*setting_tables([specs]))))
        return real[2](group, qubits, specs)

    monkeypatch.setattr(sampler, "_group_table", table)
    monkeypatch.setattr(sampler, "_source_distributions", batch)
    monkeypatch.setattr(sampler_oracle, "_source_distribution", single)
    simulate_rounds(expr, state, rounds, seed=1)
    simulate_rounds_reference(expr, state, 3000, seed=1)
    assert set(built.values()) == {1}
    per_source = collections.Counter((qubits, c) for qubits, c, _ in built)
    assert per_source == collections.Counter(
        (qubits, c) for qubits, comps in tables for c in comps)
    assert reached <= set(built)


@pytest.mark.parametrize("expr,spec", [
    pytest.param(build_bilocal_baseline()["bi"], "smolin", id="bilocal/bi-smolin"),
    pytest.param(build_ghz_b(), "mixed", id="ghz-b-mixed"),
    pytest.param(build_star_combined(12), "natural", id="star-combined-k12"),
])
def test_one_round_among_many_groups_matches_reference(expr, spec, monkeypatch):
    # more groups than rounds: b clamps to 0 and every round searches
    state = parse_state_spec(spec, expr.topology)
    real, bs = sampler._bucket_table, []

    def bucket_table(cdf, b):
        bs.append((len(cdf), b))
        return real(cdf, b)

    monkeypatch.setattr(sampler, "_bucket_table", bucket_table)
    for seed in (1, 2):
        _assert_same_batch(simulate_rounds(expr, state, 1, seed),
                           simulate_rounds_reference(expr, state, 1, seed))
    assert any(n > 1 and b == 0 for n, b in bs)


def _simulate_peak(expr, rounds):
    """The batch and the tracemalloc peak of simulating it."""
    state = network_state(expr.topology)
    tracemalloc.start()
    try:
        batch = simulate_rounds(expr, state, rounds, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == rounds
    return batch, peak


def test_simulate_memory_at_star_combined_k3():
    # every intp and float buffer holds one block of rounds
    assert _simulate_peak(build_star_combined(3), 1_000_000)[1] < 24 * 2 ** 20


@pytest.mark.parametrize("rounds", [100_000, 1_000_000])
def test_simulate_memory_follows_the_batch(rounds):
    # beyond the batch's own columns only the narrow term column grows with
    # the rounds (1 byte each here); the buffers and tables do not
    expr = build_star_combined(3)
    expr.input_index  # a cached table, built once outside the trace
    batch, peak = _simulate_peak(expr, rounds)
    own = sum(column.nbytes for columns in (batch.input_idx, batch.outcomes)
              for column in columns.values())
    assert peak - own < 5 * 2 ** 20


def _estimate_peak(expr, rounds):
    """The tracemalloc peak of estimating ``rounds`` rounds; the batch and
    the expression's input index are built before the trace."""
    expr.input_index
    batch = simulate_rounds(expr, network_state(expr.topology), rounds, seed=1)
    tracemalloc.start()
    try:
        rep = estimate(expr, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_rounds == rounds
    return peak


def test_estimate_memory_beyond_the_batch_at_star_combined_k3():
    # the rounds are read a block at a time: beyond the batch only the
    # narrow profile code (2 bytes a round here) grows with them
    assert _estimate_peak(build_star_combined(3), 1_000_000) < 4 * 2 ** 20


def test_estimate_memory_per_round_at_star_combined_k12():
    # nearly every round reaches a profile of its own, so the arrays per
    # profile are the arrays per round
    assert _estimate_peak(build_star_combined(12), 100_000) < 215 * 100_000


@pytest.mark.parametrize("name,params,family,spec", [
    ("chsh", {}, "first", "natural"),
    ("two-source", {}, "combined", "rho1(0.5)"),
    ("star", {"k": 3, "r": Fraction(1, 3)}, "combined", "natural"),
    ("star", {"k": 7}, "combined", "natural"),
    ("bilocal", {}, "bi", "smolin"),
])
def test_estimate_block_boundaries_are_invisible(name, params, family, spec,
                                                 monkeypatch):
    # the estimate counts the rounds a block at a time: any block length,
    # odd or longer than the batch, gives the same report
    expr = SCENARIOS[name].build(**params)[family]
    batch = simulate_rounds(expr, parse_state_spec(spec, expr.topology), 20_000,
                            seed=3)
    want = estimate(expr, batch).as_dict()
    for block in (4099, 20_001):
        monkeypatch.setattr(sampler, "_BLOCK", block)
        assert estimate(expr, batch).as_dict() == want


@pytest.mark.parametrize("name,family,spec,k", [
    ("chsh", "first", "natural", None),
    ("two-source", "combined", "rho1(0.5)", None),
    ("ghz-b", "first", "natural", None),
    ("star", "combined", "natural", 3),
])
def test_block_boundaries_are_invisible(name, family, spec, k, monkeypatch):
    # every draw is taken a block at a time: any block length gives the
    # batch of one block, across families, a mixture and a 3-qubit source
    expr = SCENARIOS[name].build(**({"k": k} if k else {}))[family]
    state = parse_state_spec(spec, expr.topology)
    want = simulate_rounds(expr, state, 10_001, seed=9)
    for block in (1, 7, 4099):
        monkeypatch.setattr(sampler, "_BLOCK", block)
        _assert_same_batch(simulate_rounds(expr, state, 10_001, seed=9), want)


def test_round_log_file_bytes_match_reference(tmp_path):
    expr = build_star_combined(3)
    batch = simulate_rounds(expr, network_state(expr.topology), 20000, seed=4)
    batch.to_csv(tmp_path / "log.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        csv_reference(batch, fh)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _array_batch(n_rounds, vocab):
    """A batch built from arrays, nothing simulated: inputs uniform over each
    party's vocabulary, outcomes of both signs."""
    rng = np.random.default_rng(5)
    input_idx = {p: rng.integers(0, len(v), n_rounds).astype(np.int8)
                 for p, v in vocab.items()}
    outcomes = {p: (1 - 2 * rng.integers(0, 2, n_rounds)).astype(np.int8)
                for p in vocab}
    return RoundBatch(tuple(vocab), vocab, input_idx, outcomes, seed=0)


def test_round_log_matches_csv_writer_across_digit_counts(tmp_path):
    # 100,001 rounds cross every digit count up to 10^5 and ten 10^4 seams;
    # vocabularies of 1, 3 and 5 inputs, with labels csv.writer quotes
    batch = _array_batch(100_001, {
        "Alice": ("x0",),
        "B12": ("00", "in,1", 'q"2'),
        "hub": ("ZZ", "XZ1", "a b", "7", "-1")})
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        csv_reference(batch, fh)
    batch.to_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    got = io.StringIO(newline="")
    batch.to_csv(got)
    with open(tmp_path / "ref.csv", newline="") as fh:
        assert got.getvalue() == fh.read()


def test_round_log_refuses_a_nul_label(tmp_path):
    # a NUL would vanish with the padding of the rows' tails
    batch = _array_batch(3, {"A": ("0", "1\0")})
    with pytest.raises(ValueError, match="NUL"):
        batch.to_csv(io.StringIO(newline=""))


def test_round_log_memory_at_star_combined_k3(tmp_path):
    # a block of at most 10^4 rounds at a time, below the 4 MiB or so that
    # estimating the same rounds takes beyond the batch
    expr = build_star_combined(3)
    batch = simulate_rounds(expr, network_state(expr.topology), 1_000_000, seed=1)
    tracemalloc.start()
    try:
        batch.to_csv(tmp_path / "log.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_cancelling_derivatives_of_two_empty_cells_keep_se_infinite():
    # CHSH term "1" reads cells (A0, B1) and (A1, B1) with weights +1 and -1;
    # with B=1 never drawn both are empty, and each alone must make se infinite
    expr = build_chsh()
    rows = [({"A": a, "B": "0"}, {"A": 1, "B": 1 - 2 * (i % 2)})
            for i, a in enumerate("0101")]
    rep = estimate(expr, _hand_batch(expr, rows))
    assert rep.empty_cells == 2
    assert math.isinf(rep.se) and math.isinf(rep.families[UNPRIMED][1])
    assert rep.as_dict() == estimate_reference(expr, _hand_batch(expr, rows)).as_dict()


def test_empty_cell_whose_derivatives_cancel_adds_nothing():
    # ghz-b's plain and primed terms share every cell; on half of them their
    # weights cancel, so leaving those empty keeps the total se finite
    expr = build_ghz_b()
    parties = expr.topology.party_ids()
    singles = [p for p in parties if p != "B"]
    rows = []
    for y in ("00", "01", "10", "11"):
        pair = [t for t in expr.terms if t.correlator.joint_map["B"] == y]
        for x in itertools.product((0, 1), repeat=len(singles)):
            signs = [(-1) ** sum(xi * t.correlator.exponent_map[p]
                                 for xi, p in zip(x, singles)) for t in pair]
            if sum(t.coefficient * s for t, s in zip(pair, signs)) == 0:
                continue  # a cancelling cell: leave it empty
            inputs = {"B": y, **{p: str(xi) for p, xi in zip(singles, x)}}
            for out in (1, -1):
                rows.append((inputs, {p: out if p == "B" else 1 for p in parties}))
    rep = estimate(expr, _hand_batch(expr, rows))
    assert rep.empty_cells == 32  # 16 cells, each read by two terms
    assert math.isfinite(rep.se) and rep.se > 0
    assert all(math.isinf(t.se) for t in rep.terms)
    assert rep.as_dict() == estimate_reference(expr, _hand_batch(expr, rows)).as_dict()


def test_star_first_k10_term_reads_its_own_cells():
    # from K=10 on, sorted party names (A1, A10, A2, ...) differ from the
    # topology order; one round per cell of one term, with outcome products
    # (-1)^(x.e), must give that term exactly normalization * 2^s
    expr = build_star_first(10)
    term = next(t for t in expr.terms if t.correlator.label == "0100000001")
    corr = term.correlator
    branches = [p for p in expr.topology.party_ids() if p in corr.exponent_map]
    rows = []
    for x in itertools.product((0, 1), repeat=len(branches)):
        parity = sum(xi * corr.exponent_map[p] for xi, p in zip(x, branches)) % 2
        inputs = {"B": corr.joint_map["B"], **{p: str(xi) for p, xi in zip(branches, x)}}
        outcomes = {"B": 1 - 2 * parity, **{p: 1 for p in branches}}
        rows.append((inputs, outcomes))
    rep = estimate(expr, _hand_batch(expr, rows))
    got = next(t for t in rep.terms if t.label == corr.label)
    assert got.estimate == float(corr.normalization) * 2 ** len(branches)
    assert got.min_cell_rounds == 1


def test_sparse_estimate_memory_at_star_combined_k8():
    # 2^25 dense input cells; the estimate touches only the terms' cells
    expr = build_star_combined(8)
    batch = simulate_rounds(expr, network_state(expr.topology), 20000, seed=5)
    tracemalloc.start()
    try:
        rep = estimate(expr, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert rep.n_rounds == 20000 and len(rep.terms) == 512


def test_estimate_memory_at_star_combined_k11():
    # 2^12 terms of 2^11 cells each, 2^23 (term, cell) pairs in all; the
    # estimate walks only the profiles that 1e5 rounds reach
    expr = build_star_combined(11)
    batch = simulate_rounds(expr, network_state(expr.topology), 100_000, seed=5)
    tracemalloc.start()
    try:
        rep = estimate(expr, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert rep.n_rounds == 100_000 and len(rep.terms) == 4096
    # at most one cell per round is reached, so no term has all its cells
    assert rep.empty_cells >= 4096 * 2 ** 11 - 100_000
    assert all(t.min_cell_rounds == 0 and math.isinf(t.se) for t in rep.terms)


@st.composite
def _cdf_rows(draw):
    """CDF rows of 1- to 3-qubit sources as the sampler builds them, with
    zero-probability outcomes, deterministic rows and totals one ulp off 1."""
    k = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=1 << k,
                                         max_size=1 << k)), dtype=float)
        if draw(st.booleans()):  # deterministic
            weights[:] = 0.0
            weights[draw(st.integers(0, (1 << k) - 1))] = 1.0
        if not weights.any():
            weights[-1] = 1.0
        row = np.cumsum(weights / weights.sum())
        row[-1] = draw(st.sampled_from([1.0, np.nextafter(1.0, 0.0),
                                        np.nextafter(1.0, 2.0), row[-1]]))
        rows.append(np.minimum(row, row[-1]))
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(_cdf_rows(), st.integers(0, 10),
       st.lists(st.integers(0, (1 << 53) - 1), max_size=20))
def test_bucket_table_outcome_is_the_direct_count(cdf, b, draws):
    # u = m 2^-53 as Generator.random gives it; the sampler reads cell
    # (row, floor(u 2^b)) and, where it holds -1, counts the CDF directly
    table = sampler._bucket_table(cdf, b).reshape(len(cdf), 1 << b)
    assert table.dtype == np.int16
    edges = [j << (53 - b) for j in range(1 << b)]
    edges += [((j + 1) << (53 - b)) - 1 for j in range(1 << b)]
    for row, cells in zip(cdf, table):
        split = 0
        for m in edges + draws + [0, (1 << 53) - 1]:
            u = m * 2.0 ** -53
            direct = int(np.count_nonzero(row[:-1] <= u * row[-1]))
            cell = int(cells[m >> (53 - b)])
            assert cell in (direct, -1)
        for j, cell in enumerate(cells.tolist()):
            lo, hi = (int(np.count_nonzero(row[:-1] <= u * row[-1]))
                      for u in (edges[j] * 2.0 ** -53,
                                edges[j + (1 << b)] * 2.0 ** -53))
            assert cell == (lo if lo == hi else -1)
            split += cell < 0
        # outcomes rise with u, so at most one split bucket per step
        assert split <= len(row) - 1


@pytest.mark.parametrize("name,family,spec,k", [
    ("ghz-b", "first", "mixed", None),
    ("two-source", "combined", "rho1(0.4)", None),
    ("star", "combined", "natural", 3),
])
def test_full_bucket_tables_match_reference_loops(name, family, spec, k,
                                                  monkeypatch):
    # at 1e5 rounds every source's table has 2^10 buckets per reached group
    monkeypatch.setattr(sampler_oracle, "sum", compensated_sum, raising=False)
    real, bits = sampler._bucket_table, []

    def recorded(cdf, b):
        bits.append(b)
        return real(cdf, b)

    monkeypatch.setattr(sampler, "_bucket_table", recorded)
    expr = SCENARIOS[name].build(**({"k": k} if k else {}))[family]
    state = parse_state_spec(spec, expr.topology)
    batch = simulate_rounds(expr, state, 100_000, seed=5)
    assert bits and set(bits) == {10}
    _assert_same_batch(batch, simulate_rounds_reference(expr, state, 100_000, 5))
    assert estimate(expr, batch).as_dict() == estimate_reference(expr, batch).as_dict()


def test_unequal_interleaved_families_match_reference_loops():
    # four unprimed and three primed terms, interleaved: the label draw then
    # scales by each round's own family size and the families are no ranges
    model = scenario_oracle.build_star_combined(2)
    primed = [t for t in model.terms if t.family == model.families()[1]]
    plain = [t for t in model.terms if t.family == model.families()[0]][:3]
    expr = dataclasses.replace(model, terms=(
        primed[0], plain[0], primed[1], primed[2], plain[1], primed[3], plain[2])).expr()
    assert expr.input_index.family.tolist() == [1, 0, 1, 1, 0, 1, 0]
    state = network_state(expr.topology)
    for rounds, seed in ((7, 1), (3000, 2)):
        batch = simulate_rounds(expr, state, rounds, seed)
        _assert_same_batch(batch, simulate_rounds_reference(expr, state, rounds, seed))


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 65535, 65536, 131073])
@pytest.mark.parametrize("before", [0, 5])
def test_random_bits_are_the_integers_draw(n, before):
    # the x bits come from raw Philox words: the bits and the state they
    # leave are those of rng.integers(0, 2), from a fresh generator and
    # after an odd draw that leaves a half word pending
    want_rng, rng = (np.random.Generator(np.random.Philox(key=2024)) for _ in range(2))
    for gen in (want_rng, rng):
        gen.integers(0, 2, size=before)
    want = want_rng.integers(0, 2, size=n)
    got = np.full(n, -1, dtype=np.int8)
    sampler._random_bits(rng, got)
    assert np.array_equal(got, want)
    assert _same_state(rng.bit_generator.state, want_rng.bit_generator.state)
