"""Round simulation and statistical reconstruction."""

import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netbell import sampler, states
from netbell.pauli import from_letters, word
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
from netbell.states import bell_pair, ghz3, network_state, product_group, smolin
from sampler_oracle import csv_reference, estimate_reference


def _oracle_cases():
    """Every catalog expression, star K=2 and K=3 at r=1/3, star K=2..6."""
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]
    cases = []
    for name, params in builds:
        tag = name + "".join(f"-{k}{v}" for k, v in params.items())
        for family, expr in SCENARIOS[name].build(**params).items():
            cases.append(pytest.param(expr, id=f"{tag}/{family}"))
    for k in range(2, 7):
        cases.append(pytest.param(build_star_first(k), id=f"star-first-k{k}"))
        cases.append(pytest.param(build_star_combined(k), id=f"star-combined-k{k}"))
    return cases


def _hand_batch(expr, rows):
    """A batch with one round per (inputs, outcomes) row, both keyed by party."""
    parties = expr.topology.party_ids()
    vocab = {p: expr.party_inputs(p) for p in parties}
    input_idx = {p: np.array([vocab[p].index(inp[p]) for inp, _ in rows])
                 for p in parties}
    outcomes = {p: np.array([out[p] for _, out in rows], dtype=np.int8)
                for p in parties}
    return RoundBatch(parties, vocab, input_idx, outcomes, seed=0)


def test_source_distribution_respects_stabilizers():
    # measuring X,Z,Z on a three-qubit GHZ source: XZZ outcome product is +1
    g = ghz3(0, 1, 2, 3)
    specs = [(("X", 1.0),), (("Z", 1.0),), (("Z", 1.0),)]
    p = sampler._source_distribution(g, (0, 1, 2), specs)
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
    p = sampler._source_distribution(g, (0, 1), specs)
    # perfect ZZ correlation: only 00 and 11
    assert p[0] == pytest.approx(0.5) and p[3] == pytest.approx(0.5)
    assert p[1] == p[2] == pytest.approx(0.0)
    tilted = [(("Z", math.cos(0.7)), ("X", math.sin(0.7))), (("Z", 1.0),)]
    p = sampler._source_distribution(g, (0, 1), tilted)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0.0)


def test_simulate_rejects_dense_and_non_product():
    expr = build_chsh()
    dense = states.to_dense(network_state(expr.topology))
    with pytest.raises(ValueError, match="stabilizer"):
        simulate_rounds(expr, dense, 10, seed=1)
    crossed = product_group([bell_pair(0, 2, 4), bell_pair(1, 3, 4)])
    with pytest.raises(ValueError, match="spans"):
        simulate_rounds(build_two_source_linear()["first"], crossed, 10, seed=1)


def test_round_batch_access():
    expr = build_chsh()
    batch = simulate_rounds(expr, network_state(expr.topology), 50, seed=3)
    assert len(batch) == 50
    rec = batch[0]
    assert set(rec.inputs) == {"A", "B"}
    assert rec.inputs["A"] in ("0", "1")
    assert rec.outcomes["A"] in (1, -1)
    assert batch[-1].index == 49
    sliced = batch[10:20]
    assert len(sliced) == 10
    assert [r.index for r in sliced][:3] == [0, 1, 2]
    with pytest.raises(IndexError):
        batch[50]
    assert len(list(iter(batch))) == 50


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


@pytest.mark.parametrize("expr", _oracle_cases())
def test_estimate_and_round_log_match_reference_loops(expr):
    state = network_state(expr.topology)
    for rounds, seed in ((40, 1), (3000, 2)):
        batch = simulate_rounds(expr, state, rounds, seed=seed)
        assert estimate(expr, batch).as_dict() == estimate_reference(expr, batch).as_dict()
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        batch.to_csv(got)
        csv_reference(batch, want)
        assert got.getvalue() == want.getvalue()


def test_round_log_file_bytes_match_reference(tmp_path):
    expr = build_star_combined(3)
    batch = simulate_rounds(expr, network_state(expr.topology), 20000, seed=4)
    batch.to_csv(tmp_path / "log.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        csv_reference(batch, fh)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
