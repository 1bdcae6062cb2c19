"""Classical (shared-randomness) maxima: enumeration, structure, certification."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lhv_oracle import (
    block_numeric_reference,
    maximize_on_simplex,
    mixture_numeric_reference,
)
from netbell import lhv, scenario
from netbell.lhv import (
    BudgetExceeded,
    Strategy,
    certify,
    cross_polytope_structure,
    enumerate_vertices,
    evaluate_strategy,
    linear_lhv_max,
    nonlinear_lhv_max,
    normalization_check,
)
from netbell.scenario import (
    build_bilocal_baseline,
    build_chsh,
    build_ghz_a,
    build_ghz_b,
    build_star_combined,
    build_star_first,
    build_star_nonlinear,
    build_two_source_linear,
)


def constant_strategy(expr, value=1):
    outputs = []
    for party in expr.topology.party_ids():
        for inp in expr.party_inputs(party):
            outputs.append(((party, inp), value))
    return Strategy(tuple(outputs))


def test_chsh_vertices_frozen():
    vs = enumerate_vertices(build_chsh())
    assert vs.labels == ("0", "1")
    assert vs.n_raw == 16 and vs.n_reduced == 16
    got = set(vs.vectors)
    two = Fraction(2)
    assert got == {(two, 0), (-two, 0), (0, two), (0, -two)}
    assert linear_lhv_max(build_chsh(), vs) == 2


def test_strategy_evaluation():
    expr = build_chsh()
    assert evaluate_strategy(expr, constant_strategy(expr)) == Fraction(2)
    # A brackets select term 1 only; flipping B there lands on -2
    fire_neg = Strategy(((("A", "0"), 1), (("A", "1"), -1),
                         (("B", "0"), 1), (("B", "1"), -1)))
    assert evaluate_strategy(expr, fire_neg) == Fraction(-2)
    with pytest.raises(ValueError):
        Strategy(((("A", "0"), 0),))


def test_witnesses_reproduce_vertices():
    expr = build_two_source_linear()["first"]
    vs = enumerate_vertices(expr)
    for vec, wit in zip(vs.vectors, vs.witnesses):
        got = tuple(lhv.correlator_value(expr, t, wit) for t in expr.terms)
        assert got == vec


def test_reduced_enumeration_is_lossless():
    # brute-force all 256 raw strategies of the line network's first family
    expr = build_two_source_linear()["first"]
    inputs = [(p, inp) for p in expr.topology.party_ids()
              for inp in expr.party_inputs(p)]
    assert len(inputs) == 8
    raw_vectors = set()
    for bits in itertools.product((1, -1), repeat=len(inputs)):
        strat = Strategy(tuple((key, b) for key, b in zip(inputs, bits)))
        raw_vectors.add(tuple(
            lhv.correlator_value(expr, t, strat) for t in expr.terms))
    vs = enumerate_vertices(expr)
    assert set(vs.vectors) == raw_vectors
    assert vs.n_reduced <= 256


def test_star_vertex_sets_are_cross_polytopes():
    for k in (2, 3):
        expr = build_star_first(k)
        vs = enumerate_vertices(expr)
        dim = 1 << k
        want = set()
        for i in range(dim):
            for sign in (1, -1):
                vec = [Fraction(0)] * dim
                vec[i] = Fraction(sign)
                want.add(tuple(vec))
        assert set(vs.vectors) == want
        assert linear_lhv_max(expr, vs) == 1


def test_cross_polytope_structure_detection():
    present = [
        build_chsh(),
        build_two_source_linear()["first"],
        build_two_source_linear()["combined"],
        build_star_first(4),
        build_star_combined(3),
        build_ghz_b(),
        build_ghz_a("first"),
    ]
    for expr in present:
        blocks = cross_polytope_structure(expr)
        assert blocks is not None, expr.name
        assert sum(Fraction(b.scale) for b in blocks) == \
            linear_lhv_max(expr) if expr.exponent == 1 else True
    # the combined hub-GHZ families reuse the same inputs: blocks correlate
    assert cross_polytope_structure(build_ghz_a("combined")) is None
    # baselines keep only part of the label set
    assert cross_polytope_structure(build_bilocal_baseline()["bi"]) is None


def test_structure_agrees_with_enumeration():
    for expr in (build_chsh(), build_two_source_linear()["first"],
                 build_star_first(2), build_star_combined(2), build_ghz_b()):
        blocks = cross_polytope_structure(expr)
        structural = sum(Fraction(b.scale) for b in blocks)
        enumerated = linear_lhv_max(expr, enumerate_vertices(expr))
        assert structural == enumerated, expr.name


def test_ghz_a_combined_lhv_by_enumeration():
    expr = build_ghz_a("combined")
    vs = enumerate_vertices(expr)
    assert vs.n_raw == 1024
    assert linear_lhv_max(expr, vs) == 2


def test_normalization_check():
    for expr in (build_chsh(), build_star_first(2), build_ghz_b(),
                 build_ghz_a("combined")):
        assert normalization_check(expr, enumerate_vertices(expr)) is None
    # the square-root baseline admits a strategy zeroing both correlators
    bi = build_bilocal_baseline()["bi"]
    counter = normalization_check(bi, enumerate_vertices(bi))
    assert counter is not None
    assert set(counter["values"]) == {"00", "11"}
    assert "strategy" in counter


def test_nonlinear_star_analytic():
    expr = build_star_nonlinear(3, Fraction(1, 3), "first")
    detail = nonlinear_lhv_max(expr, restarts=30, seed=3)
    assert detail["method"] == "cross-polytope"
    assert detail["analytic"] == pytest.approx(4.0, abs=1e-12)
    assert detail["numeric"] == pytest.approx(4.0, abs=1e-6)
    assert detail["numeric"] <= detail["analytic"] + 1e-9
    comb = build_star_nonlinear(3, Fraction(1, 3), "combined")
    detail = nonlinear_lhv_max(comb, restarts=30, seed=3)
    assert detail["analytic"] == pytest.approx(8.0, abs=1e-12)


def test_nonlinear_baselines_via_vertex_mixture():
    bi = build_bilocal_baseline()["bi"]
    detail = nonlinear_lhv_max(bi, restarts=60, seed=5)
    assert detail["method"] == "vertex-mixture"
    assert detail["analytic"] is None
    assert detail["numeric"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    bil = build_bilocal_baseline()["bil"]
    assert linear_lhv_max(bil, enumerate_vertices(bil)) == 1


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(build_star_combined(3), budget=10)


def test_certify_reports():
    rep = certify(build_chsh())
    assert rep["verdict"] == "PASS" and rep["tight"]
    assert rep["method"] == "enumeration"
    assert rep["lhv_max"] == 2.0 and rep["lhv_max_exact"] == "2"
    assert rep["normalization"] == "ok"

    rep = certify(build_star_first(4))
    assert rep["method"] == "cross-polytope"
    assert rep["lhv_max"] == 1.0
    assert rep["normalization"] == "structural"
    assert rep["verdict"] == "PASS"

    rep = certify(build_bilocal_baseline()["bi"], restarts=40)
    assert rep["verdict"] == "INFO" and "note" in rep

    loose = dataclasses.replace(build_chsh(), classical_bound=1.5)
    assert certify(loose)["verdict"] == "FAIL"


def test_certify_nonlinear_report():
    rep = certify(build_star_nonlinear(3, Fraction(1, 3)), restarts=20)
    assert rep["nonlinear"]["method"] == "cross-polytope"
    assert rep["lhv_max"] == pytest.approx(4.0)
    assert rep["verdict"] == "PASS"


def test_vertex_mixture_never_passes_a_genuine_bound():
    bi = build_bilocal_baseline()["bi"]
    held = dataclasses.replace(bi, bound_model="genuine", classical_bound=2)
    rep = certify(held)
    assert rep["nonlinear"]["method"] == "vertex-mixture"
    assert rep["lhv_max"] <= 2
    assert rep["verdict"] == "UNPROVEN" and "tight" not in rep
    assert "lower estimate" in rep["note"]
    # a lower estimate above the bound is an achieved mixture: still FAIL
    broken = dataclasses.replace(bi, bound_model="genuine", classical_bound=1)
    assert certify(broken)["verdict"] == "FAIL"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [1 / 3, 1 / 5, 3 / 5], ids=["1/3", "1/5", "3/5"])
def test_batched_block_ascent_matches_serial_loop(k, r):
    for seed in (3, 7, 8):
        got = lhv._block_numeric(0.5, k, r, 12, seed)
        assert got == block_numeric_reference(0.5, k, r, 12, seed)


@pytest.mark.parametrize("restarts,seed", [(100, 7), (60, 5), (40, 7)])
def test_batched_mixture_ascent_matches_serial_loop(restarts, seed):
    bi = build_bilocal_baseline()["bi"]
    vertices = enumerate_vertices(bi)
    got = lhv._mixture_numeric(bi, vertices, restarts, seed)
    want = mixture_numeric_reference(bi, vertices, restarts, seed)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_row_with_vanishing_gradient_is_frozen():
    # value w_0; the gradient e_0 vanishes on rows with w_0 < 1/4, which
    # includes Dirichlet starts but not the uniform start
    calls = []

    def f_grad(w):
        calls.append(w.copy())
        grad = np.zeros_like(w)
        grad[:, 0] = w[:, 0] >= 0.25
        return w[:, 0].copy(), grad

    best = lhv._maximize_on_simplex(f_grad, 4, 20, 5)
    first, last = calls[0], calls[-1]
    frozen = first[:, 0] < 0.25
    assert 0 < frozen.sum() < len(first)
    assert len(calls[1]) == len(first) - frozen.sum()  # never evaluated again
    assert np.array_equal(last[frozen], first[frozen])  # never stepped
    assert np.all(last[~frozen, 0] == 1.0)
    assert best == 1.0
    assert best == maximize_on_simplex(
        lambda w: tuple(x[0] for x in f_grad(w[None])), 4, 20, 5)
