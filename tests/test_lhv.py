"""Classical (shared-randomness) maxima: enumeration, structure, certification."""

import dataclasses
import functools
import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lhv_oracle
from conftest import compensated_sum, nkm_wirings
from lhv_oracle import (
    Strategy,
    block_numeric_reference,
    correlator_value,
    cross_polytope_structure_reference,
    enumerate_vertices_reference,
    evaluate_strategy,
    linear_lhv_max_reference,
    mixture_numeric_reference,
    normalization_check_reference,
)
from netbell import lhv, network, scenario
from netbell.lhv import (
    BudgetExceeded,
    certify,
    cross_polytope_structure,
    enumerate_vertices,
    linear_lhv_max,
    nonlinear_lhv_max,
    normalization_check,
)
from netbell.scenario import (
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
)
import scenario_oracle
from scenario_oracle import party_inputs


def constant_strategy(expr, value=1):
    outputs = []
    for party in expr.topology.party_ids():
        for inp in party_inputs(expr, party):
            outputs.append(((party, inp), value))
    return Strategy(tuple(outputs))


def test_chsh_vertices_frozen():
    expr = build_chsh()
    vs = enumerate_vertices(expr)
    assert expr.n_strategies_raw() == 16 and vs.n_reduced == 16
    got = set(vs.vectors)
    two = Fraction(2)
    assert got == {(two, 0), (-two, 0), (0, two), (0, -two)}
    assert linear_lhv_max(expr, vs) == 2


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
    for expr in _certified_by_enumeration():
        vs = enumerate_vertices(expr)
        for v in range(len(vs.numerators)):
            wit = Strategy(tuple(((party, inp), out)
                                 for party, outs in vs.witness(v).items()
                                 for inp, out in outs.items()))
            got = tuple(correlator_value(expr, t, wit) for t in expr.terms)
            assert got == vs.vector(v), expr.name


def test_reduced_enumeration_is_lossless():
    # brute-force all 256 raw strategies of the line network's first family
    expr = build_two_source_linear()["first"]
    inputs = [(p, inp) for p in expr.topology.party_ids()
              for inp in party_inputs(expr, p)]
    assert len(inputs) == 8
    raw_vectors = set()
    for bits in itertools.product((1, -1), repeat=len(inputs)):
        strat = Strategy(tuple((key, b) for key, b in zip(inputs, bits)))
        raw_vectors.add(tuple(
            correlator_value(expr, t, strat) for t in expr.terms))
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
        scales = cross_polytope_structure(expr)
        assert scales is not None, expr.name
        assert sum(scales) == linear_lhv_max(expr), expr.name
    # the combined hub-GHZ families reuse the same inputs: blocks correlate
    assert cross_polytope_structure(build_ghz_a("combined")) is None
    # baselines keep only part of the label set
    assert cross_polytope_structure(build_bilocal_baseline()["bi"]) is None


def test_structure_agrees_with_enumeration():
    for expr in (build_chsh(), build_two_source_linear()["first"],
                 build_star_first(2), build_star_combined(2), build_ghz_b()):
        scales = cross_polytope_structure(expr)
        enumerated = linear_lhv_max(expr, enumerate_vertices(expr))
        assert sum(scales) == enumerated, expr.name


def _structure_agrees(expr):
    """The table-read detection returns the per-term reference's scales; an
    enumerable structured input has their sum as its linear maximum and
    passes the normalization check."""
    scales = cross_polytope_structure(expr)
    assert scales == cross_polytope_structure_reference(expr), expr.name
    if scales is not None and expr.n_strategies_raw() <= lhv.ENUM_THRESHOLD:
        vertices = enumerate_vertices(expr)
        linear = dataclasses.replace(expr, exponent=Fraction(1))
        assert sum(scales) == linear_lhv_max(linear, vertices), expr.name
        assert normalization_check(expr, vertices) is None, expr.name


def _structure_cases():
    """The catalog, star K=2..10 in every family, the star power forms, and
    star first K=3 broken four ways: a term dropped, a repeated exponent
    pattern, one normalization changed, and a family with no terms."""
    exprs = []
    for name, params in [(name, {}) for name in scenario.SCENARIOS] + [
            ("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]:
        exprs += scenario.SCENARIOS[name].build(**params).values()
    for k in range(2, 11):
        exprs += [build_star_first(k), build_star_second(k), build_star_combined(k)]
    for k, r in ((2, Fraction(1, 3)), (3, Fraction(1, 5)), (5, Fraction(1, 3))):
        exprs += [build_star_nonlinear(k, r, family)
                  for family in ("first", "second", "combined")]
    star = scenario_oracle.build_star_first(3)
    last = star.terms[-1]
    corr = last.correlator

    def with_last(correlator):
        last_term = dataclasses.replace(last, correlator=correlator)
        return dataclasses.replace(star, terms=star.terms[:-1] + (last_term,))

    edited = [dataclasses.replace(star, terms=star.terms[:-1]),
              with_last(dataclasses.replace(
                  corr, exponents=star.terms[0].correlator.exponents)),
              with_last(dataclasses.replace(corr, normalization=Fraction(1, 3))),
              dataclasses.replace(star, observables=star.observables + (
                  ("idle", star.observables[0][1]),))]
    exprs += [model.expr() for model in edited]
    return exprs


def test_structure_detection_matches_per_term_reference():
    for expr in _structure_cases():
        _structure_agrees(expr)


@settings(max_examples=40, deadline=None)
@given(nkm_wirings())
def test_structure_detection_matches_reference_on_nkm_wirings(case):
    topo, bits = case
    for expr in build_nkm(topo, bits).values():
        _structure_agrees(expr)


def test_ghz_a_combined_lhv_by_enumeration():
    expr = build_ghz_a("combined")
    vs = enumerate_vertices(expr)
    assert expr.n_strategies_raw() == 1024
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


def test_catalog_counterexample_is_pinned():
    # the catalog's only vertex that breaks the normalization property,
    # as the certify report prints it
    want = {"family": "unprimed",
            "strategy": {"A": {"0": -1, "1": -1}, "B": {"00": -1, "11": -1},
                         "C": {"0": -1, "1": 1}},
            "values": {"00": "0", "11": "0"}}
    for expr in build_bilocal_baseline().values():
        got = normalization_check(expr, enumerate_vertices(expr))
        assert got == want, expr.name
        assert repr(got["strategy"]) == repr(want["strategy"])  # sorted, as printed


def test_nonlinear_star_analytic():
    expr = build_star_nonlinear(3, Fraction(1, 3), "first")
    detail = nonlinear_lhv_max(expr)
    assert detail["method"] == "cross-polytope"
    assert detail["analytic"] == pytest.approx(4.0, abs=1e-12)
    assert detail["numeric"] == pytest.approx(4.0, rel=1e-12)
    comb = build_star_nonlinear(3, Fraction(1, 3), "combined")
    detail = nonlinear_lhv_max(comb)
    assert detail["analytic"] == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(ValueError, match="use linear_lhv_max"):
        nonlinear_lhv_max(build_star_combined(3))


def test_nonlinear_baselines_via_vertex_mixture():
    bi = build_bilocal_baseline()["bi"]
    detail = nonlinear_lhv_max(bi)
    assert detail["method"] == "vertex-mixture"
    # the bracket closes: the uniform mixture of (1, 0) and (0, 1) attains
    # the power-mean bound 1^(1/2) * 2^(1/2)
    assert detail["analytic"] == detail["numeric"] == 2.0 ** 0.5
    bil = build_bilocal_baseline()["bil"]
    assert linear_lhv_max(bil, enumerate_vertices(bil)) == 1


def _enumerated_inputs():
    """Catalog expressions certified by enumeration, star K = 2, 3, nkm wirings."""
    exprs = []
    for info in scenario.SCENARIOS.values():
        for expr in info.build().values():
            if (expr.n_strategies_raw() <= lhv.ENUM_THRESHOLD
                    or cross_polytope_structure(expr) is None):
                exprs.append(expr)
    for k in (2, 3):
        exprs += [build_star_first(k), build_star_second(k),
                  build_star_combined(k)]
    for args, kwargs, bits in (
            ((3, 2, 2, ((2, 0, 1),)), {}, None),
            ((2, 2, 1, ()), {"alice_recipients": (0, 0)}, None),
            ((4, 2, 3, ((2, 0, 2), (3, 1, 2))), {}, {2: 1}),
            ((5, 3, 3, ((3, 0, 1), (4, 1, 2))), {}, None)):
        exprs += build_nkm(network.nkm(*args, **kwargs), bits).values()
    return exprs


def test_enumeration_matches_product_table(monkeypatch):
    exprs = _enumerated_inputs()
    assert len(exprs) >= 25
    for expr in exprs:
        try:
            want = enumerate_vertices_reference(expr)
        except BudgetExceeded:
            # star combined K = 3: 2^28 reduced strategies
            with pytest.raises(BudgetExceeded):
                enumerate_vertices(expr)
            continue
        # equal rows, order, counts and lowest-code witnesses; then with
        # five candidate rows per dedup call: slices cut through prefixes
        _assert_same_vertices(enumerate_vertices(expr), want, expr)
        with monkeypatch.context() as m:
            m.setattr(lhv, "_CHUNK", 5)
            _assert_same_vertices(enumerate_vertices(expr), want, expr)


def _assert_same_vertices(got, want, expr):
    name = expr.name
    assert (expr.n_strategies_raw(), got.n_reduced) == (want.n_raw, want.n_reduced), name
    assert got.denominator == want.denominator, name
    assert got.numerators.dtype == np.int64
    assert np.array_equal(got.numerators, want.numerators), name
    assert got.codes.tolist() == list(want.codes), name
    assert got.vectors == want.vectors, name
    for v, wit in enumerate(want.witnesses):
        assert got.witness(v) == wit.grouped(), name


def _certified_by_enumeration():
    """Every input that ``certify`` enumerates: the catalog (every scenario
    at its defaults, star K=2 and star K=3 at r=1/3), star first K=2..8 and
    combined K=2..7, and bilocal variants with a genuine bound or signed
    terms."""
    exprs = []
    for name, params in [(name, {}) for name in scenario.SCENARIOS] + [
            ("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]:
        exprs += scenario.SCENARIOS[name].build(**params).values()
    exprs += [build_star_first(k) for k in range(2, 9)]
    exprs += [build_star_combined(k) for k in range(2, 8)]
    bilocal = build_bilocal_baseline()
    exprs += [dataclasses.replace(bilocal["bi"], bound_model="genuine",
                                  classical_bound=bound) for bound in (2, 1)]
    exprs.append(dataclasses.replace(bilocal["bil"], absolute=False))
    return [e for e in exprs if e.n_strategies_raw() <= lhv.ENUM_THRESHOLD
            or cross_polytope_structure(e) is None]


def test_integer_maxima_match_fraction_loops():
    exprs = _certified_by_enumeration()
    assert len(exprs) >= 20
    counterexamples = 0
    for expr in exprs:
        vertices = enumerate_vertices(expr)
        reference = enumerate_vertices_reference(expr)
        want = normalization_check_reference(expr, reference)
        assert normalization_check(expr, vertices) == want, expr.name
        counterexamples += want is not None
        if expr.exponent == 1:
            got = linear_lhv_max(expr, vertices)
            assert type(got) is Fraction, expr.name
            assert got == linear_lhv_max_reference(expr, reference), expr.name
    assert counterexamples >= 3  # bilocal bi and its two genuine variants


def test_vertex_numerators_refuse_to_wrap():
    expr = build_chsh()  # two terms, normalization 1
    num, den = lhv._numerators(expr, np.array([[1 << 61, -(1 << 61)]]))
    assert den == 1 and num.tolist() == [[1 << 61, -(1 << 61)]]
    # 2^62 fits in int64, but a row sum over the two terms may not
    with pytest.raises(OverflowError, match="overflow int64"):
        lhv._numerators(expr, np.array([[1 << 62, 0]]))


def test_float_sums_add_left_to_right(monkeypatch):
    # values whose compensated sum (Python 3.12's builtin) differs from the
    # left-to-right one; ``sum`` shadowed in lhv and lhv_oracle reads the
    # 3.12 result
    left = functools.partial(functools.reduce, operator.add)
    monkeypatch.setattr(lhv, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(lhv_oracle, "sum", compensated_sum, raising=False)
    expr = build_star_nonlinear(2, Fraction(1, 3), "first")
    values = [Fraction(1), Fraction(1, 10 ** 9), Fraction(1, 10 ** 9),
              Fraction(1, 10 ** 9)]
    monkeypatch.setattr(lhv_oracle, "correlator_value",
                        lambda e, t, s: values[e.terms.index(t)])
    powered = [t.coefficient * expr.power(v) for t, v in zip(expr.terms, values)]
    assert left(powered, 0.0) != compensated_sum(powered)
    assert evaluate_strategy(expr, constant_strategy(expr)) == left(powered, 0.0)
    # the closed form adds its families' values in family order: star first
    # K=3's eight terms as four families of two
    star = build_star_nonlinear(3, Fraction(1, 3), "first")
    index = dataclasses.replace(star.input_index, families=("f0", "f1", "f2", "f3"),
                                family=np.arange(8) // 2)
    four = dataclasses.replace(star, input_index=index)
    scales = (Fraction(1),) + (Fraction(1, 10 ** 6),) * 3
    r = float(four.exponent)
    parts = [float(v) ** r * 2.0 ** (1.0 - r) for v in scales]
    assert left(parts, 0.0) != compensated_sum(parts)
    detail = lhv._maxima(four, scales, None)
    assert detail["analytic"] == left(parts, 0.0)


def test_budget_guard(monkeypatch):
    built = []
    behaviors = lhv._party_behaviors

    def spy(expr, party):
        built.append(party)
        return behaviors(expr, party)

    monkeypatch.setattr(lhv, "_party_behaviors", spy)
    # star first K=5: the hub's 2^32 x 32 key table is refused unbuilt
    with pytest.raises(BudgetExceeded, match="^party B's 2\\^32 x 32 key table"):
        enumerate_vertices(build_star_first(5))
    assert built and "B" not in built
    # the singles (4 inputs each, 2^4 x 16 key tables) exceed the budget
    # before the K=3 hub's 2^16-row table is built
    built.clear()
    monkeypatch.setattr(lhv, "DEFAULT_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="reduced strategies exceed the budget 1000$"):
        enumerate_vertices(build_star_combined(3))
    assert built and "B" not in built


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

    rep = certify(build_bilocal_baseline()["bi"])
    assert rep["verdict"] == "INFO" and "note" in rep

    loose = dataclasses.replace(build_chsh(), classical_bound=1.5)
    assert certify(loose)["verdict"] == "FAIL"


def test_certify_nonlinear_report():
    rep = certify(build_star_nonlinear(3, Fraction(1, 3)))
    assert rep["nonlinear"]["method"] == "cross-polytope"
    assert rep["lhv_max"] == pytest.approx(4.0)
    assert rep["verdict"] == "PASS"


@pytest.mark.parametrize("k,family", [(15, "first"), (16, "combined")])
def test_large_star_power_form_is_tight(k, family):
    # under the structure the attained end is the closed form itself: adding
    # the mixture's 2^K equal terms put it 4.9e-9 (first K=15) and 5.9e-8
    # (combined K=16) above the declared bound, a FAIL at the default
    # tolerance
    rep = certify(build_star_nonlinear(k, Fraction(1, 9), family))
    detail = rep["nonlinear"]
    assert detail["method"] == "cross-polytope"
    assert detail["numeric"] == detail["analytic"] == rep["lhv_max"]
    assert rep["verdict"] == "PASS" and rep["tight"]


def test_vertex_mixture_never_passes_a_genuine_bound():
    # a genuine bound passes on the proved upper end of the bracket, fails
    # on its attained lower end, and is UNPROVEN strictly inside it
    bi = build_bilocal_baseline()["bi"]
    held = dataclasses.replace(bi, bound_model="genuine", classical_bound=2)
    rep = certify(held)
    assert rep["nonlinear"]["method"] == "vertex-mixture"
    assert rep["lhv_max"] == rep["nonlinear"]["analytic"] == 2.0 ** 0.5
    assert rep["verdict"] == "PASS" and not rep["tight"]
    broken = dataclasses.replace(bi, bound_model="genuine", classical_bound=1)
    assert certify(broken)["verdict"] == "FAIL"
    # two-source combined with its last term dropped, as an absolute form at
    # r = 1/3: no structure, bracket [3.4912, 3.5198]
    model = scenario_oracle.build_two_source_linear()["combined"]
    open_form = dataclasses.replace(
        dataclasses.replace(model, terms=model.terms[:-1]).expr(),
        exponent=Fraction(1, 3), absolute=True, classical_bound=3.5)
    rep = certify(open_form)
    lower, upper = rep["nonlinear"]["numeric"], rep["nonlinear"]["analytic"]
    assert lower < 3.5 < upper == rep["lhv_max"]
    assert rep["verdict"] == "UNPROVEN" and "tight" not in rep
    assert (f"between the attained value {lower!r} and the proved upper bound "
            f"{upper!r}") in rep["note"]
    # unedited it has the structure, and the closed form attains its bound
    closed = dataclasses.replace(
        build_two_source_linear()["combined"], exponent=Fraction(1, 3),
        absolute=True, classical_bound=4.0)
    rep = certify(closed)
    assert rep["nonlinear"]["method"] == "cross-polytope"
    assert rep["nonlinear"]["numeric"] == rep["lhv_max"] == pytest.approx(
        4.10724315175794, rel=1e-12)
    assert rep["verdict"] == "FAIL"


def test_absolute_form_with_no_positive_term_attains_zero():
    # every term negated: no term is kept, so the attained end is the
    # uniform mixture of all vertices, 0, not 0/0 (a RuntimeWarning is an
    # error under the test configuration)
    bi = build_bilocal_baseline()["bi"]
    index = dataclasses.replace(bi.input_index,
                                coefficient=-bi.input_index.coefficient)
    negated = dataclasses.replace(bi, input_index=index, bound_model="genuine")
    rep = certify(negated)
    assert rep["nonlinear"] == {"analytic": 0.0, "numeric": 0.0,
                                "method": "vertex-mixture"}
    assert rep["verdict"] == "PASS"
    # under the structure that mixture is w = 0
    star = dataclasses.replace(build_star_nonlinear(2, Fraction(1, 3)), absolute=True)
    index = dataclasses.replace(star.input_index,
                                coefficient=-star.input_index.coefficient)
    detail = nonlinear_lhv_max(dataclasses.replace(star, input_index=index))
    assert detail == {"analytic": 0.0, "numeric": 0.0, "method": "cross-polytope"}


def test_absolute_form_with_structure_needs_no_enumeration(monkeypatch):
    def refuse(expr):
        raise AssertionError("enumerate_vertices called")

    monkeypatch.setattr(lhv, "enumerate_vertices", refuse)
    expr = dataclasses.replace(build_star_combined(3), exponent=Fraction(1, 3),
                               absolute=True)
    rep = certify(expr)
    assert rep["method"] == rep["nonlinear"]["method"] == "cross-polytope"
    assert rep["normalization"] == "structural"
    # scale 1 per family; kept are all 8 first-family terms and the 4
    # even-parity second-family ones: 8^(2/3) + 4^(2/3), attained
    assert rep["lhv_max"] == pytest.approx(4 + 4 ** (2 / 3), rel=1e-12)
    assert rep["nonlinear"]["numeric"] == pytest.approx(rep["lhv_max"], rel=1e-12)


def _power_form_bases():
    return (build_bilocal_baseline()["bi"], build_ghz_b(),
            build_two_source_linear()["combined"],
            *(build_ghz_a(v) for v in ("first", "second", "combined")))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_power_form_bases()),
       st.sampled_from([Fraction(1, 3), Fraction(1, 5), Fraction(3, 5),
                        Fraction(1, 7)]),
       st.booleans())
def test_power_form_bracket(base, r, absolute):
    # the witness is attained and the bound proved, so neither it nor a
    # numeric ascent over the vertex mixtures may exceed the bound
    expr = dataclasses.replace(base, exponent=r, absolute=absolute)
    detail = nonlinear_lhv_max(expr)
    upper = detail["analytic"] * (1 + 1e-12)
    assert detail["numeric"] <= upper
    ascent = mixture_numeric_reference(expr, enumerate_vertices(expr), 3, 7)
    assert ascent <= upper
    # the bracket closes on every base
    assert detail["numeric"] == pytest.approx(detail["analytic"], rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 5), Fraction(3, 5)],
                         ids=["1/3", "1/5", "3/5"])
def test_block_ascent_stays_under_closed_form(k, r):
    # a numeric ascent over the block's positive face (|w|^r is symmetric,
    # so the L1 ball's maximum lies there) never beats the power-mean bound
    # scale^r * 2^(k (1-r)) and reaches it
    for scale, seed in ((0.5, 3), (1.0, 7), (2.0, 8)):
        analytic = scale ** r * 2.0 ** (k * (1 - r))
        ascent = block_numeric_reference(scale, k, float(r), 12, seed)
        assert analytic - 1e-6 <= ascent <= analytic + 1e-12
    # the star witness value equals the closed form wherever t = rK < 2
    if k < 2 or not r * k < 2:
        return
    for family in ("first", "second", "combined"):
        detail = nonlinear_lhv_max(build_star_nonlinear(k, r, family))
        assert detail["method"] == "cross-polytope"
        assert detail["numeric"] == pytest.approx(detail["analytic"], rel=1e-12)
