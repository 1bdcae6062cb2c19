"""Inequality construction: segmented operators, labels, validation."""

import dataclasses
import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from netbell import network, scenario
from netbell.scenario import (
    PRIMED,
    QUARTER_PI,
    SCENARIOS,
    UNPRIMED,
    InputIndex,
    Term,
    build_chsh,
    build_ghz_a,
    build_ghz_b,
    build_nkm,
    build_star_combined,
    build_star_first,
    build_star_nonlinear,
    build_two_source_linear,
    fold_rows,
    ordered_sum,
    resolve_angles,
    small_int,
    unique_rows,
)

import scenario_oracle
from conftest import compensated_sum, letters, nkm_wirings
from scenario_oracle import (
    JointPauliObservable,
    Model,
    SingleQubitObservable,
    assert_matches,
    assert_same_index,
    correlator,
    n_single,
    observables_for,
    party_inputs,
    segmented_operator,
)

SQRT2 = math.sqrt(2.0)


def segmented(expr, angles=None):
    """(family, label) -> (coefficient incl. term sign, word) at given angles."""
    out = {}
    for t in expr.terms:
        obs = observables_for(expr, t.family)
        c, w = segmented_operator(t.correlator, obs, expr.topology.n_qubits, angles)
        out[(t.family, t.correlator.label)] = (t.coefficient * c, w)
    return out


def test_chsh_segmented_operators():
    expr = build_chsh()
    ops = segmented(expr)
    assert len(ops) == 2
    c0, w0 = ops[(UNPRIMED, "0")]
    c1, w1 = ops[(UNPRIMED, "1")]
    assert c0 == SQRT2 and str(w0) == "+Z0 Z1"
    assert c1 == SQRT2 and str(w1) == "+X0 X1"


def test_chsh_segmented_at_general_angle():
    expr = build_chsh()
    theta = 0.3
    ops = segmented(expr, {("A", "ZX"): theta})
    assert ops[(UNPRIMED, "0")][0] == pytest.approx(2.0 * math.cos(theta))
    assert ops[(UNPRIMED, "1")][0] == pytest.approx(2.0 * math.sin(theta))


def test_ghz_b_operator_set():
    # the eight signed words factor as {ZZ, XX} x {ZZX, ZXZ, XZZ, -XXX}
    expr = build_ghz_b()
    ops = segmented(expr)
    got = {(1 if c > 0 else -1, letters(w)) for c, w in ops.values()}
    want = {
        (1, "ZZZZX"), (1, "ZZZXZ"), (1, "ZZXZZ"), (-1, "ZZXXX"),
        (1, "XXZZX"), (1, "XXZXZ"), (1, "XXXZZ"), (-1, "XXXXX"),
    }
    assert got == want
    for c, _ in ops.values():
        assert abs(c) == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-15)


def test_two_source_families():
    exprs = build_two_source_linear()
    first, second = exprs["first"], exprs["second"]
    assert [t.coefficient for t in first.terms] == [1, 1, 1, 1]
    assert [t.coefficient for t in second.terms] == [1, -1, -1, 1]
    # letter maps: B measures the pair in Z/X (first) or Z/Y (second)
    b1 = observables_for(first, UNPRIMED)["B"]
    b2 = observables_for(second, PRIMED)["B"]
    assert b1.letters_for("01") == "ZX" and b1.letters_for("10") == "XZ"
    assert b2.letters_for("11") == "YY"
    combined = exprs["combined"]
    assert len(combined.terms) == 8
    assert combined.families() == (UNPRIMED, PRIMED)
    assert combined.classical_bound == 2.0 and combined.claimed_quantum_max == 4.0


def test_ghz_a_labels_and_exponents():
    expr = build_ghz_a("combined")
    labels = [t.correlator.label for t in expr.terms]
    assert labels == ["000", "001", "100", "110", "000'", "010'", "100'", "101'"]
    for t in expr.terms:
        y = t.correlator.label.rstrip("'")
        e = t.correlator.exponent_map
        assert e["A"] == int(y[0])
        assert e["C"] == (int(y[1]) + int(y[2]) + 1) % 2
        assert t.correlator.joint_map["B"] == y
    # both families reuse the same observables, so angles and inputs are shared
    assert expr.angle_keys() == (("A", "ZX"), ("C", "ZX"))
    assert party_inputs(expr, "A") == ("0", "1")
    assert set(party_inputs(expr, "B")) == {"000", "001", "100", "110", "010", "101"}
    assert expr.n_strategies_raw() == 4 * 64 * 4


def test_star_first_shape():
    expr = build_star_first(3)
    assert len(expr.terms) == 8
    assert {t.correlator.normalization * 2 ** n_single(t.correlator)
            for t in expr.terms} == {1}
    assert expr.claimed_quantum_max == pytest.approx(2.0 ** 1.5)
    b = observables_for(expr, UNPRIMED)["B"]
    assert b.letters_for("101") == "XZX"
    ops = segmented(expr)
    c, w = ops[(UNPRIMED, "000")]
    assert c == pytest.approx(2.0 ** -1.5)
    assert letters(w) == "ZZZZZZ"


def test_star_combined_qualifies_branch_inputs():
    expr = build_star_combined(2)
    # branch observables differ between families, so labels carry a family bit
    assert party_inputs(expr, "A1") == ("00", "01", "10", "11")
    assert party_inputs(expr, "B") == ("000", "001", "010", "011",
                                      "100", "101", "110", "111")
    assert expr.input_label(PRIMED, "A1", "0") == "10"
    assert expr.n_strategies_raw() == 2 ** 4 * 2 ** 8 * 2 ** 4


def test_star_nonlinear_validation():
    assert build_star_nonlinear(3, Fraction(1, 3)).exponent == Fraction(1, 3)
    with pytest.raises(ValueError):
        build_star_nonlinear(3, Fraction(1, 2))  # even denominator
    with pytest.raises(ValueError):
        build_star_nonlinear(3, Fraction(2, 3))  # even numerator
    with pytest.raises(ValueError):
        build_star_nonlinear(3, Fraction(1))  # t = 3 >= 2
    with pytest.raises(ValueError):
        build_star_nonlinear(3, Fraction(5, 3))  # r > 1


def test_star_nonlinear_bounds():
    first = build_star_nonlinear(3, Fraction(1, 3), "first")
    assert first.classical_bound == pytest.approx(4.0)
    assert first.claimed_quantum_max == pytest.approx(2.0 ** 2.5)
    comb = build_star_nonlinear(3, Fraction(1, 3), "combined")
    assert comb.classical_bound == pytest.approx(8.0)
    assert comb.claimed_quantum_max == pytest.approx(2.0 ** 3.5)


def test_nkm_collapse_is_star():
    topo = network.nkm(2, 2, 1, wiring=(), alice_recipients=[0, 0])
    nk = build_nkm(topo)
    st_first = build_star_first(2)
    nk_first = nk["first"]
    assert [t.correlator.label for t in nk_first.terms] == \
        [t.correlator.label for t in st_first.terms]
    assert [t.coefficient for t in nk_first.terms] == \
        [t.coefficient for t in st_first.terms]
    for a, b in zip(nk_first.terms, st_first.terms):
        assert a.correlator.normalization == b.correlator.normalization
        assert a.correlator.exponent_map == b.correlator.exponent_map
    # hub letter maps agree input-for-input even though qubit ids differ
    hub_nk = observables_for(nk_first, UNPRIMED)["B1"]
    hub_st = observables_for(st_first, UNPRIMED)["B"]
    for y in ("00", "01", "10", "11"):
        assert hub_nk.letters_for(y) == hub_st.letters_for(y)
    assert nk_first.claimed_quantum_max == st_first.claimed_quantum_max


def test_nkm_inter_source_letters():
    topo = network.nkm(3, 2, 2, wiring=((2, 0, 1),))
    exprs = build_nkm(topo)
    for fam, expr in exprs.items():
        family = expr.families()[0]
        obs = observables_for(expr, family)
        # hub B1 holds qubits (1, 4): branch bit then fixed link bit 0 -> Z
        assert obs["B1"].letters_for("00") == "ZZ"
        assert obs["B1"].letters_for("10")[1] == "Z"
    withx = build_nkm(topo, inter_bits={2: 1})
    obs = observables_for(withx["second"], PRIMED)
    # the link pair measures X in both families, never Y
    assert obs["B1"].letters_for("01") == "ZX"
    assert obs["B2"].letters_for("01") == "ZX"
    assert obs["B1"].letters_for("11") == "YX"


def test_nkm_inter_bits_are_bits():
    topo = network.nkm(3, 2, 2, wiring=((2, 0, 1),))
    for bad in (2, -1):
        with pytest.raises(ValueError, match="inter bits must be 0 or 1"):
            build_nkm(topo, inter_bits={2: bad})


def test_nkm_inter_bits_refuse_non_integers():
    # a float bit used to reach the per-qubit lookup and fail with a bare
    # TypeError; any non-integer bit, equal to 0 or 1 or not, is refused
    topo = network.nkm(4, 2, 2, ((2, 0, 1), (3, 0, 1)))
    for bad in (1.0, 0.0, 0.5, "1", None):
        with pytest.raises(ValueError, match="inter bits must be 0 or 1"):
            build_nkm(topo, inter_bits={3: bad})
    assert build_nkm(topo, inter_bits={3: np.int64(1)}) is not None


def test_nkm_inter_bits_name_hub_hub_sources():
    # sources 0 and 1 are branch sources and there is no source 3: a bit on
    # any of them would be ignored, so it is refused
    topo = network.nkm(3, 2, 2, wiring=((2, 0, 1),))
    for source in (0, 1, 3):
        with pytest.raises(ValueError, match=f"inter bits name source {source}, "
                                             "which is not a hub-hub source"):
            build_nkm(topo, inter_bits={2: 1, source: 0})


def test_registry_refuses_parameters_a_scenario_does_not_take():
    for name, params, unused in (("star", {"k": 2, "wiring": ((2, 0, 1),)}, "wiring"),
                                 ("chsh", {"inter_bits": {2: 1}}, "inter_bits"),
                                 ("two-source", {"k": 3}, "k")):
        with pytest.raises(TypeError, match=f"'{unused}'"):
            SCENARIOS[name].build(**params)


def test_hub_term_count_is_checked_before_building():
    # families x 2^K terms, predicted from the topology; 2^17 is the limit
    with pytest.raises(ValueError, match="star-first-k18 would have 262144 terms"):
        build_star_first(18)
    with pytest.raises(ValueError, match="star-combined-k17 would have 262144 terms"):
        scenario.SCENARIOS["star"].build(k=17)
    wide = network.nkm(20, 20, 1, alice_recipients=[0] * 20)
    with pytest.raises(ValueError, match="would have 1048576 terms"):
        build_nkm(wide)


def test_bilocal_baseline_flags():
    exprs = scenario.build_bilocal_baseline()
    bi, bil = exprs["bi"], exprs["bil"]
    assert bi.exponent == Fraction(1, 2) and bi.absolute
    assert bil.exponent == Fraction(1) and bil.absolute
    assert bi.bound_model == "bilocal" == bil.bound_model
    assert bi.claimed_quantum_max == pytest.approx(SQRT2)


def test_resolve_angles():
    expr = build_chsh()
    assert resolve_angles(expr, None) == {("A", "ZX"): QUARTER_PI}
    assert resolve_angles(expr, {("A", "ZX"): 0.2}) == {("A", "ZX"): 0.2}
    with pytest.raises(KeyError):
        resolve_angles(expr, {("B", "ZX"): 0.2})
    with pytest.raises(ValueError):
        resolve_angles(expr, {("A", "ZX"): 2.0})


def test_expr_validation():
    # a model's table goes through the package's constructor, which checks it
    topo = network.chsh_pair()
    obs = (
        ("A", SingleQubitObservable(0, "ZX")),
        ("B", JointPauliObservable.make((1,), {"0": "Z", "1": "X"})),
    )

    def expr(*terms, **fields):
        return Model("x", "x", topo, ((UNPRIMED, obs),), terms, **fields).expr()

    def corr(label, y, a=None):
        return correlator(label, (("A", int(y) if a is None else a),), (("B", y),),
                          Fraction(1))
    with pytest.raises(ValueError, match="unique"):
        expr(Term(1, corr("0", "0"), UNPRIMED), Term(1, corr("0", "1"), UNPRIMED))
    ok = Term(1, corr("0", "0"), UNPRIMED)
    with pytest.raises(ValueError, match="odd"):
        expr(ok, exponent=Fraction(1, 2))
    # the classical power-mean bound needs 0 < r <= 1
    for bad in (Fraction(3), Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match=r"exponent must lie in \(0, 1\]"):
            dataclasses.replace(build_chsh(), exponent=bad)
    with pytest.raises(ValueError, match="coefficients are"):
        expr(Term(2, corr("0", "0"), UNPRIMED))
    with pytest.raises(ValueError, match="exponents are bits"):
        expr(Term(1, corr("0", "0", a=2), UNPRIMED))
    with pytest.raises(ValueError, match="at least one term"):
        expr()
    assert expr(ok).terms == (ok,)


def test_input_index_checks_its_arrays():
    good = build_ghz_b()
    ix = good.input_index
    fields = {f.name: getattr(ix, f.name) for f in dataclasses.fields(InputIndex)
              if f.init}
    for name, bad, message in (
            ("inputs", np.where(ix.inputs == 3, 4, ix.inputs), "outside its party"),
            ("inputs", ix.inputs[:, :2], "inputs has shape"),
            ("family", ix.family + 1, "family is not declared"),
            ("exponents", np.where(ix.single, ix.exponents, 1), "exponents are bits"),
            ("exps", np.where(ix.exps == 1, 2, ix.exps), "exps -1, 0 or 1"),
            ("keys", ix.keys[::-1], "sorted and distinct"),
            ("letters", ix.letters[:3], "one row per term"),
            ("vocab", ix.vocab[:2], "one entry per party"),
            ("scale", ix.scale << 52, r"below 2\^53")):
        with pytest.raises(ValueError, match=message):
            InputIndex(**{**fields, name: bad})
    with pytest.raises(ValueError, match="parties are not the topology's"):
        dataclasses.replace(good, topology=network.ghz_case_a())
    # the table is read-only and every layer shares it
    assert not ix.inputs.flags.writeable and not ix.base.flags.writeable
    assert_same_index(InputIndex(**fields), ix)


def test_registry_builds_everything():
    for name, info in SCENARIOS.items():
        exprs = info.build()
        assert set(exprs) == set(info.families), name
        for expr in exprs.values():
            assert expr.terms and expr.classical_bound > 0
    star_nl = SCENARIOS["star"].build(k=3, r=Fraction(1, 3))
    assert star_nl["first"].exponent == Fraction(1, 3)


def _nkm_case(n, k, m, wiring=(), alice_recipients=None, inter_bits=None):
    topo = network.nkm(n, k, m, wiring, alice_recipients)
    return (lambda mod: mod.build_nkm(topo, inter_bits))


def _registry_case(name, **params):
    def build(mod):
        if mod is scenario:
            return SCENARIOS[name].build(**params)
        return mod.SCENARIOS[name](**params)
    return build


HUB_BUILDS = {
    **{f"star-{fam}-k{k}": (lambda mod, f=fam, k=k: getattr(mod, f"build_star_{f}")(k))
       for fam in ("first", "second", "combined") for k in range(-1, 13)},
    **{f"star-nonlinear-{fam}-k{k}-r{r}": (
        lambda mod, f=fam, k=k, r=r: mod.build_star_nonlinear(k, r, f))
       for k, r in ((2, Fraction(1, 3)), (3, Fraction(1, 3)), (3, Fraction(1, 5)),
                    (5, Fraction(1, 3)))
       for fam in ("first", "second", "combined")},
    **{f"two-source-{fam}": (lambda mod, f=fam: mod.build_two_source_linear()[f])
       for fam in ("first", "second", "combined")},
    "nkm-3-2-2": _nkm_case(3, 2, 2, ((2, 0, 1),)),
    "nkm-3-2-2-inter": _nkm_case(3, 2, 2, ((2, 0, 1),), inter_bits={2: 1}),
    "nkm-2-2-1-collapse": _nkm_case(2, 2, 1, (), [0, 0]),
    "nkm-4-3-2": _nkm_case(4, 3, 2, ((3, 0, 1),), [0, 1, 1]),
    "nkm-5-3-3-inter": _nkm_case(5, 3, 3, ((3, 0, 1), (4, 1, 2)),
                                 inter_bits={3: 1, 4: 0}),
    "nkm-4-2-2-recipients": _nkm_case(4, 2, 2, ((2, 0, 1), (3, 0, 1)), [1, 1],
                                      inter_bits={3: 1}),
    "nkm-4-1-2": _nkm_case(4, 1, 2, ((1, 0, 1), (2, 0, 1), (3, 0, 1)),
                           inter_bits={1: 1, 3: 1}),
    **{f"registry-{name}": _registry_case(name) for name in SCENARIOS},
    "registry-star-k3-r1/3": _registry_case("star", k=3, r=Fraction(1, 3)),
    "registry-star-k4": _registry_case("star", k=4),
    "registry-nkm-4-3-2": _registry_case("nkm", n=4, k=3, m=2, wiring=((3, 0, 1),),
                                         alice_recipients=(0, 1, 1),
                                         inter_bits={3: 1}),
    # errors: K below 2, then powers that are not odd/odd in (0, 1] or give rK >= 2
    **{f"star-nonlinear-k{k}-r{r}": (
        lambda mod, k=k, r=r: mod.build_star_nonlinear(k, r, "combined"))
       for k, r in ((1, Fraction(1, 3)), (0, Fraction(1, 3)), (-1, Fraction(1, 3)),
                    (3, Fraction(1, 2)), (3, Fraction(2, 3)), (3, Fraction(1)),
                    (3, Fraction(5, 3)))},
}


@pytest.mark.parametrize("case", sorted(HUB_BUILDS))
def test_hub_builders_match_reference(case):
    def outcome(mod):
        try:
            built = HUB_BUILDS[case](mod)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        return built if isinstance(built, dict) else {None: built}

    got, want = outcome(scenario), outcome(scenario_oracle)
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for family, model in want.items():
        assert_matches(got[family], model)


@settings(max_examples=40, deadline=None)
@given(nkm_wirings())
def test_nkm_builder_matches_reference_on_random_wirings(case):
    topo, bits = case
    want = scenario_oracle.build_nkm(topo, bits)
    for family, expr in build_nkm(topo, bits).items():
        assert_matches(expr, want[family])


def test_edited_model_round_trips_through_the_constructor():
    # a model whose terms are reordered and cut is still read back exactly
    model = scenario_oracle.build_star_combined(2)
    cut = dataclasses.replace(model, terms=model.terms[::-3])
    assert_matches(cut.expr(), cut)


def _unique_rows_cases():
    rng = np.random.default_rng(11)
    big = np.iinfo(np.int64)
    extremes = rng.integers(big.min, big.max, size=(60, 3), dtype=np.int64)
    extremes[0, 0], extremes[1, 1] = big.min, big.max  # span 2^64 - 1
    cases = {
        "one-row": np.array([[3, -1, 2]]),
        "one-column": rng.integers(-3, 4, size=(40, 1)),
        "all-equal": np.full((7, 4), -5),
        "negative": rng.integers(-9, -1, size=(200, 3)),
        "span-256": rng.integers(-128, 128, size=(300, 3)),
        "span-65536": rng.integers(-40000, 25536, size=(300, 2)),
        "span-over-2^32": rng.integers(-(1 << 33), 1 << 33, size=(300, 2)),
        "span-of-int64": extremes,
        "small-dtype": rng.integers(-2, 3, size=(500, 5)).astype(np.int8),
    }
    # repeat rows, out of order, so first indices and inverses are tested
    return {name: np.concatenate([a, a[::-3], a[:2]]) for name, a in cases.items()}


@pytest.mark.parametrize("name", list(_unique_rows_cases()))
def test_unique_rows_matches_structured_unique(name):
    a = _unique_rows_cases()[name]
    want, index, inverse = np.unique(a, axis=0, return_index=True,
                                     return_inverse=True)
    got = unique_rows(a, return_index=True, return_inverse=True)
    assert got[0].dtype == want.dtype and np.array_equal(got[0], want)
    assert np.array_equal(got[1], index)
    assert np.array_equal(got[2], inverse.reshape(-1))
    assert np.array_equal(unique_rows(a), want)
    assert np.array_equal(unique_rows(a, return_inverse=True)[1],
                          inverse.reshape(-1))


def test_ordered_sum_adds_left_to_right():
    left = functools.partial(functools.reduce, operator.add)
    for xs in ([0.6, 0.3, 0.1], [1.0, 1e-16, 1e-16, 1e-16], [1e16, 1.0, -1e16],
               [-0.0], [-0.0, -0.0], [], [math.inf, 1.0]):
        got = ordered_sum(xs)
        assert math.copysign(1.0, got) == math.copysign(1.0, left(xs, 0.0))
        assert got == left(xs, 0.0)
    assert ordered_sum([0.6, 0.3, 0.1]) != compensated_sum([0.6, 0.3, 0.1])
    rows = np.array([[0.6, 0.3, 0.1], [1e16, 1.0, -1e16]])
    assert ordered_sum(rows).tolist() == [left(r, 0.0) for r in rows.tolist()]


@pytest.mark.parametrize("sizes,rows,dtype,renumberings", [
    ([3, 2, 5], 200, np.int8, 0),
    ([2, 1, 4, 4, 2], 1000, np.int16, 0),
    # 256^2 reaches the 2^16 lookup bound, so the third column renumbers first
    ([256, 256, 256], 300, np.int16, 1),
    # and then the 100 present codes times 256 times 7 pass it again
    ([256, 7, 256, 256], 300, np.intp, 2),
    # 70,000 rows lift the bound to 70,000: 256 * 260 folds without one
    ([256, 260], 70_000, np.int16, 0),
    ([5], 0, np.int8, 0),
    # a renumbering whose presence table is marked over two blocks of rows
    ([256, 256, 256], 70_000, np.int16, 1),
])
def test_fold_rows_matches_unique_rows(sizes, rows, dtype, renumberings,
                                       monkeypatch):
    # rows drawn from a third as many distinct ones, so rows repeat
    rng = np.random.default_rng(len(sizes) * rows)
    distinct = rng.integers(0, sizes, size=(max(1, rows // 3), len(sizes)))
    picked = distinct[rng.integers(0, len(distinct), size=rows)].astype(dtype)
    columns = list(picked.T)
    real, calls = np.cumsum, []

    def counted(*args, **kwargs):  # fold_rows calls it once per renumbering
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    code, present, values = fold_rows(columns, sizes)
    monkeypatch.undo()
    assert len(calls) == renumberings
    # codes order rows as their columns do, largest size first
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    table = np.stack(columns, axis=1).reshape(rows, len(sizes))[:, order]
    want, inverse = np.unique(table, axis=0, return_inverse=True)
    # each code stays in the narrow dtype of the last fold's range: the
    # distinct prefixes at the last renumbering times the sizes folded after
    bound = 1
    for i in range(len(sizes)):
        if bound * sizes[order[i]] > max(1 << 16, rows):
            bound = len(np.unique(table[:, :i], axis=0))
        bound *= sizes[order[i]]
    assert code.dtype == small_int(bound) and present.dtype == np.intp
    assert np.all(np.diff(present) > 0)
    assert np.array_equal(present[inverse.ravel()], code)  # equal rows, equal codes
    assert [v.dtype for v in values] == [c.dtype for c in columns]
    assert np.array_equal(np.stack(values, axis=1).reshape(-1, len(sizes))[:, order],
                          want)
    for c, v in zip(columns, values):  # each row's columns at its code
        assert np.array_equal(v[np.searchsorted(present, code)], c)
