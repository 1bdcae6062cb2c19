"""Acceptance checks: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; without ``-s`` the lines appear in the captured output of any
failing criterion.
"""

import contextlib
import math
from fractions import Fraction

import numpy as np

from netbell import network, states
from netbell.lhv import certify, enumerate_vertices, normalization_check
from netbell.pauli import PauliString
from netbell.quantum import (
    claimed_max_check,
    compile_expression,
    evaluate,
    optimize_angles,
)
from netbell.sampler import estimate, simulate_rounds
from netbell.scenario import (
    QUARTER_PI,
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
from netbell.states import bell_pair, ghz3, network_state, product_group, smolin

from conftest import dense_expectation, letters, stabilizer_vector
from quantum_oracle import gradient
from scenario_oracle import observables_for, segmented_operator

SQRT2 = math.sqrt(2.0)


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {summary}")
        raise
    print(f"[criterion {number}] PASS: {summary}")


def angles_at_quarter_pi(angles, tol=1e-6):
    return all(abs(theta - QUARTER_PI) <= tol for theta in angles.values())


def test_criterion_1_chsh_baseline():
    with criterion(1, "chsh: bound 2 over 16 strategies, max 2*sqrt(2) at pi/4"):
        rep = certify(build_chsh())
        assert rep["n_strategies_raw"] == 16
        assert rep["lhv_max"] == 2.0 and rep["lhv_max_exact"] == "2"
        assert rep["verdict"] == "PASS"
        expr = build_chsh()
        res = optimize_angles(expr, network_state(expr.topology))
        assert abs(res.value - 2.0 * SQRT2) <= 1e-9
        assert angles_at_quarter_pi(res.angles)


def test_criterion_2_two_source_families():
    with criterion(2, "two-source: classical 1 per family, quantum 2+2=4"):
        exprs = build_two_source_linear()
        for fam in ("first", "second"):
            rep = certify(exprs[fam])
            assert rep["method"] == "enumeration"
            assert rep["n_strategies_reduced"] <= 256
            assert rep["lhv_max_exact"] == "1"
            assert rep["verdict"] == "PASS"
        state = network_state(exprs["first"].topology)
        assert abs(evaluate(exprs["first"], state) - 2.0) <= 1e-9
        assert abs(evaluate(exprs["second"], state) - 2.0) <= 1e-9
        assert abs(evaluate(exprs["combined"], state) - 4.0) <= 1e-9


def test_criterion_3_smolin_values():
    with criterion(3, "smolin: L = 1 and combined = 2 exactly, bi = sqrt(2)"):
        exprs = build_two_source_linear()
        sm = smolin()
        assert evaluate(exprs["first"], sm) == 1.0
        assert evaluate(exprs["combined"], sm) == 2.0
        bi = build_bilocal_baseline()["bi"]
        assert abs(evaluate(bi, sm) - SQRT2) <= 1e-9


def test_criterion_4_star_networks():
    with criterion(4, "star K=2,3,4: 2^(K/2) per family, twice that combined"):
        for k in (2, 3, 4):
            first = build_star_first(k)
            state = network_state(first.topology)
            want = 2.0 ** (k / 2.0)
            assert abs(evaluate(first, state) - want) <= 1e-9
            res = optimize_angles(first, state, starts=4)
            assert abs(res.value - want) <= 1e-9
            assert angles_at_quarter_pi(res.angles)
            comb = build_star_combined(k)
            res = optimize_angles(comb, state, starts=4)
            assert abs(res.value - 2.0 * want) <= 1e-9
            assert angles_at_quarter_pi(res.angles)
            for expr in (first, build_star_second(k), comb):
                rep = certify(expr)
                assert rep["verdict"] == "PASS"
                assert rep["lhv_max"] == expr.classical_bound
                if k <= 3 and expr is first:
                    assert rep["method"] == "enumeration"
            if k == 4:
                assert certify(build_star_first(4))["method"] == "cross-polytope"


def test_criterion_5_nonlinear_star():
    with criterion(5, "star K=3, r=1/3: classical 4 and 8, quantum 2^2.5 and 2^3.5"):
        first = build_star_nonlinear(3, Fraction(1, 3), "first")
        rep = certify(first)
        nl = rep["nonlinear"]
        assert abs(nl["analytic"] - 4.0) <= 1e-12
        assert abs(nl["numeric"] - 4.0) <= 1e-6
        assert rep["verdict"] == "PASS"
        state = network_state(first.topology)
        res = optimize_angles(first, state, starts=4)
        assert abs(res.value - 2.0 ** 2.5) <= 1e-9
        comb = build_star_nonlinear(3, Fraction(1, 3), "combined")
        rep = certify(comb)
        assert abs(rep["nonlinear"]["analytic"] - 8.0) <= 1e-12
        res = optimize_angles(comb, state, starts=4)
        assert abs(res.value - 2.0 ** 3.5) <= 1e-9


def test_criterion_6_nkm_network():
    with criterion(6, "nkm(3,2,2): max 2 per family; collapse reproduces star"):
        exprs = build_nkm(network.nkm(3, 2, 2, wiring=((2, 0, 1),)))
        state = network_state(exprs["first"].topology)
        for fam in ("first", "second"):
            res = optimize_angles(exprs[fam], state, starts=4)
            assert abs(res.value - 2.0) <= 1e-9
            assert certify(exprs[fam])["verdict"] == "PASS"
        collapsed = build_nkm(network.nkm(2, 2, 1, wiring=(),
                                          alice_recipients=[0, 0]))
        star2 = {"first": build_star_first(2), "second": build_star_second(2)}
        for fam in ("first", "second"):
            a, b = collapsed[fam], star2[fam]
            assert [t.correlator.label for t in a.terms] == \
                [t.correlator.label for t in b.terms]
            assert [t.coefficient for t in a.terms] == \
                [t.coefficient for t in b.terms]
            for ta, tb in zip(a.terms, b.terms):
                assert ta.correlator.normalization == tb.correlator.normalization
                assert ta.correlator.exponent_map == tb.correlator.exponent_map
            assert a.claimed_quantum_max == b.claimed_quantum_max
            va = evaluate(a, network_state(a.topology))
            vb = evaluate(b, network_state(b.topology))
            assert va == vb  # bit-identical collapse
            skew = {(p, pl): 0.6 for p, pl in a.angle_keys()}
            assert evaluate(a, network_state(a.topology), skew) == \
                evaluate(b, network_state(b.topology), skew)


def test_criterion_7_ghz_scenarios():
    with criterion(7, "ghz cases: bounds 2 and 1, maxima 4 and 2*sqrt(2)"):
        a = build_ghz_a("combined")
        rep = certify(a)
        assert rep["method"] == "enumeration"
        assert rep["lhv_max_exact"] == "2" and rep["verdict"] == "PASS"
        check = claimed_max_check(a, starts=4)
        assert check["achieved"] and abs(check["optimized_value"] - 4.0) <= 1e-9
        b = build_ghz_b()
        rep = certify(b)
        assert rep["lhv_max_exact"] == "1" and rep["verdict"] == "PASS"
        check = claimed_max_check(b, starts=4)
        assert check["achieved"]
        assert abs(check["optimized_value"] - 2.0 * SQRT2) <= 1e-9
        # the eight pi/4 operators, with the -XXX part on the fanned source
        ops = set()
        for t in b.terms:
            c, w = segmented_operator(t.correlator, observables_for(b, t.family),
                                      b.topology.n_qubits)
            ops.add((t.coefficient if c > 0 else -t.coefficient, letters(w)))
        assert ops == {
            (1, "ZZZZX"), (1, "ZZZXZ"), (1, "ZZXZZ"), (-1, "ZZXXX"),
            (1, "XXZZX"), (1, "XXZXZ"), (1, "XXXZZ"), (-1, "XXXXX"),
        }


def test_criterion_8_property_suites():
    with criterion(8, "properties: backend parity, polytopes, Mahler, gradients"):
        # (a) group vs dense backend on 1000 random words, n <= 12
        rng = np.random.default_rng(42)
        words_checked = 0
        while words_checked < 1000:
            pairs = int(rng.integers(1, 4))
            triples = int(rng.integers(0, 3))
            n = 2 * pairs + 3 * triples
            if n > 12:
                continue
            qs = iter(rng.permutation(n).tolist())
            groups = []
            for _ in range(pairs):
                zs, xs = (int(rng.choice([-1, 1])) for _ in range(2))
                groups.append(bell_pair(next(qs), next(qs), n, zs, xs))
            for _ in range(triples):
                groups.append(ghz3(next(qs), next(qs), next(qs), n))
            g = product_group(groups)
            vec = stabilizer_vector(g)
            for _ in range(50):
                full = (1 << n) - 1
                p = PauliString(n, int(rng.integers(0, full + 1)),
                                int(rng.integers(0, full + 1)),
                                int(rng.choice([2, 0])))
                got = states.expectation(g, p)
                want = dense_expectation(vec, p).real
                assert abs(got - want) <= 1e-12
                words_checked += 1

        # (b) star vertex sets are exactly the cross-polytope corners, K <= 3
        for k in (2, 3):
            vs = enumerate_vertices(build_star_first(k))
            dim = 1 << k
            want = {tuple(Fraction(sign if i == j else 0) for j in range(dim))
                    for i in range(dim) for sign in (1, -1)}
            assert set(vs.vectors) == want

        # (c) exactly-one-full-correlator normalization across the catalog
        catalog = [
            build_chsh(),
            *build_two_source_linear().values(),
            build_star_first(2), build_star_second(2), build_star_combined(2),
            build_ghz_a("combined"), build_ghz_b(),
            *build_nkm(network.nkm(3, 2, 2, wiring=((2, 0, 1),))).values(),
        ]
        for expr in catalog:
            assert normalization_check(expr, enumerate_vertices(expr)) is None, \
                expr.name
        bi = build_bilocal_baseline()["bi"]
        assert normalization_check(bi, enumerate_vertices(bi)) is not None

        # (d) Mahler superadditivity on 1e5 random nonnegative vectors
        sizes = rng.integers(1, 5, size=100_000)
        for size in np.unique(sizes):
            count = int((sizes == size).sum())
            xs = rng.uniform(0.0, 5.0, size=(count, size))
            ys = rng.uniform(0.0, 5.0, size=(count, size))
            lhs = np.prod(xs + ys, axis=1) ** (1.0 / size)
            rhs = (np.prod(xs, axis=1) ** (1.0 / size)
                   + np.prod(ys, axis=1) ** (1.0 / size))
            assert np.all(lhs >= rhs - 1e-12)

        # (e) analytic gradients vs finite differences at 100 random points
        cases = [
            (build_chsh(), None),
            (build_two_source_linear()["combined"], None),
            (build_star_combined(2), None),
            (build_star_nonlinear(3, Fraction(1, 3), "first"), None),
            (build_bilocal_baseline()["bi"], smolin()),
        ]
        points = 0
        while points < 100:
            for expr, st in cases:
                st = st if st is not None else network_state(expr.topology)
                compiled = compile_expression(expr, st)
                keys = expr.angle_keys()
                angles = {key: float(rng.uniform(0.15, math.pi / 2 - 0.15))
                          for key in keys}
                grad = gradient(compiled, angles)
                for key in keys:
                    h = 1e-6
                    up = {**angles, key: angles[key] + h}
                    dn = {**angles, key: angles[key] - h}
                    fd = (compiled.value(up) - compiled.value(dn)) / (2.0 * h)
                    assert abs(grad[key] - fd) <= 1e-6
                points += 1


def test_criterion_9_monte_carlo_convergence():
    with criterion(9, "star K=2 sampling: 4-SE coverage 99/100, SE ~ 1/sqrt(N)"):
        expr = build_star_first(2)
        state = network_state(expr.topology)
        hits = 0
        for seed in range(100):
            batch = simulate_rounds(expr, state, 1_000_000, seed=seed)
            rep = estimate(expr, batch)
            if abs(rep.value - 2.0) <= 4.0 * rep.se:
                hits += 1
        assert hits >= 99, f"coverage {hits}/100"
        small = estimate(expr, simulate_rounds(expr, state, 250_000, seed=0))
        large = estimate(expr, simulate_rounds(expr, state, 1_000_000, seed=0))
        ratio = small.se / large.se
        assert abs(ratio - 2.0) <= 0.4, f"SE ratio {ratio}"
