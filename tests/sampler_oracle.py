"""Reference loops for the sampler's estimate and round log.

These are the straightforward per-cell and per-row loops that
``sampler.estimate`` and ``RoundBatch.to_csv`` replace: a dense array over
every input cell, one ``input_label`` lookup per (term, profile), dict
accumulation of the delta-method weights, and one ``csv.writer`` row per
(round, party).  The vectorised code must agree with them bit for bit.

``simulate_rounds_reference`` is the sampler before its group table: it
gathers every qubit's setting per round and numbers the (component,
setting...) groups one qubit at a time.  It draws from the same Philox
stream in the same order, so ``sampler.simulate_rounds`` must return the
same arrays, values and dtypes.  It calls ``_source_distribution`` once per
distinct group of the drawn rounds: the per-word loop that the package's
version replaces, one ``states.expectation`` call per Pauli word, which must
give the same distribution bit for bit.

``group_table_reference`` is ``sampler._group_table`` as it was built on
the structured ``np.unique(axis=0)`` sort; the package's one-key-per-row
sort must give the same rows and the same row per key.  ``setting_tables``
writes per-qubit specs, (letter, coefficient) sums, as the rows of the
sampler's (letter, coefficient) setting tables.

Two rules differ from the first version of that loop, and the package
follows both: a term's single parties take their profile bits and their
exponents in the same (topology) party order, and a cell whose derivatives
cancel to exactly 0 adds nothing to a standard error (the first version
multiplied 0 by the infinite variance of an empty cell and got NaN).
"""

import csv
import functools
import itertools
import math
import operator
from typing import Sequence

import numpy as np

from netbell import pauli, states
from netbell.sampler import EstimateReport, RoundBatch, TermEstimate
from netbell.scenario import resolve_angles, small_int
from netbell.states import StabilizerGroup, StabilizerMixture
from scenario_oracle import SingleQubitObservable, observables_for


def estimate_reference(expr, batch) -> EstimateReport:
    parties = expr.topology.party_ids()
    if batch.parties != tuple(parties):
        raise ValueError("round batch does not match the scenario's parties")
    sizes = [len(batch.vocab[p]) for p in parties]
    strides = np.cumprod([1] + sizes[::-1])[::-1][1:]
    code = np.zeros(batch.n_rounds, dtype=np.int64)
    prod = np.ones(batch.n_rounds, dtype=np.float64)
    for p, stride in zip(parties, strides):
        code += batch.input_idx[p].astype(np.int64) * stride
        prod *= batch.outcomes[p]
    n_cells = int(np.prod(sizes))
    counts = np.bincount(code, minlength=n_cells).astype(np.float64)
    sums = np.bincount(code, weights=prod, minlength=n_cells)
    mean = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    var = np.where(counts > 0, (1.0 - mean ** 2) / np.maximum(counts, 1.0),
                   np.inf)

    def cell_of(term, xprofile) -> int:
        cell = 0
        xiter = iter(xprofile)
        for p, stride in zip(parties, strides):
            corr = term.correlator
            if p in corr.exponent_map:
                raw = str(next(xiter))
            else:
                raw = corr.joint_map[p]
            cell += batch.vocab[p].index(expr.input_label(term.family, p, raw)) * stride
        return int(cell)

    term_cells = []
    term_values = []
    empty = 0
    for t in expr.terms:
        corr = t.correlator
        exps = [corr.exponent_map[p] for p in parties if p in corr.exponent_map]
        norm = float(corr.normalization)
        cells = []
        est = 0.0
        for xprofile in itertools.product((0, 1), repeat=len(exps)):
            sign = -1.0 if sum(x * e for x, e in zip(xprofile, exps)) % 2 else 1.0
            c = cell_of(t, xprofile)
            cells.append((c, norm * sign))
            est += norm * sign * mean[c]
            if counts[c] == 0:
                empty += 1
        term_cells.append(cells)
        term_values.append(est)

    cell_deriv: dict[int, float] = {}
    fam_cell_deriv: dict[str, dict[int, float]] = {f: {} for f in expr.families()}
    value = 0.0
    fam_value = {f: 0.0 for f in expr.families()}
    term_reports = []
    for t, cells, est in zip(expr.terms, term_cells, term_values):
        est = float(est)
        value += t.coefficient * expr.power(est)
        fam_value[t.family] += t.coefficient * expr.power(est)
        outer = t.coefficient * expr.power_slope(est)
        se2 = 0.0
        min_n = math.inf
        for c, w in cells:
            cell_deriv[c] = cell_deriv.get(c, 0.0) + outer * w
            fd = fam_cell_deriv[t.family]
            fd[c] = fd.get(c, 0.0) + outer * w
            se2 += w * w * var[c]
            min_n = min(min_n, counts[c])
        term_reports.append(TermEstimate(
            t.correlator.label, t.family, est, float(math.sqrt(se2)), int(min_n)))

    def delta_se(derivs: dict[int, float]) -> float:
        return math.sqrt(functools.reduce(operator.add, (
            float(d * d * var[c]) for c, d in derivs.items() if d != 0.0), 0.0))

    families = {f: (float(fam_value[f]), delta_se(fam_cell_deriv[f]))
                for f in expr.families()}
    return EstimateReport(float(value), delta_se(cell_deriv), batch.n_rounds,
                          tuple(term_reports), families, empty)


def csv_reference(batch, target) -> None:
    writer = csv.writer(target)
    writer.writerow(["round", "party", "input", "outcome"])
    for i in range(batch.n_rounds):
        for p in batch.parties:
            writer.writerow([i, p, batch.vocab[p][batch.input_idx[p][i]],
                             int(batch.outcomes[p][i])])


Spec = tuple[tuple[str, float], ...]  # per-qubit observable as letter/coeff sum


def _source_distribution(group: StabilizerGroup, qubits: Sequence[int],
                         specs: Sequence[Spec]) -> np.ndarray:
    """Exact outcome distribution for one source; bit b=1 means outcome -1."""
    k = len(qubits)
    m = np.zeros(1 << k)
    m[0] = 1.0
    for t in range(1, 1 << k):
        members = [i for i in range(k) if (t >> i) & 1]
        total = 0.0
        for choice in itertools.product(*(specs[i] for i in members)):
            coeff = 1.0
            letters = {}
            for i, (letter, c) in zip(members, choice):
                coeff *= c
                letters[qubits[i]] = letter
            if coeff == 0.0:
                continue
            total += coeff * states.expectation(group, pauli.word(letters, group.n_qubits))
        m[t] = total
    p = np.zeros(1 << k)
    for s in range(1 << k):
        acc = 0.0
        for t in range(1 << k):
            acc += m[t] * (1.0 if bin(s & t).count("1") % 2 == 0 else -1.0)
        p[s] = acc / (1 << k)
    if p.min() < -1e-9:
        raise AssertionError(f"negative probability {p.min()} in source sampling")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return p


def setting_tables(settings: Sequence[Sequence[Spec]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's (letters, coefs) tables, (settings, qubits, 3), of
    per-qubit specs: entry 0 is (I, 1.0), then the spec's pairs, then
    (I, 0.0) to fill three entries."""
    rows = [[[("I", 1.0), *spec, ("I", 0.0)][:3] for spec in specs]
            for specs in settings]
    letters = [[[pauli.LETTER_CODE[letter] for letter, _ in entries]
                for entries in row] for row in rows]
    coefs = [[[c for _, c in entries] for entries in row] for row in rows]
    return np.array(letters, dtype=np.int8), np.array(coefs, dtype=float)


def product_components_reference(topology, state) -> list:
    """The state's (weight, group) parts, once every stabilizer generator
    stays within one source's qubits: the per-generator check that the
    sampler's check on the state's qubit blocks replaces."""
    if isinstance(state, StabilizerGroup):
        components = [(1.0, state)]
    elif isinstance(state, StabilizerMixture):
        components = [(float(w), g) for w, g in state.components]
    else:
        raise ValueError("simulation needs a stabilizer state or mixture")
    masks = [sum(1 << q for q in src.qubits) for src in topology.sources]
    for _, group in components:
        for g in group.generators:
            support = g.x_mask | g.z_mask
            if support and not any(support & m == support for m in masks):
                raise ValueError(f"non-product state: generator {g} spans several sources")
    return components


def simulate_rounds_reference(expr, state, n_rounds, seed, angles=None) -> RoundBatch:
    if n_rounds <= 0:
        raise ValueError("need a positive number of rounds")
    resolved = resolve_angles(expr, angles)
    topo = expr.topology
    components = product_components_reference(topo, state)
    index = expr.input_index
    parties = index.parties
    families = expr.families()
    n_fam = len(families)

    # term_of[f, l]: the l-th term of family f
    fam_terms = [[t for t, term in enumerate(expr.terms) if term.family == f]
                 for f in families]
    fam_counts = np.array([len(ts) for ts in fam_terms])
    term_of = np.zeros((n_fam, int(fam_counts.max())), dtype=np.intp)
    for fi, ts in enumerate(fam_terms):
        term_of[fi, :len(ts)] = ts

    # observable spec registry: letter/coefficient sums per qubit setting
    specs = []
    spec_ids = {}

    def spec_id(spec) -> int:
        if spec not in spec_ids:
            spec_ids[spec] = len(specs)
            specs.append(spec)
        return spec_ids[spec]

    # spec_of[q][t, x]: the setting of qubit q in term t for its party's bit x
    spec_of = {}
    observables = {f: observables_for(expr, f) for f in families}
    for p in parties:
        qubits = topo.party(p).qubits
        tables = [np.zeros((len(expr.terms), 2), dtype=np.int64) for _ in qubits]
        for fi, f in enumerate(families):
            obs = observables[f][p]
            if isinstance(obs, SingleQubitObservable):
                theta = resolved[(p, obs.plane)]
                for x, sign in ((0, 1.0), (1, -1.0)):
                    tables[0][fam_terms[fi], x] = spec_id((
                        ("Z", math.cos(theta)),
                        (obs.plane[1], sign * math.sin(theta))))
                continue
            for t in fam_terms[fi]:
                raw = expr.terms[t].correlator.joint_map[p]
                for table, letter in zip(tables, obs.letters_for(raw)):
                    table[t] = spec_id(((letter, 1.0),))
        spec_of.update(zip(qubits, tables))
    spec_type = small_int(len(specs))

    rng = np.random.Generator(np.random.Philox(key=seed))
    fam = rng.integers(0, n_fam, size=n_rounds)
    label = np.floor(rng.random(n_rounds) * fam_counts[fam]).astype(np.int64)
    term = term_of[fam, label]
    del fam, label
    singles = index.single.any(axis=0)
    xbits = {p: rng.integers(0, 2, size=n_rounds).astype(np.int8)
             for p, single in zip(parties, singles) if single}
    if len(components) > 1:
        comp = np.searchsorted(np.cumsum([w for w, _ in components]),
                               rng.random(n_rounds), side="right")
        comp = np.minimum(comp, len(components) - 1).astype(small_int(len(components)))
    else:
        comp = np.zeros(n_rounds, dtype=np.int8)

    input_idx = {}
    qubit_spec = {}
    for j, p in enumerate(parties):
        x = xbits.get(p, 0)
        input_idx[p] = index.inputs[:, j, :][term, x]
        for q in topo.party(p).qubits:
            qubit_spec[q] = spec_of[q].astype(spec_type)[term, x]
    del term, xbits

    # per source: compact the (component, spec...) groups one qubit at a
    # time, then draw every round from its group's row of one CDF table
    qubit_sign = {}
    width = len(specs)
    for src in topo.sources:
        qs = list(src.qubits)
        group = comp
        keys = [(c,) for c in range(len(components))]
        for q in qs:
            codes, group = np.unique(group.astype(np.int64) * width + qubit_spec[q],
                                     return_inverse=True)
            keys = [keys[c // width] + (c % width,) for c in codes.tolist()]
        cdf = np.array([np.cumsum(_source_distribution(
            components[key[0]][1], qs, [specs[i] for i in key[1:]]))
            for key in keys])
        target = rng.random(n_rounds) * cdf[group, -1]
        outcome = np.zeros(n_rounds, dtype=small_int(1 << len(qs)))
        for column in cdf.T:  # count the CDF entries <= target
            outcome += column[group] <= target
        np.minimum(outcome, (1 << len(qs)) - 1, out=outcome)
        for pos, q in enumerate(qs):
            qubit_sign[q] = (1 - 2 * ((outcome >> pos) & 1)).astype(np.int8)

    outcomes = {}
    for p in parties:
        sign = np.ones(n_rounds, dtype=np.int8)
        for q in topo.party(p).qubits:
            if q in qubit_sign:
                sign *= qubit_sign[q]
        outcomes[p] = sign
    return RoundBatch(parties, dict(zip(parties, index.vocab)), input_idx,
                      outcomes, seed)


def group_table_reference(spec_of, n_comp, src, owners):
    bits = np.arange(1 << len(owners))
    columns = [np.arange(n_comp)[:, None, None]]
    for q, p in zip(src.qubits, src.recipients):
        x = (bits >> owners.index(p)) & 1 if p in owners else np.zeros_like(bits)
        columns.append(spec_of[q][:, x][None])
    settings = np.stack(np.broadcast_arrays(*columns), axis=-1)
    keys, group_of = np.unique(settings.reshape(-1, len(columns)), axis=0,
                               return_inverse=True)
    return keys, group_of.reshape(-1).astype(np.intp)
