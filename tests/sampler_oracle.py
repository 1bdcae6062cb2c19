"""Reference loops for the sampler's estimate and round log.

These are the straightforward per-cell and per-row loops that
``sampler.estimate`` and ``RoundBatch.to_csv`` replace: a dense array over
every input cell, one ``input_label`` lookup per (term, profile), dict
accumulation of the delta-method weights, and one ``csv.writer`` row per
(round, party).  The vectorised code must agree with them bit for bit.

Two rules differ from the first version of that loop, and the package
follows both: a term's single parties take their profile bits and their
exponents in the same (topology) party order, and a cell whose derivatives
cancel to exactly 0 adds nothing to a standard error (the first version
multiplied 0 by the infinite variance of an empty cell and got NaN).
"""

import csv
import itertools
import math

import numpy as np

from netbell.sampler import EstimateReport, TermEstimate


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
        return math.sqrt(sum(float(d * d * var[c])
                             for c, d in derivs.items() if d != 0.0))

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
