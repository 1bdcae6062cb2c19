"""Measurement-round simulation and estimation for inequality scenarios.

Each round draws a family, a correlator label (fixing every joint party's
input), and uniform input bits for the single-qubit parties.  Outcomes are
sampled exactly: the state must factor across the network's sources, so for
every source the joint +-1 outcome distribution of its qubits is

    p(s) = 2^(-k) * (1 + sum_{T != {}} m_T * prod_{q in T} s_q)

with m_T the expectation of the product of the chosen per-qubit observables
over T, expanded into Pauli words and evaluated on the stabilizer backend.
No dense state vectors are built, so register size is not the limit.  Rounds
that share a source's (mixture component, qubit settings) form a group; the
groups are numbered through small lookup tables, one qubit at a time, without
sorting the rounds, and every round then reads its outcome off its group's
row of one CDF table.

Estimation inverts the correlator definition: cells are the distinct input
profiles, and

    I_label = normalization * sum_x (-1)^(x . e) mean_cell(x)

It touches only the sum_t 2^(s_t) cells the terms use, found through the
expression's cached input index, never the product of all vocabulary sizes.
Several correlators may reuse a cell (fanned-out scenarios do); standard
errors therefore aggregate the per-cell weight across terms, applying the
delta method when the expression raises correlators to a power r != 1.  An
empty cell makes the affected standard error infinite rather than silently
dropping the term; a cell whose weights cancel to zero affects nothing.
Every sum runs in the order of the per-cell loop it replaces, so reports
are reproducible bit for bit, and the CSV round log is byte for byte what
``csv.writer`` gives row by row.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import pauli, states
from .network import NetworkTopology
from .scenario import (AngleMap, InequalityExpr, SingleQubitObservable,
                       resolve_angles, small_int)
from .states import StabilizerGroup, StabilizerMixture, State


def _components(state: State) -> list[tuple[float, StabilizerGroup]]:
    if isinstance(state, StabilizerGroup):
        return [(1.0, state)]
    if isinstance(state, StabilizerMixture):
        return [(float(w), g) for w, g in state.components]
    raise ValueError(
        "simulation needs a stabilizer state or mixture; dense vectors are "
        "not supported")


def _validate_product(topology: NetworkTopology,
                      components: Sequence[tuple[float, StabilizerGroup]]) -> None:
    """Every stabilizer generator must stay within one source's qubits."""
    source_masks = []
    for src in topology.sources:
        mask = 0
        for q in src.qubits:
            mask |= 1 << q
        source_masks.append(mask)
    for _, group in components:
        for g in group.generators:
            support = g.x_mask | g.z_mask
            if support == 0:
                continue
            if not any(support & m == support for m in source_masks):
                raise ValueError(
                    f"non-product state: generator {g} spans several sources")


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


@dataclass(frozen=True)
class RoundRecord:
    index: int
    inputs: dict[str, str]
    outcomes: dict[str, int]


class RoundBatch:
    """Column-oriented simulated rounds with lazy per-round views."""

    def __init__(self, parties: tuple[str, ...],
                 vocab: dict[str, tuple[str, ...]],
                 input_idx: dict[str, np.ndarray],
                 outcomes: dict[str, np.ndarray],
                 seed: int):
        self.parties = parties
        self.vocab = vocab
        self.input_idx = input_idx
        self.outcomes = outcomes
        self.seed = seed
        self.n_rounds = len(next(iter(input_idx.values()))) if parties else 0

    def __len__(self) -> int:
        return self.n_rounds

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RoundBatch(
                self.parties, self.vocab,
                {p: a[i] for p, a in self.input_idx.items()},
                {p: a[i] for p, a in self.outcomes.items()}, self.seed)
        if i < 0:
            i += self.n_rounds
        if not 0 <= i < self.n_rounds:
            raise IndexError(i)
        return RoundRecord(
            i,
            {p: self.vocab[p][self.input_idx[p][i]] for p in self.parties},
            {p: int(self.outcomes[p][i]) for p in self.parties})

    def __iter__(self) -> Iterator[RoundRecord]:
        for i in range(self.n_rounds):
            yield self[i]

    def to_csv(self, target) -> None:
        """Write long-format rows: round,party,input,outcome."""
        if isinstance(target, (str, bytes, os.PathLike)):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        csv.writer(target).writerow(["round", "party", "input", "outcome"])
        # per party, csv.writer's text for the rest of each (input, outcome) row
        tails = [np.array(["," + _csv_row([p, inp, out])
                           for inp in self.vocab[p] for out in (1, -1)],
                          dtype=object) for p in self.parties]
        for lo in range(0, self.n_rounds, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, self.n_rounds)
            numbers = [str(i) for i in range(lo, hi)]
            columns = []
            for p, tail in zip(self.parties, tails):
                row = (2 * self.input_idx[p][lo:hi].astype(np.intp)
                       + (self.outcomes[p][lo:hi] < 0))
                columns += [numbers, tail[row].tolist()]
            target.write("".join(itertools.chain.from_iterable(zip(*columns))))


_CSV_CHUNK = 8192


def _csv_row(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def _renumber(code: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct codes (all below ``bound``) in increasing order.

    Returns each element's number and the code each number stands for.  No
    sort: the lookup table has ``bound`` entries, not one per element.
    """
    seen = np.zeros(bound, dtype=bool)
    seen[code] = True
    codes = np.flatnonzero(seen)
    return (np.cumsum(seen) - 1).astype(small_int(len(codes)))[code], codes


def simulate_rounds(expr: InequalityExpr, state: State, n_rounds: int,
                    seed: int, angles: AngleMap | None = None) -> RoundBatch:
    """Simulate rounds; identical arguments give identical batches."""
    if n_rounds <= 0:
        raise ValueError("need a positive number of rounds")
    resolved = resolve_angles(expr, angles)
    topo = expr.topology
    components = _components(state)
    _validate_product(topo, components)
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
    specs: list[Spec] = []
    spec_ids: dict[Spec, int] = {}

    def spec_id(spec: Spec) -> int:
        if spec not in spec_ids:
            spec_ids[spec] = len(specs)
            specs.append(spec)
        return spec_ids[spec]

    # spec_of[q][t, x]: the setting of qubit q in term t for its party's bit x
    spec_of = {}
    for p in parties:
        qubits = topo.party(p).qubits
        tables = [np.zeros((len(expr.terms), 2), dtype=np.int64) for _ in qubits]
        for fi, f in enumerate(families):
            obs = expr.observables_for(f)[p]
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
            bound = len(keys) * width
            group, codes = _renumber(
                group.astype(small_int(bound)) * width + qubit_spec[q], bound)
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


# -- estimation ---------------------------------------------------------------


@dataclass(frozen=True)
class TermEstimate:
    label: str
    family: str
    estimate: float
    se: float
    min_cell_rounds: int


@dataclass(frozen=True)
class EstimateReport:
    value: float
    se: float
    n_rounds: int
    terms: tuple[TermEstimate, ...]
    families: dict[str, tuple[float, float]]  # family -> (value, se)
    empty_cells: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "se": self.se,
            "n_rounds": self.n_rounds,
            "terms": [
                {"label": t.label, "family": t.family, "estimate": t.estimate,
                 "se": t.se, "min_cell_rounds": t.min_cell_rounds}
                for t in self.terms],
            "families": {f: {"value": v, "se": s}
                         for f, (v, s) in self.families.items()},
            "empty_cells": self.empty_cells,
        }


_DIRECT_CELLS = 1 << 16


def _delta_se(slot: np.ndarray, deriv: np.ndarray, var: np.ndarray) -> float:
    """sqrt(sum over cells of d^2 var), d the cell's summed derivative.

    Cells are added one after another in order of first appearance in
    ``slot``.  A cell whose derivatives cancel to 0 (or the padding slot)
    adds nothing, even when it is empty.
    """
    d = np.bincount(slot.ravel(), weights=deriv.ravel(), minlength=len(var))
    cells, first = np.unique(slot, return_index=True)
    order = cells[np.argsort(first)]
    order = order[d[order] != 0.0]
    return math.sqrt(sum((d[order] * d[order] * var[order]).tolist()))


def estimate(expr: InequalityExpr, batch: RoundBatch) -> EstimateReport:
    """Reconstruct correlators and the expression value from rounds."""
    index = expr.input_index
    if batch.parties != index.parties:
        raise ValueError("round batch does not match the scenario's parties")
    if any(tuple(batch.vocab[p]) != v for p, v in zip(index.parties, index.vocab)):
        raise ValueError("round batch inputs do not match the scenario's")
    # one code per input profile, for the rounds and the terms' cells alike;
    # a code range wider than _DIRECT_CELLS is renumbered to the profiles
    # present before it grows further
    cell_inputs, signs = index.cells
    n = batch.n_rounds
    sizes = [len(v) for v in index.vocab]
    code = np.zeros(n + signs.size, dtype=np.int8)
    n_cells = 1
    prod = np.ones(n, dtype=np.float64)
    for j in sorted(range(len(sizes)), key=lambda j: -sizes[j]):
        p = index.parties[j]
        idx = batch.input_idx[p]
        if idx.size and (idx.min() < 0 or idx.max() >= sizes[j]):
            raise ValueError(f"input index out of range for {p}")
        if n_cells * sizes[j] > _DIRECT_CELLS:
            code, present = _renumber(code, n_cells)
            n_cells = len(present)
        code = (code.astype(small_int(n_cells * sizes[j])) * sizes[j]
                + np.concatenate([idx, cell_inputs[j].ravel()]))
        n_cells *= sizes[j]
        prod *= batch.outcomes[p]
    slot = np.where(signs != 0, code[n:].reshape(signs.shape), n_cells)
    counts = np.bincount(code[:n], minlength=n_cells).astype(np.float64)
    sums = np.bincount(code[:n], weights=prod, minlength=n_cells)
    mean = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    var = np.where(counts > 0, (1.0 - mean ** 2) / np.maximum(counts, 1.0),
                   np.inf)
    # the padding slot: no weight, no variance, never the smallest count
    counts, mean, var = (np.append(a, pad) for a, pad in
                         ((counts, np.inf), (mean, 0.0), (var, 0.0)))

    norms = np.array([float(t.correlator.normalization) for t in expr.terms])
    weights = norms[:, None] * signs
    est = np.zeros(len(expr.terms))
    se2 = np.zeros(len(expr.terms))
    for c in range(signs.shape[1]):  # profile by profile, as the sums run
        w, cell = weights[:, c], slot[:, c]
        est = est + w * mean[cell]
        se2 = se2 + w * w * var[cell]
    cell_counts = counts[slot]
    min_n = cell_counts.min(axis=1)
    empty = int(np.count_nonzero(cell_counts == 0))

    # delta-method error propagation with per-cell weight aggregation
    value = 0.0
    fam_value = {f: 0.0 for f in expr.families()}
    outer = np.zeros(len(expr.terms))
    term_reports = []
    for i, t in enumerate(expr.terms):
        e = float(est[i])
        value += t.coefficient * expr.power(e)
        fam_value[t.family] += t.coefficient * expr.power(e)
        outer[i] = t.coefficient * expr.power_slope(e)
        term_reports.append(TermEstimate(
            t.correlator.label, t.family, e, float(math.sqrt(se2[i])),
            int(min_n[i])))
    deriv = outer[:, None] * weights
    se = _delta_se(slot, deriv, var)
    families = {}
    for f in expr.families():
        rows = [i for i, t in enumerate(expr.terms) if t.family == f]
        families[f] = (float(fam_value[f]), _delta_se(slot[rows], deriv[rows], var))
    return EstimateReport(float(value), se, batch.n_rounds, tuple(term_reports),
                          families, empty)
