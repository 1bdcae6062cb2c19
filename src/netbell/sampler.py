"""Measurement-round simulation and estimation for inequality scenarios.

Each round draws a family, a correlator label (fixing every joint party's
input), and uniform input bits for the single-qubit parties.  Outcomes are
sampled exactly: the state must factor across the network's sources, so for
every source the joint +-1 outcome distribution of its qubits is

    p(s) = 2^(-k) * (1 + sum_{T != {}} m_T * prod_{q in T} s_q)

with m_T the expectation of the product of the chosen per-qubit observables
over T, expanded into Pauli words and evaluated on the stabilizer backend.
No dense state vectors are built, so register size is not the limit.

Estimation inverts the correlator definition: cells are the distinct input
profiles, and

    I_label = normalization * sum_x (-1)^(x . e) mean_cell(x)

Several correlators may reuse a cell (fanned-out scenarios do); standard
errors therefore aggregate the per-cell weight across terms, applying the
delta method when the expression raises correlators to a power r != 1.  An
empty cell makes the affected standard error infinite rather than silently
dropping the term.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import pauli, states
from .network import NetworkTopology
from .scenario import (AngleMap, InequalityExpr, JointPauliObservable,
                       SingleQubitObservable, resolve_angles)
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
        if isinstance(target, (str, bytes)):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        writer = csv.writer(target)
        writer.writerow(["round", "party", "input", "outcome"])
        for i in range(self.n_rounds):
            for p in self.parties:
                writer.writerow([
                    i, p, self.vocab[p][self.input_idx[p][i]],
                    int(self.outcomes[p][i])])


def simulate_rounds(expr: InequalityExpr, state: State, n_rounds: int,
                    seed: int, angles: AngleMap | None = None) -> RoundBatch:
    """Simulate rounds; identical arguments give identical batches."""
    if n_rounds <= 0:
        raise ValueError("need a positive number of rounds")
    resolved = resolve_angles(expr, angles)
    topo = expr.topology
    components = _components(state)
    _validate_product(topo, components)
    parties = topo.party_ids()
    families = expr.families()
    n_fam = len(families)

    # per-family label lists and per-party vocabularies
    fam_terms = [expr.terms_for(f) for f in families]
    fam_counts = np.array([len(ts) for ts in fam_terms])
    vocab = {p: expr.party_inputs(p) for p in parties}
    vindex = {p: {inp: i for i, inp in enumerate(vocab[p])} for p in parties}

    # observable spec registry: letter/coefficient sums per qubit setting
    specs: list[Spec] = []
    spec_ids: dict[Spec, int] = {}

    def spec_id(spec: Spec) -> int:
        if spec not in spec_ids:
            spec_ids[spec] = len(specs)
            specs.append(spec)
        return spec_ids[spec]

    # classify by observable type: a joint party may own a single qubit
    base_obs = expr.observables_for(families[0])
    singles = [p for p in parties if isinstance(base_obs[p], SingleQubitObservable)]
    joints = [p for p in parties if isinstance(base_obs[p], JointPauliObservable)]
    max_labels = int(fam_counts.max())

    # input-index and qubit-spec lookup tables
    single_input = {p: np.zeros((n_fam, 2), dtype=np.int64) for p in singles}
    single_spec = {p: np.zeros((n_fam, 2), dtype=np.int64) for p in singles}
    joint_input = {p: np.zeros((n_fam, max_labels), dtype=np.int64) for p in joints}
    joint_spec = {p: {q: np.zeros((n_fam, max_labels), dtype=np.int64)
                      for q in topo.party(p).qubits} for p in joints}
    for fi, f in enumerate(families):
        obs_map = expr.observables_for(f)
        for p in singles:
            obs = obs_map[p]
            assert isinstance(obs, SingleQubitObservable)
            theta = resolved[(p, obs.plane)]
            for x in (0, 1):
                single_input[p][fi, x] = vindex[p][expr.input_label(f, p, str(x))]
                sign = 1.0 if x == 0 else -1.0
                single_spec[p][fi, x] = spec_id((
                    ("Z", math.cos(theta)), (obs.plane[1], sign * math.sin(theta))))
        for p in joints:
            obs = obs_map[p]
            assert isinstance(obs, JointPauliObservable)
            for li, term in enumerate(fam_terms[fi]):
                raw = term.correlator.joint_map[p]
                joint_input[p][fi, li] = vindex[p][expr.input_label(f, p, raw)]
                letters = obs.letters_for(raw)
                for pos, q in enumerate(obs.qubits):
                    joint_spec[p][q][fi, li] = spec_id(((letters[pos], 1.0),))

    rng = np.random.Generator(np.random.Philox(key=seed))
    fam = rng.integers(0, n_fam, size=n_rounds)
    label = np.floor(rng.random(n_rounds) * fam_counts[fam]).astype(np.int64)
    xbits = {p: rng.integers(0, 2, size=n_rounds) for p in singles}
    weights = np.array([w for w, _ in components])
    if len(components) > 1:
        comp = np.searchsorted(np.cumsum(weights), rng.random(n_rounds),
                               side="right")
        comp = np.minimum(comp, len(components) - 1)
    else:
        comp = np.zeros(n_rounds, dtype=np.int64)

    input_idx = {}
    qubit_spec = {}
    for p in singles:
        input_idx[p] = single_input[p][fam, xbits[p]]
        qubit_spec[topo.party(p).qubits[0]] = single_spec[p][fam, xbits[p]]
    for p in joints:
        input_idx[p] = joint_input[p][fam, label]
        for q in topo.party(p).qubits:
            qubit_spec[q] = joint_spec[p][q][fam, label]

    # sample each source over the distinct (component, spec...) codes
    qubit_sign = {q: np.ones(n_rounds, dtype=np.int8) for q in range(topo.n_qubits)}
    n_spec = len(specs)
    for src in topo.sources:
        qs = list(src.qubits)
        code = comp.copy()
        for q in qs:
            code = code * n_spec + qubit_spec[q]
        uniq, inverse = np.unique(code, return_inverse=True)
        u = rng.random(n_rounds)
        for gi in range(len(uniq)):
            mask = inverse == gi
            row = int(np.argmax(mask))
            group = components[int(comp[row])][1]
            spec_list = [specs[int(qubit_spec[q][row])] for q in qs]
            dist = _source_distribution(group, qs, spec_list)
            cdf = np.cumsum(dist)
            idx = np.searchsorted(cdf, u[mask] * cdf[-1], side="right")
            idx = np.minimum(idx, len(dist) - 1)
            for pos, q in enumerate(qs):
                bits = (idx >> pos) & 1
                qubit_sign[q][mask] = 1 - 2 * bits.astype(np.int8)

    outcomes = {}
    for p in parties:
        sign = np.ones(n_rounds, dtype=np.int8)
        for q in topo.party(p).qubits:
            sign *= qubit_sign[q]
        outcomes[p] = sign
    return RoundBatch(tuple(parties), vocab,
                      {p: a.astype(np.int64) for p, a in input_idx.items()},
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


def estimate(expr: InequalityExpr, batch: RoundBatch) -> EstimateReport:
    """Reconstruct correlators and the expression value from rounds."""
    parties = expr.topology.party_ids()
    if batch.parties != tuple(parties):
        raise ValueError("round batch does not match the scenario's parties")
    sizes = [len(batch.vocab[p]) for p in parties]
    strides = np.cumprod([1] + sizes[::-1])[::-1][1:]
    code = np.zeros(batch.n_rounds, dtype=np.int64)
    prod = np.ones(batch.n_rounds, dtype=np.float64)
    for p, stride in zip(parties, strides):
        idx = batch.input_idx[p]
        if idx.max(initial=0) >= len(batch.vocab[p]):
            raise ValueError(f"input index out of range for {p}")
        code += idx * stride
        prod *= batch.outcomes[p]
    n_cells = int(np.prod(sizes))
    counts = np.bincount(code, minlength=n_cells).astype(np.float64)
    sums = np.bincount(code, weights=prod, minlength=n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
        var = np.where(counts > 0, (1.0 - mean ** 2) / np.maximum(counts, 1.0),
                       np.inf)

    def cell_of(term, xprofile) -> int:
        fam = term.family
        cell = 0
        xiter = iter(xprofile)
        for p, stride in zip(parties, strides):
            corr = term.correlator
            if p in corr.exponent_map:
                raw = str(next(xiter))
            else:
                raw = corr.joint_map[p]
            cell += batch.vocab[p].index(expr.input_label(fam, p, raw)) * stride
        return int(cell)

    term_cells = []
    term_values = []
    empty = 0
    for t in expr.terms:
        corr = t.correlator
        exps = [e for _, e in corr.exponents]
        norm = float(corr.normalization)
        cells = []
        est = 0.0
        min_n = math.inf
        for xprofile in itertools.product((0, 1), repeat=len(exps)):
            sign = -1.0 if sum(x * e for x, e in zip(xprofile, exps)) % 2 else 1.0
            c = cell_of(t, xprofile)
            cells.append((c, norm * sign))
            est += norm * sign * mean[c]
            min_n = min(min_n, counts[c])
            if counts[c] == 0:
                empty += 1
        term_cells.append(cells)
        term_values.append(est)

    # delta-method error propagation with per-cell weight aggregation
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

    se = math.sqrt(sum(float(d * d * var[c]) for c, d in cell_deriv.items()))
    families = {}
    for f in expr.families():
        fse = math.sqrt(sum(float(d * d * var[c])
                            for c, d in fam_cell_deriv[f].items()))
        families[f] = (float(fam_value[f]), fse)
    return EstimateReport(float(value), se, batch.n_rounds, tuple(term_reports),
                          families, empty)
