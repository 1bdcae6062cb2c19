"""Measurement-round simulation and estimation for inequality scenarios.

Each round draws a family, a correlator label (fixing every joint party's
input), and uniform input bits for the single-qubit parties.  Outcomes are
sampled exactly: the state must factor across the network's sources, so for
every source the joint +-1 outcome distribution of its qubits is

    p(s) = 2^(-k) * (1 + sum_{T != {}} m_T * prod_{q in T} s_q)

with m_T the expectation of the product of the chosen per-qubit observables
over T, expanded into Pauli words and evaluated on the stabilizer backend.
No dense state vectors are built, so register size is not the limit.  Rounds
that share a source's (mixture component, qubit settings) form a group.  A
source's settings depend only on the component, the term and the x bits of
the a single parties among its recipients, so one group table per source,
n_components * n_terms * 2^a entries built once per call, maps that key to
its group.  A group's distribution is worked out only when a drawn round
reaches it, and the reached groups of one source and component share one
``states.word_expectations`` call for all their Pauli words.  Nothing sorts
the rounds.  A round's outcome is the number of its group's CDF entries, all
but the last (the total T > 0), that are <= fl(u * T), u its uniform.  Each
reached group has a table of 2^b buckets: ``Generator.random`` gives
u = m 2^-53, so bucket j = floor(u 2^b) holds u from j 2^-b to
(j + 1) 2^-b - 2^-53.  Rounding is monotone, so fl(u * T), and the outcome
with it, never falls as u rises: where the outcomes at a bucket's two ends
agree, every u in the bucket gives that outcome, and its cell holds it.  A
round then reads the search's outcome, bit for bit, with one intp gather of
cell group << b | j.  The outcome rises at most 2^k - 1 times, so at most
that many buckets of a group have ends that differ; their rounds search.
b grows with the rounds per reached group, up to 2^10 buckets and never
more cells than rounds; b = 0 is the search alone.

Every draw (the family, the label, each single party's x bits, the mixture
component, each source's uniform) is taken ``_BLOCK`` rounds at a time, one
draw after another in that order.  Philox fills a draw in sequence, so the
batch does not depend on the block length.  Every intp and float buffer
holds one block; the columns as long as the run are narrow: the term (with
the component folded in), the inputs and the parities, where a single
party's x bits wait until its source's pass has read them.  So simulate
needs the batch, the term column and a few MB: star combined K=3 at 1e6
rounds peaks near 11 MiB for its 8 MB batch.

Estimation inverts the correlator definition: cells are the distinct input
profiles, and

    I_label = normalization * sum_x (-1)^(x . e) mean_cell(x)

It counts the rounds ``_BLOCK`` at a time by (profile, outcome sign) under a
narrow code per round; every later array runs over the reached profiles, each
joined to the terms whose x = 0 inputs it gives with every single's input set
back to x = 0, never a table of every term's 2^s cells.  Several correlators
may reuse a cell (fanned-out scenarios do); standard errors therefore add the
per-cell weight across terms, applying the delta method when the expression
raises correlators to a power r != 1.  An empty cell makes the affected
standard error infinite rather than silently dropping the term; a cell whose
weights cancel to zero affects nothing.  Every sum runs in the order of the
per-cell loop it replaces, so reports are reproducible bit for bit, and the
CSV round log is byte for byte what ``csv.writer`` gives row by row.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pauli, states
from .network import NetworkTopology, SourceSpec
from .scenario import (AngleMap, InequalityExpr, SingleQubitObservable,
                       fold_rows, ordered_sum, resolve_angles, small_int,
                       unique_rows)
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


def _source_distributions(group: StabilizerGroup, qubits: Sequence[int],
                          settings: Sequence[Sequence[Spec]]) -> np.ndarray:
    """Exact outcome distributions of one source, one row per qubit setting.

    Column bit b = 1 means outcome -1 on ``qubits[b]``.  The words of every
    setting's expansion go to one ``states.word_expectations`` call.
    """
    k = len(qubits)
    # every word of the expansion: setting r, subset t of the qubits, a letter each
    terms, words = [], []
    for r, specs in enumerate(settings):
        for t in range(1, 1 << k):
            members = [i for i in range(k) if (t >> i) & 1]
            for choice in itertools.product(*(specs[i] for i in members)):
                coeff = 1.0
                letters = [0] * k
                for i, (letter, c) in zip(members, choice):
                    coeff *= c
                    letters[i] = pauli.LETTER_CODE[letter]
                if coeff != 0.0:
                    terms.append((r, t, coeff))
                    words.append(letters)
    expectations = states.word_expectations(
        group, np.array(words, dtype=np.int8).reshape(-1, k), qubits)
    m = [[1.0] + [0.0] * ((1 << k) - 1) for _ in settings]
    for (r, t, coeff), e in zip(terms, expectations.tolist()):
        m[r][t] += coeff * e
    # p(s) = 2^(-k) sum_t (-1)^|s & t| m_t, added in t order
    s_and_t = np.arange(1 << k)[:, None] & np.arange(1 << k)
    parity = np.zeros_like(s_and_t)
    for bit in range(k):
        parity ^= (s_and_t >> bit) & 1
    signs = np.where(parity == 1, -1.0, 1.0)
    p = np.cumsum(signs * np.array(m)[:, None, :], axis=2)[:, :, -1] / (1 << k)
    if p.min() < -1e-9:
        raise AssertionError(f"negative probability {p.min()} in source sampling")
    p = np.clip(p, 0.0, None)
    for row in p:
        row /= row.sum()
    return p


class RoundBatch:
    """Simulated rounds, column by column: per party, each round's input
    position in ``vocab[party]`` and its +-1 outcome."""

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


def _group_table(spec_of: dict[int, np.ndarray], n_comp: int, src: SourceSpec,
                 owners: list[str]) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """One source's distinct (component, qubit setting...) rows, and the row
    of every key (comp * n_terms + term) * 2^a + bits.

    Bit i of ``bits`` is the x of ``owners[i]``, the a parties with x bits
    among the source's recipients; the other qubits read column 0 of their
    ``spec_of`` table.  The rows are the groups that share one outcome
    distribution.
    """
    bits = np.arange(1 << len(owners))
    columns = [np.arange(n_comp)[:, None, None]]
    for q, p in zip(src.qubits, src.recipients):
        x = (bits >> owners.index(p)) & 1 if p in owners else np.zeros_like(bits)
        columns.append(spec_of[q][:, x][None])
    settings = np.stack(np.broadcast_arrays(*columns), axis=-1)
    keys, group_of = unique_rows(settings.reshape(-1, len(columns)),
                                 return_inverse=True)
    return [tuple(k) for k in keys.tolist()], group_of


def _bucket_table(cdf: np.ndarray, b: int) -> np.ndarray:
    """Per CDF row and bucket of 2^b, row-major, the count of the row's
    entries but the last that are <= u * total at both ends of the bucket
    when they agree, else -1 (int16)."""
    ends = np.arange(1 << b) * 2.0 ** -b
    ends = np.stack([ends, ends + (2.0 ** -b - 2.0 ** -53)])  # both exact
    target = ends * cdf[:, -1, None, None]  # (row, end, bucket)
    count = np.zeros(target.shape, dtype=np.int16)
    for column in cdf.T[:-1]:
        count += column[:, None, None] <= target
    return np.where(count[:, 0] == count[:, 1], count[:, 0], -1).ravel()


def _source_keys(term: np.ndarray, bits: Sequence[np.ndarray],
                 out: np.ndarray) -> np.ndarray:
    """``out`` = (term << a) | x, bit i of x from ``bits[i]``, the x column
    of the source's i-th owner: one owner bit shifted in at a time."""
    np.left_shift(term, min(len(bits), 1), out=out, dtype=np.intp)
    for i, x in enumerate(reversed(bits)):
        if i:
            out <<= 1
        out |= x
    return out


_BLOCK = 1 << 16  # rounds per draw: the length of every intp and float buffer


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
    n_fam, n_comp, n_terms = len(families), len(components), len(expr.terms)

    # fam_rows[f][l]: the l-th term of family f
    fam_rows = [np.flatnonzero(index.family == f) for f in range(n_fam)]
    fam_counts = [len(rows) for rows in fam_rows]

    # spec_of[q][t, x]: the setting id of qubit q in term t for its party's
    # bit x.  Ids number the distinct letter/coefficient sums: a lone letter's
    # id is its LETTER_CODE, so a qubit starts from its term's letters, and a
    # single party's rows then take its cos/sin sums' ids, in first use.
    codes = sorted(pauli.LETTER_CODE.items(), key=lambda item: item[1])
    spec_ids: dict[Spec, int] = {((letter, 1.0),): code for letter, code in codes}
    spec_of = {}
    for p in parties:
        qubits = topo.party(p).qubits
        tables = [np.repeat(index.letters[:, [q]], 2, axis=1).astype(np.int64)
                  for q in qubits]
        for f, rows in enumerate(fam_rows):
            obs = expr.observables_for(families[f])[p]
            if isinstance(obs, SingleQubitObservable):
                theta = resolved[(p, obs.plane)]
                for x, sign in ((0, 1.0), (1, -1.0)):
                    tables[0][rows, x] = spec_ids.setdefault((
                        ("Z", math.cos(theta)),
                        (obs.plane[1], sign * math.sin(theta))), len(spec_ids))
        spec_of.update(zip(qubits, tables))
    specs = list(spec_ids)

    # every draw is taken a block of rounds at a time (see the module
    # docstring); take reads intp indices fastest, so three intp block
    # buffers feed it
    blocks = [slice(lo, min(lo + _BLOCK, n_rounds))
              for lo in range(0, n_rounds, _BLOCK)]
    size = blocks[0].stop
    t, key, slot = (np.empty(size, dtype=np.intp) for _ in range(3))
    u = np.empty(size)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # the family, then the term, then comp * n_terms + term
    term = np.empty(n_rounds, dtype=small_int(n_comp * n_terms))
    if n_fam > 1:  # else it draws zeros, taking nothing from the stream
        for s in blocks:
            term[s] = rng.integers(0, n_fam, size=s.stop - s.start)
    uniform = len(set(fam_counts)) == 1
    counts = np.array(fam_counts, dtype=float)
    starts = np.array([0] + fam_counts[:-1], dtype=np.intp).cumsum()
    order = np.concatenate(fam_rows)
    for s in blocks:
        m = s.stop - s.start
        label, fam, v = t[:m], key[:m], rng.random(out=u[:m])
        if n_fam > 1:
            np.copyto(fam, term[s])
        v *= fam_counts[0] if uniform else counts.take(fam)
        np.copyto(label, v, casting="unsafe")  # floor, as it is >= 0
        if n_fam > 1:  # else the labels are the terms: family start + label
            label += np.take(starts, fam, out=fam, mode="clip")
            np.take(order, label, out=label, mode="clip")
        term[s] = label
    # a single's x bits wait in its parity column until its source's pass
    parity = {p: np.zeros(n_rounds, dtype=np.int8) for p in parties}
    singles = index.single.any(axis=0)
    xbits = {p: parity[p] for p, single in zip(parties, singles) if single}
    for bits in xbits.values():
        for s in blocks:
            bits[s] = rng.integers(0, 2, size=s.stop - s.start)

    # per source: its owners (the single parties among its recipients) and
    # group table; seen marks the (comp, term, owners' x bits) keys reached
    sources = []
    for src in topo.sources:
        owners = list(dict.fromkeys(p for p in src.recipients if p in xbits))
        keys, group_of = _group_table(spec_of, n_comp, src, owners)
        sources.append((src, owners, keys, group_of,
                        np.zeros(len(group_of), dtype=bool)))
    # the component folds into the term column; input positions are flat
    # (comp, term, x) gathers, 2 * (comp * n_terms + term) + x for a single,
    # which is also the key of the source the single alone owns
    flat = [np.tile(index.inputs[:, j, :].ravel(), n_comp)
            for j in range(len(parties))]
    input_idx = {p: np.empty(n_rounds, dtype=index.inputs.dtype) for p in parties}
    alone = {owners[0]: seen for _, owners, _, _, seen in sources
             if len(owners) == 1}
    weights = np.cumsum([w for w, _ in components])
    for s in blocks:
        m = s.stop - s.start
        np.copyto(t[:m], term[s])
        if n_comp > 1:
            comp = np.searchsorted(weights, rng.random(out=u[:m]), side="right")
            np.minimum(comp, n_comp - 1, out=comp)
            comp *= n_terms
            t[:m] += comp
            term[s] = t[:m]
        np.left_shift(t[:m], 1, out=key[:m])
        for j, p in enumerate(parties):
            at = key[:m]
            if p in xbits:
                at = np.add(at, xbits[p][s], out=slot[:m])
            np.take(flat[j], at, out=input_idx[p][s], mode="clip")
            if p in alone:
                alone[p][at] = True
        for _, owners, _, _, seen in sources:
            if len(owners) != 1:
                seen[_source_keys(t[:m], [xbits[p][s] for p in owners],
                                  slot[:m])] = True

    # per source: one key per round, (comp, term, owners' x bits), read
    # through the source's group table as its reached group's first table
    # cell, plus the bucket of its uniform; the cell holds the outcome
    bucket = np.empty(size, dtype=np.int16)
    for src, owners, keys, group_of, seen in sources:
        qs = list(src.qubits)
        # the reached groups; keys sort by component first
        rows = np.unique(group_of[seen]).tolist()
        cdf = np.concatenate([
            np.cumsum(_source_distributions(components[c][1], qs, [
                [specs[i] for i in keys[row][1:]] for row in group]), axis=1)
            for c, group in itertools.groupby(rows, lambda row: keys[row][0])])
        # 2^b buckets per reached group: at most 2^10, at most one cell a round
        b = min(10, (n_rounds // len(rows)).bit_length() - 1)
        first = np.zeros(len(keys), dtype=np.intp)
        first[rows] = np.arange(len(rows)) << b
        first = first.take(group_of)
        table = _bucket_table(cdf, b)
        for s in blocks:
            m = s.stop - s.start
            cell = _source_keys(term[s], [xbits[p][s] for p in owners], key[:m])
            # in place; "clip" skips the bounds-checked copy (keys are in range)
            np.take(first, cell, out=cell, mode="clip")
            v = rng.random(out=u[:m])
            cell |= np.multiply(v, 1 << b, out=bucket[:m], casting="unsafe")
            outcome = np.take(table, cell, out=bucket[:m], mode="clip")
            split = np.flatnonzero(outcome < 0)  # the search, as at b = 0
            row = cell[split] >> b
            outcome[split] = (cdf[row, :-1] <= (v[split] * cdf[row, -1])[:, None]
                              ).sum(axis=1)
            for pos, p in enumerate(src.recipients):
                bit = outcome >> pos if pos else outcome
                if p in owners:  # its x bits are read: its parity replaces them
                    parity[p][s] = bit
                else:
                    parity[p][s] ^= bit

    for bits in parity.values():  # in place: 1 - 2 * (bits & 1)
        bits &= 1
        bits *= -2
        bits += 1
    return RoundBatch(parties, dict(zip(parties, index.vocab)), input_idx,
                      parity, seed)


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


def _cell_se(cells: np.ndarray, deriv: np.ndarray, var: np.ndarray) -> float:
    """sqrt(sum over cells of d^2 var), d the cell's summed derivative:
    ``deriv[i]`` adds to ``cells[i]`` in order, and the cells add in order of
    first appearance.  A cell whose d is 0 adds nothing, even if var is inf.
    """
    d = np.bincount(cells, weights=deriv, minlength=len(var))
    at = np.arange(len(cells))
    first = np.full(len(var), len(cells))
    np.minimum.at(first, cells, at)
    order = cells[first[cells] == at]
    order = order[d[order] != 0.0]
    return math.sqrt(ordered_sum(d[order] * d[order] * var[order]))


def estimate(expr: InequalityExpr, batch: RoundBatch) -> EstimateReport:
    """Reconstruct correlators and the expression value from rounds."""
    index = expr.input_index
    if batch.parties != index.parties:
        raise ValueError("round batch does not match the scenario's parties")
    if any(tuple(batch.vocab[p]) != v for p, v in zip(index.parties, index.vocab)):
        raise ValueError("round batch inputs do not match the scenario's")
    n_rounds, sizes = batch.n_rounds, [len(v) for v in index.vocab]
    columns = [batch.input_idx[p] for p in index.parties]
    for p, idx, size in zip(index.parties, columns, sizes):
        if len(idx) != n_rounds or len(batch.outcomes[p]) != n_rounds:
            raise ValueError(f"a column for {p} is not {n_rounds} rounds long")
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise ValueError(f"input index out of range for {p}")
    # the input profiles the rounds reach, and per profile, a block of rounds
    # at a time, its rounds with outcome product +1 and -1: their difference
    # is the sum of the +-1.0 products, exactly, whatever order adds them
    code, present, profiles = fold_rows(columns, sizes)
    by_sign = np.zeros(2 * int(present.max(initial=-1)) + 2, dtype=np.int64)
    for lo in range(0, n_rounds, _BLOCK):
        at = 2 * code[lo:lo + _BLOCK].astype(np.intp)
        sign = np.ones(len(at), dtype=np.int8)
        for p in index.parties:
            outcome = batch.outcomes[p][lo:lo + _BLOCK]
            if np.any(np.abs(outcome) != 1):
                raise ValueError(f"outcome outside {{-1, +1}} for {p}")
            sign *= outcome
        at += sign < 0
        np.add.at(by_sign, at, 1)
    plus, minus = by_sign[0::2][present], by_sign[1::2][present]
    counts = (plus + minus).astype(np.float64)
    mean = (plus - minus) / counts
    var = (1.0 - mean ** 2) / counts
    del code, present, by_sign, plus, minus  # from here on, arrays per profile

    # terms with one x = 0 row read the same cells: a profile belongs to the
    # row it gives when each single's input is set back to x = 0 (its key),
    # in the column its singles' x bits spell in party order
    n_terms, n_prof = len(index.family), len(counts)
    rows, row_sizes = [], []  # the terms' x = 0 inputs, then the profiles'
    col = np.zeros(n_prof, dtype=np.int64)
    emask = np.zeros(n_terms, dtype=np.int64)  # the terms' exponent bits
    for j, size in enumerate(sizes):
        x0, x1, single = (index.inputs[:, j, 0], index.inputs[:, j, 1],
                          index.single[:, j])
        zero, bit, kind = np.arange(size), np.zeros(size, int), np.zeros(size, int)
        zero[x1], bit[x1], kind[x0], kind[x1] = x0, single, single, single
        levels, zero = np.unique(zero, return_inverse=True)
        v = profiles[j].astype(np.intp)
        if len(levels) > 1:  # else every row has the same input here
            zero = zero.astype(small_int(len(levels)))  # a narrow row
            rows.append(np.concatenate([zero[x0], zero[v]]))
            row_sizes.append(len(levels))
        col = col << kind[v] | bit[v]
        emask = emask << single | index.exponents[:, j]
    key = (fold_rows(rows, row_sizes)[0] if rows
           else np.zeros(n_terms + n_prof, dtype=np.int8))
    del profiles, rows
    term_key, prof_key = key[:n_terms], key[n_terms:]

    # every (term, reached cell) pair, in (term, column) order: a term's
    # pairs are its key's block of the profiles sorted by (key, column)
    n_single = index.single.sum(axis=1)
    by_cell = np.argsort(np.left_shift(prof_key, int(n_single.max()),
                                       dtype=np.int64) | col)  # keys distinct
    reached = np.bincount(prof_key, minlength=int(key.max()) + 1)
    n_pairs = reached[term_key]
    pair_term = np.repeat(np.arange(n_terms), n_pairs)
    shift = (np.cumsum(reached) - reached)[term_key] - np.cumsum(n_pairs) + n_pairs
    pair_prof = by_cell[np.arange(len(pair_term)) + np.repeat(shift, n_pairs)]

    norms = index.base / (1 << n_single)  # normalization, exactly
    parity = np.bitwise_count(col[pair_prof] & emask[pair_term]) & 1  # x . e
    w = norms[pair_term] * (1.0 - 2.0 * parity)
    # left to right over each term's reached cells; an empty cell's mean is
    # 0, so adding it too would change no bit
    est = np.bincount(pair_term, weights=w * mean[pair_prof], minlength=n_terms)
    se2 = np.bincount(pair_term, weights=w * w * var[pair_prof],
                      minlength=n_terms)
    full = n_pairs == 1 << n_single
    min_n = np.full(n_terms, np.inf)
    np.minimum.at(min_n, pair_term, counts[pair_prof])

    # delta-method error propagation with per-cell weight aggregation; the
    # value and family sums add in term order, as a loop over the terms would
    powered = index.coefficient * expr.power(est)
    outer = index.coefficient * expr.power_slope(est)
    deriv = outer[pair_term] * w

    def se_of(keep: np.ndarray) -> float:
        """The delta-method se of the ``keep`` terms' sum: the reached cells,
        then one cell of variance inf per unreached one whose summed
        derivative d is not 0.  A key one kept term reads has the same |d|
        on every cell; only keys several read need their full sums."""
        sel = keep[pair_term]
        short = keep & ~full
        readers = np.bincount(term_key[keep], minlength=len(reached))[term_key]
        unreached = [(outer * norms)[short & (readers == 1)]]
        for k in np.unique(term_key[short & (readers > 1)]).tolist():
            ts = np.flatnonzero(keep & (term_key == k))
            x = np.arange(1 << int(n_single[ts[0]]))
            d = np.zeros(len(x))
            for t in ts.tolist():
                parity = np.bitwise_count(x & emask[t]) & 1
                d = d + outer[t] * (norms[t] * (1.0 - 2.0 * parity))
            d[col[prof_key == k]] = 0.0  # reached: summed with the pairs
            unreached.append(d)
        extra = np.concatenate(unreached)
        return _cell_se(
            np.concatenate([pair_prof[sel], n_prof + np.arange(len(extra))]),
            np.concatenate([deriv[sel], extra]),
            np.concatenate([var, np.full(len(extra), np.inf)]))

    whole = float(ordered_sum(powered)), se_of(np.ones(n_terms, dtype=bool))
    families = {f: (float(ordered_sum(powered[index.family == i])),
                    se_of(index.family == i)) if len(expr.families()) > 1 else whole
                for i, f in enumerate(expr.families())}  # one family: the whole
    terms = zip(expr.terms, est.tolist(),
                np.where(full, np.sqrt(se2), np.inf).tolist(),
                np.where(full, min_n, 0).astype(int).tolist())
    return EstimateReport(
        *whole, batch.n_rounds,
        tuple(TermEstimate(t.correlator.label, t.family, *rest) for t, *rest in terms),
        families, int((1 << n_single).sum()) - len(pair_term))
