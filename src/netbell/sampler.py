"""Measurement-round simulation and estimation for inequality scenarios.

Each round draws a family, a correlator label (fixing every joint party's
input), and uniform input bits for the single-qubit parties.  Outcomes are
sampled exactly: the state must factor across the network's sources, which
is checked on its qubit blocks (``states.blocks``, each must lie within one
source's qubits), so for every source the joint +-1 outcome distribution of
its qubits is

    p(s) = 2^(-k) * (1 + sum_{T != {}} m_T * prod_{q in T} s_q)

with m_T the expectation of the product of the chosen per-qubit observables
over T.  A qubit's setting is a row of three (letter, coefficient) entries,
the first (I, 1.0), and it measures I + s * (the other two's sum).  m_T
adds, over the patterns of one entry a qubit that leave exactly T past the
identity, the coefficients' product times the expectation of the pattern's
Pauli word on the stabilizer backend.  No dense state vectors are built, so
register size is not the limit.  Rounds that share a source's (mixture
component, qubit settings) form a group.  A source's settings depend only on
the component, the term and the x bits of the a single parties among its
recipients, so one group table per source, n_components * n_terms * 2^a
entries built once per call, maps that key to its group.  Every group of the
table gets its distribution once per call, before the source's outcome
draws, and the groups of one source and component share one
``states.word_expectations`` call for all their Pauli words.  Nothing sorts
the rounds.  A round's outcome is the number of its group's CDF entries, all
but the last (the total T > 0), that are <= fl(u * T), u its uniform.  Each
group has a table of 2^b buckets: ``Generator.random`` gives u = m 2^-53, so
bucket j = floor(u 2^b) holds u from j 2^-b to (j + 1) 2^-b - 2^-53.
Rounding is monotone, so fl(u * T), and the outcome with it, never falls as
u rises: where the outcomes at a bucket's two ends agree, every u in the
bucket gives that outcome, and its cell holds it.  A round then reads the
search's outcome, bit for bit, with one intp gather of cell group << b | j.
The outcome rises at most 2^k - 1 times, so at most that many buckets of a
group have ends that differ; their rounds search.  b grows with the rounds
per group, up to 2^10 buckets and, past b = 0, never more cells than rounds;
b = 0 is the search alone.

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
raises correlators to a power r != 1.  An unreached cell makes the affected
standard error inf rather than silently dropping the term, unless its
weights cancel to zero: a sum's se is inf at the first unreached cell of
nonzero summed weight, and otherwise adds the reached cells alone.  Every
sum runs in the order of the per-cell loop it replaces, so reports are
reproducible bit for bit.

The CSV round log is byte for byte what ``csv.writer`` gives row by row, built
as bytes a block of rounds at a time.  A block's rounds share one digit count
and one ``round // 10^4``, so a round's number is the block's head and a slice
of a fixed "0000".."9999" table.  The rest of a party's row is one of its
2 |vocab| tails, ``csv.writer``'s own text, NUL-padded to one width and taken
at 2 * input + (outcome < 0).  A block fills one record per round, per party
its number and tail, and is written with the NULs dropped.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pauli, states
from .network import NetworkTopology, SourceSpec
from .scenario import (AngleMap, InequalityExpr, fold_rows, ordered_sum,
                       resolve_angles, small_int, unique_rows)
from .states import StabilizerGroup, State


def _product_components(topology: NetworkTopology, state: State
                        ) -> list[tuple[float, StabilizerGroup]]:
    """The state's (weight, group) parts, once every qubit block of the state
    lies within one source's qubits.  The sources partition the register, so
    that holds exactly when every generator does."""
    try:
        parts = states.components(state)
    except TypeError:
        raise ValueError(
            "simulation needs a stabilizer state or mixture; dense vectors are "
            "not supported") from None
    source_masks = [sum(1 << q for q in src.qubits) for src in topology.sources]
    for block in states.blocks(state):
        if not any(block & m == block for m in source_masks):
            qubits = [q for q in range(topology.n_qubits) if (block >> q) & 1]
            raise ValueError(f"non-product state: the stabilizer block on "
                             f"qubits {qubits} spans several sources")
    return [(float(w), g) for w, g in parts]


def _source_distributions(group: StabilizerGroup, qubits: Sequence[int],
                          letters: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Exact outcome distributions of one source, one row per qubit setting.

    ``letters[r, i]`` and ``coefs[r, i]`` are setting r's three (letter,
    coefficient) entries on ``qubits[i]``, entry 0 the identity (I, 1.0):
    the qubit measures I + s * (the other entries' sum).  Column bit b = 1
    means outcome -1 on ``qubits[b]``.
    """
    n, k = letters.shape[:2]
    # every pattern of one entry a qubit but the all-identity one, qubit 0's
    # entry slowest; t is the qubits past their identity entry, as bits
    pattern = np.array(list(itertools.product(range(3), repeat=k))[1:])
    at = np.arange(k)
    t = (pattern != 0) @ (1 << at)
    coeff = np.ones((n, len(pattern)))
    for c in np.moveaxis(coefs[:, at, pattern], 2, 0):  # left to right
        coeff *= c
    expectations = states.word_expectations(
        group, letters[:, at, pattern].reshape(-1, k), qubits)
    m = np.zeros((n, 1 << k))
    m[:, 0] = 1.0
    np.add.at(m, (np.arange(n)[:, None], t), coeff * expectations.reshape(n, -1))
    # p(s) = 2^(-k) sum_t (-1)^|s & t| m_t, added in t order
    s = np.arange(1 << k)
    signs = 1.0 - 2.0 * (np.bitwise_count(s[:, None] & s) & 1)
    p = np.cumsum(signs * m[:, None, :], axis=2)[:, :, -1] / (1 << k)
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
        """Write long-format rows (round,party,input,outcome) to a path or text handle."""
        if isinstance(target, (str, bytes, os.PathLike)):
            import locale  # the encoding of open(target, "w"); csv runs only
            with open(target, "wb") as fh:
                self._write_csv(fh.write, locale.getpreferredencoding(False))
        else:
            self._write_csv(lambda data: target.write(data.decode()), "utf-8")

    def _write_csv(self, write, encoding: str) -> None:
        # per party, csv.writer's text for the rest of a row, at 2 * input +
        # (outcome < 0), NUL-padded to one width
        tails = [[("," + _csv_row([p, inp, out])).encode(encoding)
                  for inp in self.vocab[p] for out in (1, -1)] for p in self.parties]
        if any(b"\0" in tail for table in tails for tail in table):
            raise ValueError("a party or input label holds a NUL character")
        tails = [table.view(f"V{table.itemsize}") for table in map(np.array, tails)]
        write(_csv_row(["round", "party", "input", "outcome"]).encode(encoding))
        digits = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
                  + ord("0")).astype(np.uint8)  # "0000".."9999"
        n = self.n_rounds
        starts = [lo for lo in (0, 10, 100, 1000, *range(10_000, n, 10_000)) if lo < n]
        for lo, hi in zip(starts, starts[1:] + [n]):
            head = str(lo // 10_000).encode() if lo >= 10_000 else b""
            width = 4 if head else len(str(lo))
            text = np.empty((hi - lo, len(head) + width), dtype=np.uint8)
            text[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
            text[:, len(head):] = digits[lo % 10_000:][:hi - lo, 4 - width:]
            text = text.view(f"V{text.shape[1]}")[:, 0]
            # one record a round: per party, the round's text, then its tail
            rec = np.empty(hi - lo, dtype=[
                ("", dtype) for table in tails for dtype in (text.dtype, table.dtype)])
            for j, (p, table) in enumerate(zip(self.parties, tails)):
                row = 2 * self.input_idx[p][lo:hi].astype(np.intp)
                row += self.outcomes[p][lo:hi] < 0
                rec[f"f{2 * j}"], rec[f"f{2 * j + 1}"] = text, table.take(row)
            write(rec.tobytes().replace(b"\0", b""))


def _csv_row(fields) -> str:
    import csv  # as locale in to_csv: only the round log needs them
    import io
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def _group_table(spec_of: dict[int, np.ndarray], n_comp: int, src: SourceSpec,
                 owners: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """One source's distinct (component, qubit setting...) rows, in order,
    and the row of every key (comp * n_terms + term) * 2^a + bits.

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
    return unique_rows(settings.reshape(-1, len(columns)), return_inverse=True)


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


def _random_bits(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with the bits, and leave the Philox state, that
    ``rng.integers(0, 2, size=len(out))`` would: that draw takes the top bit
    of one 32-bit output a bit (Lemire's method never rejects a range of 2),
    and Philox gives a 64-bit word's low half, keeping its high half pending."""
    bitgen = rng.bit_generator
    state = bitgen.state
    n, pending = len(out), state["has_uint32"]
    head = min(pending, n)
    out[:head] = state["uinteger"] >> 31
    words = bitgen.random_raw((n - head + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")  # low, high, low, ...
    out[head:] = halves[:n - head] >> 31
    state = bitgen.state
    state["has_uint32"] = (pending + n) % 2  # the last word's high half when 1
    if len(halves):
        state["uinteger"] = int(halves[-1])
    bitgen.state = state


def simulate_rounds(expr: InequalityExpr, state: State, n_rounds: int,
                    seed: int, angles: AngleMap | None = None) -> RoundBatch:
    """Simulate rounds; identical arguments give identical batches."""
    if n_rounds <= 0:
        raise ValueError("need a positive number of rounds")
    resolved = resolve_angles(expr, angles)
    topo = expr.topology
    components = _product_components(topo, state)
    index = expr.input_index
    parties = index.parties
    families = expr.families()
    n_fam, n_comp, n_terms = len(families), len(components), len(index.family)

    # fam_rows[f][l]: the l-th term of family f
    fam_rows = [np.flatnonzero(index.family == f) for f in range(n_fam)]
    fam_counts = [len(rows) for rows in fam_rows]

    # a setting is one row of (letter, coefficient) entries, entry 0 (I, 1.0):
    # rows 0-3 are the lone letters by LETTER_CODE, and row 4 + 2j + x is
    # cos(theta) Z + (-1)^x sin(theta) P for angle key j = (p, plane), P its
    # plane's second letter.  spec_of[q][t, x]: the row of qubit q in term t
    # for its party's bit x.
    letters = np.zeros((4 + 2 * len(index.keys), 3), dtype=np.int8)
    coefs = np.zeros(letters.shape)
    coefs[:, 0] = coefs[:4, 1] = 1.0
    letters[:4, 1] = range(4)
    spec_of = {q: np.repeat(index.letters[:, [q]], 2, axis=1).astype(np.int64)
               for q in range(topo.n_qubits)}
    for j, (p, plane) in enumerate(index.keys):
        theta = resolved[(p, plane)]
        rows = [4 + 2 * j, 5 + 2 * j]
        letters[rows, 1:] = pauli.LETTER_CODE["Z"], pauli.LETTER_CODE[plane[1]]
        coefs[rows, 1] = math.cos(theta)
        coefs[rows, 2] = math.sin(theta), -math.sin(theta)
        spec_of[topo.party(p).qubits[0]][index.exps[:, j] >= 0] = rows

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
            _random_bits(rng, bits[s])

    # per source: its owners (the single parties among its recipients) and
    # group table of (comp, term, owners' x bits) keys
    sources = []
    for src in topo.sources:
        owners = list(dict.fromkeys(p for p in src.recipients if p in xbits))
        sources.append((src, owners, *_group_table(spec_of, n_comp, src, owners)))
    # the component folds into the term column; input positions are flat
    # (comp, term, x) gathers, 2 * (comp * n_terms + term) + x for a single
    flat = [np.tile(index.inputs[:, j, :].ravel(), n_comp)
            for j in range(len(parties))]
    input_idx = {p: np.empty(n_rounds, dtype=index.inputs.dtype) for p in parties}
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

    # per source: one key per round, (comp, term, owners' x bits), read
    # through the source's group table as its group's first table cell,
    # plus the bucket of its uniform; the cell holds the outcome
    bucket = np.empty(size, dtype=np.int16)
    for src, owners, keys, group_of in sources:
        qs = list(src.qubits)
        # every group's distribution, a component at a time; keys sort by
        # component first
        cdf = np.concatenate([
            np.cumsum(_source_distributions(
                components[part[0, 0]][1], qs, letters[part[:, 1:]],
                coefs[part[:, 1:]]), axis=1)
            for part in np.split(keys, np.flatnonzero(np.diff(keys[:, 0])) + 1)])
        # 2^b buckets a group: at most 2^10, past b = 0 at most a cell a round
        b = max(0, min(10, (n_rounds // len(keys)).bit_length() - 1))
        first = group_of << b  # intp, as np.unique gives
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
    first appearance.
    """
    d = np.bincount(cells, weights=deriv, minlength=len(var))
    at = np.arange(len(cells))
    first = np.full(len(var), len(cells))
    np.minimum.at(first, cells, at)
    order = cells[first[cells] == at]
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
        """The delta-method se of the ``keep`` terms' sum: inf at the first
        unreached cell whose summed derivative d is not 0, else the reached
        cells' sum.  Key by key, among the keys some kept term reads only
        in part, d adds the key's kept terms' weights on each of its cells."""
        for k in np.flatnonzero(np.bincount(term_key[keep & ~full])).tolist():
            ts = np.flatnonzero(keep & (term_key == k))
            x = np.arange(1 << int(n_single[ts[0]]))
            d = np.zeros(len(x))
            for t in ts.tolist():
                parity = np.bitwise_count(x & emask[t]) & 1
                d = d + outer[t] * (norms[t] * (1.0 - 2.0 * parity))
            d[col[prof_key == k]] = 0.0  # reached: summed with the pairs
            if np.any(d != 0.0):
                return math.inf
        sel = keep[pair_term]
        return _cell_se(pair_prof[sel], deriv[sel], var)

    whole = float(ordered_sum(powered)), se_of(np.ones(n_terms, dtype=bool))
    families = {f: (float(ordered_sum(powered[index.family == i])),
                    se_of(index.family == i)) if len(expr.families()) > 1 else whole
                for i, f in enumerate(expr.families())}  # one family: the whole
    terms = zip(index.labels, [index.families[f] for f in index.family.tolist()],
                est.tolist(), np.where(full, np.sqrt(se2), np.inf).tolist(),
                np.where(full, min_n, 0).astype(int).tolist())
    return EstimateReport(
        *whole, batch.n_rounds, tuple(TermEstimate(*t) for t in terms),
        families, int((1 << n_single).sum()) - len(pair_term))
