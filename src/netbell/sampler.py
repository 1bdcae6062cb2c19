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

The draws come in stages, in this order in one Philox stream of the seed:
the family (a 32-bit half a round), the label (a 64-bit word a round), each
single party's x bits (a half a round), the mixture component (a word a
round, with several components) and each source's uniform (a word a round).
Every stage takes a known number of words, so each gets its own generator,
positioned once at the stage's first word (``advance(w // 4)``, then
``w % 4`` raw words; ``_stage_streams``).  A half draw takes a pending half
if one waits, else a new word's low half, leaving its high half pending, and
a word draw leaves a pending half waiting: a stage whose offset falls mid-word
starts with that pending half, the one ``_random_bits`` tracks.  A family
count that is not a power of two can reject a 32-bit draw, so then the
families are drawn up front into one narrow column, and the later stages
start where that draw leaves the stream.  No expression has one today.

``simulate_chunks`` runs every stage ``_BLOCK`` rounds at a time: a chunk
goes from its family draws through every source's outcome before the next
one starts, so no stage needs another's column as long as the run.  What
outlives a chunk is per group: the group tables, CDFs and bucket tables, all
built before the first draw, and the chunk buffers, reused.  Philox fills
each stage in sequence, so the chunks do not depend on the block length,
and ``simulate_rounds`` writes them into one batch's columns.  The command
line logs and counts each chunk and drops it, so its memory does not grow
with the rounds: star combined K=3 peaks near 3.6 MiB (tracemalloc) at 1e5
and at 1e6 rounds.

Estimation inverts the correlator definition: cells are the distinct input
profiles, and

    I_label = normalization * sum_x (-1)^(x . e) mean_cell(x)

``ProfileCounts`` counts rounds a batch at a time by (profile, outcome sign)
under a code fixed by the index shapes, so the counts of separate batches
add; only per-profile arrays outlive a batch.  Every later array runs over
the reached profiles, each joined to the terms whose x = 0 inputs it gives
with every single's input set back to x = 0, never a table of every term's
2^s cells.  Several correlators
may reuse a cell (fanned-out scenarios do); standard errors therefore add the
per-cell weight across terms, applying the delta method when the expression
raises correlators to a power r != 1.  An unreached cell makes the affected
standard error inf rather than silently dropping the term, unless its
weights cancel to zero: a sum's se is inf at the first unreached cell of
nonzero summed weight, and otherwise adds the reached cells alone.  Every
sum runs in the order of the per-cell loop it replaces, so reports are
reproducible bit for bit.

The CSV round log (``RoundLog``) is byte for byte what ``csv.writer`` gives
row by row, built as bytes at most ``_LOG_BLOCK`` rounds at a time.  A
block's rounds share one digit count and one ``round // 10^4``, so a round's
number is the block's head and a slice of a fixed "0000".."9999" table.  The
rest of a party's row is one of its 2 |vocab| tails, ``csv.writer``'s own
text, NUL-padded to one width and taken at 2 * input + (outcome < 0).  A
block fills one record per round, per party its number and tail, and is
written with the NULs dropped.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

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
        with RoundLog(target, self.parties, self.vocab) as log:
            log.write(self)


_LOG_BLOCK = 2000  # rounds a write at most; it divides 10^4


class RoundLog:
    """The round log: the header, then long-format rows
    (round,party,input,outcome) of batches, each numbered from its first
    round.  ``target`` is a path, opened as ``open(target, "w")`` would
    encode it, or a text handle."""

    def __init__(self, target, parties: tuple[str, ...],
                 vocab: dict[str, tuple[str, ...]]):
        path = isinstance(target, (str, bytes, os.PathLike))
        if path:
            import locale  # the encoding of open(target, "w"); csv runs only
            encoding = locale.getpreferredencoding(False)
        else:
            encoding = "utf-8"
        # per party, csv.writer's text for the rest of a row, at 2 * input +
        # (outcome < 0), NUL-padded to one width
        tails = [[("," + _csv_row([p, inp, out])).encode(encoding)
                  for inp in vocab[p] for out in (1, -1)] for p in parties]
        if any(b"\0" in tail for table in tails for tail in table):
            raise ValueError("a party or input label holds a NUL character")
        self.parties = parties
        self.tails = [table.view(f"V{table.itemsize}") for table in map(np.array, tails)]
        self.digits = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
                       + ord("0")).astype(np.uint8)  # "0000".."9999"
        self.file = open(target, "wb") if path else None
        self.emit = self.file.write if path else lambda data: target.write(data.decode())
        self.emit(_csv_row(["round", "party", "input", "outcome"]).encode(encoding))

    def __enter__(self) -> RoundLog:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def write(self, batch: RoundBatch, first: int = 0) -> None:
        """The rows of ``batch``, its rounds numbered from ``first``."""
        n = first + batch.n_rounds
        starts = [first] + [lo for lo in (10, 100, 1000, *range(
            _LOG_BLOCK * (first // _LOG_BLOCK + 1), n, _LOG_BLOCK)) if first < lo < n]
        for lo, hi in zip(starts, starts[1:] + [n]):
            head = str(lo // 10_000).encode() if lo >= 10_000 else b""
            width = 4 if head else len(str(lo))
            text = np.empty((hi - lo, len(head) + width), dtype=np.uint8)
            text[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
            text[:, len(head):] = self.digits[lo % 10_000:][:hi - lo, 4 - width:]
            text = text.view(f"V{text.shape[1]}")[:, 0]
            # one record a round: per party, the round's text, then its tail
            rec = np.empty(hi - lo, dtype=[
                ("", dtype) for table in self.tails
                for dtype in (text.dtype, table.dtype)])
            for j, (p, table) in enumerate(zip(self.parties, self.tails)):
                row = 2 * batch.input_idx[p][lo - first:hi - first].astype(np.intp)
                row += batch.outcomes[p][lo - first:hi - first] < 0
                rec[f"f{2 * j}"], rec[f"f{2 * j + 1}"] = text, table.take(row)
            self.emit(rec.tobytes().replace(b"\0", b""))


def _csv_row(fields) -> str:
    import csv  # as locale in RoundLog: only the round log needs them
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


_BLOCK = 1 << 16  # rounds per chunk: the length of every buffer


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


def _positioned(seed: int, word: int, pending: int | None = None
                ) -> np.random.Generator:
    """A generator at word ``word`` of the Philox stream of ``seed``, with
    ``pending`` as its waiting 32-bit half: Philox makes four words a
    counter step, so the counter ``word // 4`` (as ``advance(word // 4)``
    from the start) then ``word % 4`` raw words."""
    bitgen = np.random.Philox(key=seed, counter=word // 4)
    bitgen.random_raw(word % 4)
    if pending is not None:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, pending
        bitgen.state = state
    return np.random.Generator(bitgen)


def _stage_streams(seed: int, stages: Sequence[tuple[bool, int]],
                   rng: np.random.Generator | None = None
                   ) -> list[np.random.Generator]:
    """One generator per draw stage, each where the stage starts in the one
    stream that takes the stages in order, after ``rng``'s draws if given
    (else from word 0).  Stage (half, n) takes n 32-bit halves or n 64-bit
    words.  A half draw takes the pending half if one waits, else a new
    word's low half, leaving its high half pending; a word draw leaves a
    pending half waiting."""
    word, pending = 0, None
    if rng is not None:
        state = rng.bit_generator.state
        word = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
        pending = state["uinteger"] if state["has_uint32"] else None
    out = []
    for half, n in stages:
        out.append(_positioned(seed, word, pending))
        if not half:
            word += n
            continue
        fresh = n - (pending is not None)  # n >= 1
        word += (fresh + 1) // 2
        pending = None
        if fresh % 2:  # the last word's high half
            pending = int(_positioned(seed, word - 1).bit_generator.random_raw()) >> 32
    return out


def simulate_chunks(expr: InequalityExpr, state: State, n_rounds: int,
                    seed: int, angles: AngleMap | None = None,
                    columns: tuple[dict, dict] | None = None
                    ) -> Iterator[tuple[int, RoundBatch]]:
    """The rounds of ``simulate_rounds(expr, state, n_rounds, seed, angles)``,
    ``_BLOCK`` at a time: (first round, a batch of the chunk's rounds).

    Every check and table comes before the call returns, so a refused
    argument raises here, before any draw.  A chunk's arrays are buffers
    that the next chunk overwrites, unless ``columns``, two dicts, is given:
    then they fill with each party's input and outcome columns as long as
    the run, and each chunk's arrays are slices of them.
    """
    if n_rounds <= 0:
        raise ValueError("need a positive number of rounds")
    resolved = resolve_angles(expr, angles)
    topo = expr.topology
    components = _product_components(topo, state)
    index = expr.input_index
    parties = index.parties
    vocab = dict(zip(parties, index.vocab))
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

    # per source: its owners (the single parties among its recipients), its
    # group table of (comp, term, owners' x bits) keys, and per group its
    # CDF and its 2^b buckets, all before the first draw
    singles = [p for p, single in zip(parties, index.single.any(axis=0)) if single]
    sources = []
    for src in topo.sources:
        owners = list(dict.fromkeys(p for p in src.recipients if p in singles))
        keys, group_of = _group_table(spec_of, n_comp, src, owners)
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
        # intp, as np.unique gives
        sources.append((src, owners, group_of << b, b, _bucket_table(cdf, b), cdf))

    # the draw stages in stream order, each True when it draws 32-bit halves
    # and False for 64-bit words: the family (a half a round while the
    # family count is a power of two; else every family up front), the
    # label, each single's x bits, the component, each source's uniform
    up_front = rng = None
    if n_fam & (n_fam - 1):
        rng = np.random.Generator(np.random.Philox(key=seed))
        up_front = np.empty(n_rounds, dtype=small_int(n_fam))
        for lo in range(0, n_rounds, _BLOCK):
            block = up_front[lo:lo + _BLOCK]
            block[:] = rng.integers(0, n_fam, size=len(block))
    stages = {"family": True} if n_fam > 1 and up_front is None else {}
    stages["label"] = False
    stages.update((("x", p), True) for p in singles)
    if n_comp > 1:
        stages["component"] = False
    stages.update((("u", i), False) for i in range(len(sources)))
    streams = dict(zip(stages, _stage_streams(
        seed, [(half, n_rounds) for half in stages.values()], rng)))

    # the component folds into the term; input positions are flat (comp,
    # term, x) gathers, 2 * (comp * n_terms + term) + x for a single
    flat = [np.tile(index.inputs[:, j, :].ravel(), n_comp)
            for j in range(len(parties))]
    uniform = len(set(fam_counts)) == 1
    counts = np.array(fam_counts, dtype=float)
    starts = np.array([0] + fam_counts[:-1], dtype=np.intp).cumsum()
    order = np.concatenate(fam_rows)
    weights = np.cumsum([w for w, _ in components])
    # take reads intp indices fastest, so three intp buffers feed it
    size = min(n_rounds, _BLOCK)
    t, key, slot = (np.empty(size, dtype=np.intp) for _ in range(3))
    u = np.empty(size)
    bucket = np.empty(size, dtype=np.int16)
    xbits = {p: np.empty(size, dtype=np.int8) for p in singles}
    whole = columns is not None
    input_idx, parity_of = columns if whole else ({}, {})
    for p in parties:  # a party's outcome bits add up in its parity column
        input_idx[p] = np.empty(n_rounds if whole else size, dtype=index.inputs.dtype)
        parity_of[p] = np.empty(n_rounds if whole else size, dtype=np.int8)

    def chunks():
        for lo in range(0, n_rounds, _BLOCK):
            m = min(_BLOCK, n_rounds - lo)
            off = lo if whole else 0
            inputs = {p: input_idx[p][off:off + m] for p in parties}
            parity = {p: parity_of[p][off:off + m] for p in parties}
            # the family, then the term: family start + label
            term, fam, v = t[:m], key[:m], streams["label"].random(out=u[:m])
            if n_fam > 1:
                np.copyto(fam, streams["family"].integers(0, n_fam, size=m)
                          if up_front is None else up_front[lo:lo + m])
            v *= fam_counts[0] if uniform else counts.take(fam)
            np.copyto(term, v, casting="unsafe")  # floor, as it is >= 0
            if n_fam > 1:  # else the labels are the terms
                term += np.take(starts, fam, out=fam, mode="clip")
                np.take(order, term, out=term, mode="clip")
            for p in singles:
                _random_bits(streams["x", p], xbits[p][:m])
            if n_comp > 1:  # then comp * n_terms + term
                v = streams["component"].random(out=u[:m])
                comp = np.searchsorted(weights, v, side="right")
                np.minimum(comp, n_comp - 1, out=comp)
                comp *= n_terms
                term += comp
            np.left_shift(term, 1, out=key[:m])
            for j, p in enumerate(parties):
                at = key[:m]
                if p in xbits:
                    at = np.add(at, xbits[p][:m], out=slot[:m])
                else:  # a joint party's parity adds every qubit's bit
                    parity[p][:] = 0
                np.take(flat[j], at, out=inputs[p], mode="clip")

            # per source: one key per round, (comp, term, owners' x bits),
            # read through the source's group table as its group's first
            # table cell, plus the bucket of its uniform; the cell holds the
            # outcome
            for i, (src, owners, first, b, table, cdf) in enumerate(sources):
                cell = _source_keys(term, [xbits[p][:m] for p in owners], key[:m])
                # in place; "clip" skips the bounds-checked copy (keys are in range)
                np.take(first, cell, out=cell, mode="clip")
                v = streams["u", i].random(out=u[:m])
                cell |= np.multiply(v, 1 << b, out=bucket[:m], casting="unsafe")
                outcome = np.take(table, cell, out=bucket[:m], mode="clip")
                split = np.flatnonzero(outcome < 0)  # the search, as at b = 0
                row = cell[split] >> b
                outcome[split] = (cdf[row, :-1] <= (v[split] * cdf[row, -1])[:, None]
                                  ).sum(axis=1)
                for pos, p in enumerate(src.recipients):
                    bit = outcome >> pos if pos else outcome
                    if p in xbits:  # a single's one qubit
                        parity[p][:] = bit
                    else:
                        parity[p] ^= bit

            for bits in parity.values():  # in place: 1 - 2 * (bits & 1)
                bits &= 1
                bits *= -2
                bits += 1
            yield lo, RoundBatch(parties, vocab, inputs, parity, seed)

    return chunks()


def simulate_rounds(expr: InequalityExpr, state: State, n_rounds: int,
                    seed: int, angles: AngleMap | None = None) -> RoundBatch:
    """Simulate rounds; identical arguments give identical batches."""
    columns = {}, {}
    for _ in simulate_chunks(expr, state, n_rounds, seed, angles, columns):
        pass
    index = expr.input_index
    return RoundBatch(index.parties, dict(zip(index.parties, index.vocab)),
                      *columns, seed)


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


_DENSE_CODES = 1 << 17  # up to this many (profile, sign) codes, one table counts them


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last index of each run of equal, nonnegative codes."""
    head = np.flatnonzero(np.diff(codes, prepend=-1))
    tail = np.roll(head, -1) - 1  # the next run's head, less one
    tail[-1:] = len(codes) - 1
    return head, tail


class ProfileCounts:
    """Rounds counted by (input profile, outcome sign), a batch at a time;
    ``report`` gives the estimate of the rounds added so far.

    A round's code is fixed by the index shapes: the mixed-radix number of
    its parties' inputs, largest vocabulary first (``fold_rows``' order, so
    the profiles come in the order its codes give), then its sign as the
    lowest bit.  Up to ``_DENSE_CODES`` codes one table counts every code.
    Beyond it, each batch's codes are sorted and counted run by run into a
    waiting list, and once the list outnumbers the distinct codes kept, it
    merges into them.  The counts are integers, so no merge order changes a
    bit.
    """

    def __init__(self, expr: InequalityExpr):
        index = expr.input_index
        self.expr, self.n_rounds = expr, 0
        self.sizes = [len(v) for v in index.vocab]
        self.order = sorted(range(len(self.sizes)), key=lambda j: -self.sizes[j])
        n_codes = 2 * math.prod(self.sizes)
        if n_codes > 1 << 63:
            raise ValueError(f"{n_codes} input profile codes exceed the int64 range")
        self.dtype = small_int(n_codes - 1)  # narrow codes fold and sort faster
        self.table = np.zeros(n_codes, dtype=np.int64) if n_codes <= _DENSE_CODES else None
        self.codes = np.zeros(0, dtype=self.dtype)  # sorted and distinct
        self.counts = np.zeros(0, dtype=np.int64)
        self.waiting: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, batch: RoundBatch) -> None:
        """Count the batch's rounds; its columns must be equally long."""
        code = np.zeros(len(batch), dtype=self.dtype)
        sign = np.ones(len(batch), dtype=np.int8)
        for j in self.order:
            p, size = batch.parties[j], self.sizes[j]
            idx, outcome = batch.input_idx[p], batch.outcomes[p]
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(f"input index out of range for {p}")
            if np.any(np.abs(outcome) != 1):
                raise ValueError(f"outcome outside {{-1, +1}} for {p}")
            code *= size
            code += idx
            sign *= outcome
        code <<= 1
        code += sign < 0
        self.n_rounds += len(batch)
        if self.table is not None:
            np.add.at(self.table, code, 1)
            return
        code.sort()
        head, tail = _runs(code)
        self.waiting.append((code[head], tail - head + 1))
        if sum(len(codes) for codes, _ in self.waiting) >= len(self.codes):
            self._merge()

    def _merge(self) -> None:
        runs = [(self.codes, self.counts)] * bool(len(self.codes)) + self.waiting
        self.waiting = []
        if len(runs) == 1:  # one run is sorted and distinct already
            self.codes, self.counts = runs[0]
            return
        codes = np.concatenate([codes for codes, _ in runs])
        order = np.argsort(codes, kind="stable")  # a merge of sorted runs
        codes = codes[order]
        total = np.cumsum(np.concatenate([counts for _, counts in runs])[order])
        head, tail = _runs(codes)
        self.codes, self.counts = codes[head], np.diff(total[tail], prepend=0)

    def _by_profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per profile reached, in code order: its code and its rounds with
        outcome product +1 and -1.  A method of its own, so that its
        temporaries are freed before ``report``'s per-profile arrays."""
        if self.table is not None:
            by_sign = self.table.reshape(-1, 2)
            code = np.flatnonzero(by_sign[:, 0] | by_sign[:, 1]).astype(self.dtype)
            return code, by_sign[code, 0], by_sign[code, 1]
        if self.waiting:
            self._merge()
        # a profile's first code holds its + count when its sign bit is 0,
        # its last the - count when its sign bit is 1
        profile = self.codes >> 1
        head, tail = _runs(profile)
        return (profile[head], np.where(self.codes[head] & 1, 0, self.counts[head]),
                np.where(self.codes[tail] & 1, self.counts[tail], 0))

    def report(self) -> EstimateReport:
        """The estimate of the rounds added so far."""
        code, plus, minus = self._by_profile()
        profiles, dtype = [code] * len(self.sizes), self.expr.input_index.inputs.dtype
        for j in reversed(self.order):  # // then -: numpy's % is slower
            below = code // self.sizes[j]
            profiles[j] = (code - below * self.sizes[j]).astype(dtype)
            code = below
        counts = (plus + minus).astype(np.float64)
        mean = (plus - minus) / counts
        del code, below, plus, minus  # from here on, arrays per profile
        return _report(self.expr, self.n_rounds, profiles, counts, mean)


def estimate(expr: InequalityExpr, batch: RoundBatch) -> EstimateReport:
    """Reconstruct correlators and the expression value from rounds."""
    index = expr.input_index
    if batch.parties != index.parties:
        raise ValueError("round batch does not match the scenario's parties")
    if any(tuple(batch.vocab[p]) != v for p, v in zip(index.parties, index.vocab)):
        raise ValueError("round batch inputs do not match the scenario's")
    n_rounds = batch.n_rounds
    for p in index.parties:
        if len(batch.input_idx[p]) != n_rounds or len(batch.outcomes[p]) != n_rounds:
            raise ValueError(f"a column for {p} is not {n_rounds} rounds long")
    counts = ProfileCounts(expr)
    for lo in range(0, n_rounds, _BLOCK):
        counts.add(RoundBatch(
            batch.parties, batch.vocab,
            *({p: column[p][lo:lo + _BLOCK] for p in batch.parties}
              for column in (batch.input_idx, batch.outcomes)), batch.seed))
    return counts.report()


def _report(expr: InequalityExpr, n_rounds: int, profiles: list[np.ndarray],
            counts: np.ndarray, mean: np.ndarray) -> EstimateReport:
    """The estimate from the profiles reached: each party's input at each,
    and the count and mean outcome product of its rounds."""
    index = expr.input_index
    sizes = [len(v) for v in index.vocab]
    var = (1.0 - mean ** 2) / counts

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
        *whole, n_rounds, tuple(TermEstimate(*t) for t in terms),
        families, int((1 << n_single).sum()) - len(pair_term))
