"""Network topologies: independent sources distributing qubits to parties.

A topology is a set of sources (each emitting a fixed small entangled state,
one qubit per recipient slot) plus a partition of the emitted qubits among
named parties.  Qubits are 0-indexed internally; command-line reports render
them 1-based.  Party "roles" are not declared here: a party that owns one
qubit is single-qubit, one that owns several measures joint Pauli products,
and the measurement assignment lives in the scenario layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .pauli import MAX_QUBITS

BELL = "bell_pair"
GHZ3 = "ghz3"
_SOURCE_SIZES = {BELL: 2, GHZ3: 3}


class SourceError(ValueError):
    """A builder error naming one source, numbered from 0 as the builders'
    arguments are; ``template.format(source + 1)`` numbers it from 1."""

    def __init__(self, template: str, source: int):
        super().__init__(template.format(source))
        self.template, self.source = template, source


@dataclass(frozen=True)
class SourceSpec:
    """One source: kind, emitted qubit ids, and the receiving party per qubit."""

    id: int
    kind: str
    qubits: tuple[int, ...]
    recipients: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in _SOURCE_SIZES:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if len(self.qubits) != _SOURCE_SIZES[self.kind]:
            raise ValueError(f"{self.kind} emits {_SOURCE_SIZES[self.kind]} qubits")
        if len(self.recipients) != len(self.qubits):
            raise ValueError("one recipient per emitted qubit")


@dataclass(frozen=True)
class Party:
    id: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class NetworkTopology:
    n_qubits: int
    sources: tuple[SourceSpec, ...]
    parties: tuple[Party, ...]

    def party_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.parties)

    def party(self, party_id: str) -> Party:
        for p in self.parties:
            if p.id == party_id:
                return p
        raise KeyError(party_id)


def validate(topology: NetworkTopology) -> list[str]:
    """Return a list of diagnostics; empty means the topology is well formed."""
    problems: list[str] = []
    emitted: list[int] = []
    for s in topology.sources:
        emitted.extend(s.qubits)
        for q, r in zip(s.qubits, s.recipients):
            owner = next((p.id for p in topology.parties if q in p.qubits), None)
            if owner is None:
                problems.append(f"qubit {q} of source {s.id} is owned by no party")
            elif owner != r:
                problems.append(
                    f"source {s.id} sends qubit {q} to {r} but {owner} owns it")
    if sorted(emitted) != list(range(topology.n_qubits)):
        problems.append("sources must emit each qubit 0..n-1 exactly once")
    owned: list[int] = []
    for p in topology.parties:
        if not p.qubits:
            problems.append(f"party {p.id} owns no qubits")
        owned.extend(p.qubits)
    if sorted(owned) != list(range(topology.n_qubits)):
        problems.append("parties must partition the qubits")
    seen_ids = [p.id for p in topology.parties]
    if len(set(seen_ids)) != len(seen_ids):
        problems.append("party ids must be unique")
    return problems


def _fits(n_qubits: int) -> None:
    # before anything sized by the register (sources, hub labels, Pauli
    # words) is built
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceed the {MAX_QUBITS}-qubit register")


def _check(topology: NetworkTopology) -> NetworkTopology:
    _fits(topology.n_qubits)
    problems = validate(topology)
    if problems:
        raise ValueError("; ".join(problems))
    return topology


# -- builders ----------------------------------------------------------------

def two_source() -> NetworkTopology:
    """Line network: A - source - B - source - C, B holds one qubit from each."""
    sources = (
        SourceSpec(0, BELL, (0, 1), ("A", "B")),
        SourceSpec(1, BELL, (2, 3), ("B", "C")),
    )
    parties = (Party("A", (0,)), Party("B", (1, 2)), Party("C", (3,)))
    return _check(NetworkTopology(4, sources, parties))


def chsh_pair() -> NetworkTopology:
    """Single source shared by two parties (the two-party baseline)."""
    sources = (SourceSpec(0, BELL, (0, 1), ("A", "B")),)
    parties = (Party("A", (0,)), Party("B", (1,)))
    return _check(NetworkTopology(2, sources, parties))


def star(n_branches: int) -> NetworkTopology:
    """K sources, each sharing one qubit with the hub B and one with branch A_i.

    Source i emits qubit i to the hub and qubit K+i to A_{i+1}; the hub owns
    qubits 0..K-1.
    """
    if n_branches < 2:
        raise ValueError("star networks need at least 2 branches")
    _fits(2 * n_branches)
    k = n_branches
    sources = tuple(
        SourceSpec(i, BELL, (i, k + i), ("B", f"A{i + 1}")) for i in range(k))
    parties = (Party("B", tuple(range(k))),) + tuple(
        Party(f"A{i + 1}", (k + i,)) for i in range(k))
    return _check(NetworkTopology(2 * k, sources, parties))


def nkm(n_sources: int, n_branches: int, n_hubs: int,
        wiring: Sequence[tuple[int, int, int]] = (),
        alice_recipients: Sequence[int] | None = None) -> NetworkTopology:
    """General (N, K, m) network: K branch parties A_i and m hub parties B_j.

    Source i (0-based, i < K) emits qubit 2i to A_{i+1} and qubit 2i+1 to hub
    ``alice_recipients[i]`` (default hub i).  Each remaining source appears in
    ``wiring`` as (source, hub, hub) with two distinct hubs.  Every hub must
    end up with at least 2 qubits.
    """
    if not (n_sources >= n_branches >= 1 and n_hubs >= 1):
        raise ValueError("need N >= K >= 1 and m >= 1")
    _fits(2 * max(n_sources, n_hubs))  # N >= K, and every hub needs 2 qubits
    if alice_recipients is None:
        if n_branches > n_hubs:
            raise ValueError("default wiring needs m >= K; pass alice_recipients")
        alice_recipients = tuple(range(n_branches))
    if len(alice_recipients) != n_branches:
        raise ValueError("alice_recipients must list a hub per branch source")
    wired = {w[0] for w in wiring}
    if wired != set(range(n_branches, n_sources)) or len(wiring) != len(wired):
        raise ValueError("wiring must list each hub-hub source once")
    hub_qubits: dict[int, list[int]] = {j: [] for j in range(n_hubs)}
    sources = []
    for i in range(n_branches):
        j = alice_recipients[i]
        if not 0 <= j < n_hubs:
            raise ValueError(f"hub index {j} out of range")
        sources.append(SourceSpec(i, BELL, (2 * i, 2 * i + 1),
                                  (f"A{i + 1}", f"B{j + 1}")))
        hub_qubits[j].append(2 * i + 1)
    by_source = {w[0]: w for w in wiring}
    for i in range(n_branches, n_sources):
        _, ja, jb = by_source[i]
        if ja == jb:
            raise SourceError("source {} must connect two distinct hubs", i)
        if not (0 <= ja < n_hubs and 0 <= jb < n_hubs):
            raise SourceError("hub index out of range in wiring for source {}", i)
        sources.append(SourceSpec(i, BELL, (2 * i, 2 * i + 1),
                                  (f"B{ja + 1}", f"B{jb + 1}")))
        hub_qubits[ja].append(2 * i)
        hub_qubits[jb].append(2 * i + 1)
    for j, qs in hub_qubits.items():
        if len(qs) < 2:
            raise ValueError(f"hub B{j + 1} receives {len(qs)} qubit(s); needs >= 2")
    parties = tuple(Party(f"A{i + 1}", (2 * i,)) for i in range(n_branches)) + tuple(
        Party(f"B{j + 1}", tuple(sorted(hub_qubits[j]))) for j in range(n_hubs))
    return _check(NetworkTopology(2 * n_sources, tuple(sources), parties))


def ghz_case_a() -> NetworkTopology:
    """Pair source A-B plus a three-qubit source with two qubits at B, one at C."""
    sources = (
        SourceSpec(0, BELL, (0, 1), ("A", "B")),
        SourceSpec(1, GHZ3, (2, 3, 4), ("B", "B", "C")),
    )
    parties = (Party("A", (0,)), Party("B", (1, 2, 3)), Party("C", (4,)))
    return _check(NetworkTopology(5, sources, parties))


def ghz_case_b() -> NetworkTopology:
    """Pair source A-B plus a three-qubit source fanned out to B, C1, C2."""
    sources = (
        SourceSpec(0, BELL, (0, 1), ("A", "B")),
        SourceSpec(1, GHZ3, (2, 3, 4), ("B", "C1", "C2")),
    )
    parties = (Party("A", (0,)), Party("B", (1, 2)),
               Party("C1", (3,)), Party("C2", (4,)))
    return _check(NetworkTopology(5, sources, parties))

