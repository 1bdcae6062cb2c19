"""The scenario catalog's static text: each scenario's name, tag, summary,
parameters and families.

It imports nothing, so ``netbell list`` prints it without loading numpy or
the builders; ``scenario.SCENARIOS`` pairs each entry with its builder.
"""

from __future__ import annotations

from typing import NamedTuple


class Entry(NamedTuple):
    name: str
    tag: str
    summary: str
    params: str
    families: tuple[str, ...]


CATALOG: dict[str, Entry] = {entry.name: entry for entry in (
    Entry("chsh", "chsh", "two-party baseline, bound 2, max 2*sqrt(2)",
          "none", ("first",)),
    Entry("two-source", "two-source-linear",
          "line network A-B-C with two pair sources",
          "none", ("first", "second", "combined")),
    Entry("star", "star-linear/nonlinear",
          "K pair sources sharing a hub; r != 1 switches to the power form",
          "k (branches, >=2); r-num/r-den (odd/odd, rK < 2)",
          ("first", "second", "combined")),
    Entry("nkm", "nkm", "N pair sources, K branch parties, m hubs",
          "n, k, m; wiring 'src:hubA-hubB,...' (1-based) for sources > K; "
          "inter-bits 'src:bit,...'",
          ("first", "second")),
    Entry("ghz-a", "ghz-hub", "pair + three-qubit source, hub holds three qubits",
          "none", ("first", "second", "combined")),
    Entry("ghz-b", "ghz-fanout", "pair + three-qubit source fanned out to 4 parties",
          "none", ("first",)),
    Entry("bilocal", "bilocal-baseline",
          "square-root and linear two-source baselines (bilocal-model bounds)",
          "none", ("bi", "bil")),
)}
