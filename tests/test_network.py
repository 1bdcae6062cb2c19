"""Topology builders and validation diagnostics."""

import pytest

from netbell import network
from netbell.network import (
    NetworkTopology,
    Party,
    SourceSpec,
    chsh_pair,
    ghz_case_a,
    ghz_case_b,
    nkm,
    star,
    two_source,
    validate,
)
from scenario_oracle import source_of


def test_two_source_layout():
    t = two_source()
    assert t.n_qubits == 4
    assert t.party("A").qubits == (0,)
    assert t.party("B").qubits == (1, 2)
    assert t.party("C").qubits == (3,)
    assert [s.qubits for s in t.sources] == [(0, 1), (2, 3)]
    assert [p.id for p in t.parties if 2 in p.qubits] == ["B"]
    assert source_of(t, 3).id == 1
    assert [p.id for p in t.parties if len(p.qubits) == 1] == ["A", "C"]
    assert [p.id for p in t.parties if len(p.qubits) > 1] == ["B"]


def test_chsh_pair_layout():
    t = chsh_pair()
    assert t.n_qubits == 2
    assert t.party_ids() == ("A", "B")
    assert len(t.sources) == 1
    assert [p.id for p in t.parties if len(p.qubits) > 1] == []


def test_star_layout():
    for k in (2, 3, 5):
        t = star(k)
        assert t.n_qubits == 2 * k
        assert t.party("B").qubits == tuple(range(k))
        for i in range(k):
            assert t.party(f"A{i + 1}").qubits == (k + i,)
            assert source_of(t, i).id == i
            assert source_of(t, k + i).id == i
    with pytest.raises(ValueError):
        star(1)
    assert star(32).n_qubits == 64
    with pytest.raises(ValueError, match="66 qubits exceed the 64-qubit register"):
        star(33)


def test_oversized_networks_are_refused_before_any_source(monkeypatch):
    # 10^12 branches, sources or hubs: one comparison, no source, hub list
    # or range built first
    def built(*args, **kwargs):
        raise AssertionError("a source was built")

    monkeypatch.setattr(network, "SourceSpec", built)
    big = 10 ** 12
    for build in (lambda: star(big), lambda: nkm(big, 2, 2),
                  lambda: nkm(3, 2, big), lambda: nkm(big, big, big)):
        with pytest.raises(ValueError,
                           match=f"^{2 * big} qubits exceed the 64-qubit register$"):
            build()


def test_nkm_layout():
    t = nkm(3, 2, 2, wiring=((2, 0, 1),))
    # branch sources 0,1 feed A1,A2 plus a hub each; source 2 links B1 to B2
    assert t.n_qubits == 6
    assert t.party("A1").qubits == (0,)
    assert t.party("A2").qubits == (2,)
    assert [p.id for p in t.parties if len(p.qubits) > 1] == ["B1", "B2"]
    assert t.party("B1").qubits == (1, 4)
    assert t.party("B2").qubits == (3, 5)
    link = t.sources[2]
    assert link.recipients == ("B1", "B2")


def test_nkm_validation():
    with pytest.raises(ValueError):
        nkm(3, 2, 2, wiring=((2, 0, 0),))  # same hub twice
    with pytest.raises(ValueError):
        nkm(3, 2, 2, wiring=((0, 0, 1),))  # branch source reused as link
    with pytest.raises(ValueError):
        nkm(2, 3, 1, wiring=())  # more branches than sources
    with pytest.raises(ValueError):
        nkm(4, 2, 2, wiring=((2, 0, 1), (2, 1, 0)))  # source 3 unwired
    with pytest.raises(ValueError):
        nkm(3, 3, 2, wiring=())  # default hub assignment needs m >= K
    with pytest.raises(ValueError):
        nkm(3, 2, 2, wiring=((2, 0, 5),))  # hub index out of range


def test_nkm_collapse_matches_star_shape():
    t = nkm(2, 2, 1, wiring=(), alice_recipients=[0, 0])
    assert [p.id for p in t.parties if len(p.qubits) > 1] == ["B1"]
    assert t.party("B1").qubits == (1, 3)
    assert [p.id for p in t.parties if len(p.qubits) == 1] == ["A1", "A2"]


def test_ghz_layouts():
    a = ghz_case_a()
    assert a.party("B").qubits == (1, 2, 3)
    assert [s.kind for s in a.sources] == [network.BELL, network.GHZ3]
    b = ghz_case_b()
    assert b.party("B").qubits == (1, 2)
    assert b.party("C1").qubits == (3,)
    assert b.party("C2").qubits == (4,)
    assert validate(a) == [] and validate(b) == []


def test_validate_reports_problems():
    # overlapping parties, unclaimed qubit, recipient mismatch
    broken = NetworkTopology(
        n_qubits=4,
        sources=(SourceSpec(0, network.BELL, (0, 1), ("A", "B")),
                 SourceSpec(1, network.BELL, (2, 3), ("B", "B"))),
        parties=(Party("A", (0, 1)), Party("B", (1,))),
    )
    problems = validate(broken)
    assert len(problems) >= 2
    assert any("qubit" in p for p in problems)


def test_validate_catches_double_emission():
    broken = NetworkTopology(
        n_qubits=3,
        sources=(SourceSpec(0, network.BELL, (0, 1), ("A", "B")),
                 SourceSpec(1, network.BELL, (1, 2), ("B", "C"))),
        parties=(Party("A", (0,)), Party("B", (1,)), Party("C", (2,))),
    )
    assert any("emit" in p for p in validate(broken))


def test_source_spec_shape_checks():
    with pytest.raises(ValueError):
        SourceSpec(0, "w-state", (0, 1, 2), ("A", "B", "C"))
    with pytest.raises(ValueError):
        SourceSpec(0, network.BELL, (0, 1, 2), ("A", "B", "C"))
    with pytest.raises(ValueError):
        SourceSpec(0, network.GHZ3, (0, 1, 2), ("A", "B"))


def test_builders_validate_clean():
    for t in (two_source(), chsh_pair(), star(2), star(4),
              nkm(3, 2, 2, wiring=((2, 0, 1),)), ghz_case_a(), ghz_case_b()):
        assert validate(t) == []

