"""One derivation system per (cell, parity), and what the lemma suite reuses.

h1 assembles each parity's system once and solves Der and WDer over it with
one solve each; suite_lemmas takes its spaces from that one h1 computation.
The counts are taken by wrapping the private helpers with monkeypatch.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from dense_reference import _weight_matched_columns
from ptilde2 import cohomology
from ptilde2.cli import main, suite_lemmas
from ptilde2.cohomology import _coherent_columns, h1, weight_derivation_space
from ptilde2.linalg import Subspace
from ptilde2.modules import GModule, build_kac_module
from ptilde2.superalgebra import build_p_tilde_2


@pytest.fixture(scope="module")
def g5():
    return build_p_tilde_2(5)


def record_calls(monkeypatch, name):
    """Wrap cohomology.<name> so that every call appends its arguments to a list."""
    calls = []
    original = getattr(cohomology, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohomology, name, wrapper)
    return calls


def test_weight_derivations_need_a_diagonal_cartan(g5):
    # K(0, 3) in the basis of test_non_diagonal_cartan_is_one_block: every
    # weight code is then 0, so a bare "code == 0" mask would return Der
    km = build_kac_module(g5, 0, 3)
    change = np.eye(km.dim, dtype=np.int64)
    change[0, 1] = 1
    inverse = np.eye(km.dim, dtype=np.int64)
    inverse[0, 1] = 4
    mixed = GModule(
        algebra=g5,
        labels=km.labels,
        parity=km.parity,
        actions=[inverse @ a @ change for a in km.actions],
    )
    mixed.validate()
    for parity in (0, 1):
        with pytest.raises(ValueError, match="diagonal"):
            weight_derivation_space(g5, mixed, parity)


def test_h1_builds_each_parity_system_once(monkeypatch, g5):
    entries = record_calls(monkeypatch, "_system_entries")
    codes = record_calls(monkeypatch, "_weight_codes")
    solves = record_calls(monkeypatch, "_solve_constrained")
    for a, b in [(0, 3), (1, 1), (2, 4), (4, 0)]:
        km = build_kac_module(g5, a, b)
        for calls in (entries, codes, solves):
            calls.clear()
        h1(g5, km)
        assert sorted(parity for _, _, parity in entries) == [0, 1]
        assert len(codes) <= 2
        # per parity, Der and WDer each get their own solve over the one system
        assert len(solves) == 4
        for parity in (0, 1):
            coherent = _coherent_columns(g5, km, parity)
            weighted = np.intersect1d(coherent, _weight_matched_columns(g5, km))
            solved = [cols.tolist() for system, cols in solves if system.parity == parity]
            assert sorted(solved) == sorted([coherent.tolist(), weighted.tolist()])


def test_lemma_suite_reuses_the_h1_spaces(monkeypatch):
    solves = record_calls(monkeypatch, "_solve_constrained")
    inner = record_calls(monkeypatch, "inner_space")
    assert suite_lemmas(3) == []
    assert len(solves) == 4 * 9
    assert len(inner) == 9


def test_route_disagreement_fails_the_lemma_suite(monkeypatch):
    add = Subspace.__add__

    def lossy(self, other):
        total = add(self, other)
        return Subspace(total.p, total.ambient_dim, total.basis[:-1])

    monkeypatch.setattr(Subspace, "__add__", lossy)
    result = CliRunner().invoke(main, ["check", "--p", "3", "--suite", "lemmas"])
    assert result.exit_code == 1
    assert "solver routes disagree" in result.output
