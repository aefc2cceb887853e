"""One derivation system per (cell, parity), and what the lemma suite reuses.

Cells are solved in batches (a single cell is the batch of one).  Each
(cell, parity) system is assembled once; per parity, Der gets one solve over
all the batch's systems and WDer a separate one; suite_lemmas takes its
spaces from that h1 computation.  The counts are taken by wrapping the
private helpers with monkeypatch.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from dense_reference import _weight_matched_columns
from ptilde2 import cohomology
from ptilde2.cli import _grid_batches, main, suite_lemmas
from ptilde2.cohomology import _coherent_columns, h1, weight_derivation_space
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


def assert_batched_solves(g, modules, solves):
    """Der then WDer per parity, each one solve over every cell of the batch, in order."""
    assert [(len(systems), len(cols)) for systems, cols in solves] == [(len(modules),) * 2] * 4
    for (systems, cols), parity, weighted in zip(solves, (0, 1, 0, 1), (False, False, True, True)):
        assert [system.m for system in systems] == modules
        assert {system.parity for system in systems} == {parity}
        for m, solved in zip(modules, cols):
            coherent = _coherent_columns(g, m, parity)
            if weighted:
                coherent = np.intersect1d(coherent, _weight_matched_columns(g, m))
            assert solved.tolist() == coherent.tolist()


def test_h1_builds_each_parity_system_once(monkeypatch, g5):
    entries = record_calls(monkeypatch, "_system_entries")
    codes = record_calls(monkeypatch, "_weight_codes")
    solves = record_calls(monkeypatch, "_solve_constrained")
    eliminations = record_calls(monkeypatch, "_rref_batched")
    for a, b in [(0, 3), (1, 1), (2, 4), (4, 0)]:
        km = build_kac_module(g5, a, b)
        for calls in (entries, codes, solves, eliminations):
            calls.clear()
        h1(g5, km)
        assert [parity for _, _, parity in entries] == [0, 1]
        assert len(codes) == 1
        # per parity, Der and WDer each get their own solve over the one system
        assert_batched_solves(g5, [km], solves)
        # one elimination per solve, unless no coordinate is free
        assert len(eliminations) == sum(cols[0].size > 0 for _, cols in solves)


def test_a_batch_assembles_per_cell_and_solves_per_parity(monkeypatch, g5):
    entries = record_calls(monkeypatch, "_system_entries")
    codes = record_calls(monkeypatch, "_weight_codes")
    solves = record_calls(monkeypatch, "_solve_constrained")
    eliminations = record_calls(monkeypatch, "_rref_batched")
    modules = [build_kac_module(g5, a, b) for a, b in [(0, 3), (1, 1), (2, 4), (4, 0), (3, 2)]]
    outcomes = cohomology._h1_batch(g5, modules)
    assert [report.weight for report, _, _ in outcomes] == [m.highest_weight for m in modules]
    assert [(m.highest_weight, parity) for _, m, parity in entries] == [
        (m.highest_weight, s) for m in modules for s in (0, 1)
    ]
    assert [m for _, m in codes] == modules
    # one stacked elimination per parity for Der, and one more for WDer
    assert_batched_solves(g5, modules, solves)
    assert len(eliminations) == 4


def test_lemma_suite_reuses_the_h1_spaces(monkeypatch):
    solves = record_calls(monkeypatch, "_solve_constrained")
    inner = record_calls(monkeypatch, "inner_space")
    # p=3 is one batch, p=5 three
    for p, batches in [(3, 1), (5, 3)]:
        solves.clear()
        inner.clear()
        assert len(_grid_batches(p)) == batches
        assert suite_lemmas(p) == []
        assert len(solves) == 4 * batches
        assert sum(len(systems) for systems, _ in solves) == 4 * p * p
        assert len(inner) == p * p


def test_route_disagreement_fails_the_lemma_suite(monkeypatch):
    # WDer with no free columns is 0, so the weight route reads 0 at every cell
    monkeypatch.setattr(
        cohomology, "_weight_zero_columns", lambda system: np.zeros(0, dtype=np.int64)
    )
    result = CliRunner().invoke(main, ["check", "--p", "3", "--suite", "lemmas"])
    assert result.exit_code == 1
    assert "solver routes disagree" in result.output
