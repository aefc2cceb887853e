"""One derivation system per cell, one solve per batch, and what the lemma suite reuses.

Cells are solved in batches (a single cell is the batch of one).  Each
cell's system covers both parities and is assembled once; one solve takes
every cell of the batch as one summand, with all its coordinates free, and
reduces them in at most one elimination; WDer is read off that Der, and
suite_lemmas takes its spaces from that h1 computation.  The
counts are taken by wrapping the private helpers with monkeypatch.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from ptilde2 import cohomology
from ptilde2.cli import _grid_batches, main, suite_lemmas
from ptilde2.cohomology import derivation_space, h1, weight_derivation_space
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
        highest_weight=km.highest_weight,
    )
    mixed.validate()
    for parity in (0, 1):
        with pytest.raises(ValueError, match="diagonal"):
            weight_derivation_space(g5, mixed, parity)
    # h1 reads WDer off Der's weight-0 rows, which would then be all of Der
    with pytest.raises(ValueError, match="diagonal"):
        h1(g5, mixed)


def assert_one_solve(g, modules, solves):
    """One solve with one summand per cell, in order, each with every coordinate free."""
    assert len(solves) == 1
    systems, cols = solves[0]
    assert [x.m for x in systems] == modules
    assert [c.tolist() for c in cols] == [list(range(m.dim * g.dim)) for m in modules]


def test_h1_builds_one_system_per_cell(monkeypatch, g5):
    entries = record_calls(monkeypatch, "_system_entries")
    codes = record_calls(monkeypatch, "_weight_codes")
    solves = record_calls(monkeypatch, "_solve_constrained")
    eliminations = record_calls(monkeypatch, "_rref_batched")
    for a, b in [(0, 3), (1, 1), (2, 4), (4, 0)]:
        km = build_kac_module(g5, a, b)
        for calls in (entries, codes, solves, eliminations):
            calls.clear()
        h1(g5, km)
        assert [m for _, m in entries] == [km]
        assert len(codes) == 1
        # one solve over the one system gives Der of both parities
        assert_one_solve(g5, [km], solves)
        # one elimination, unless no coordinate is free
        assert len(eliminations) == int(any(c.size for c in solves[0][1]))


def test_a_batch_assembles_per_cell_and_solves_once(monkeypatch, g5):
    entries = record_calls(monkeypatch, "_system_entries")
    codes = record_calls(monkeypatch, "_weight_codes")
    solves = record_calls(monkeypatch, "_solve_constrained")
    eliminations = record_calls(monkeypatch, "_rref_batched")
    modules = [build_kac_module(g5, a, b) for a, b in [(0, 3), (1, 1), (2, 4), (4, 0), (3, 2)]]
    outcomes = cohomology._h1_batch(g5, modules)
    assert [report.weight for report, _, _ in outcomes] == [m.highest_weight for m in modules]
    assert [m for _, m in entries] == modules
    assert [m for _, m in codes] == modules
    # one stacked elimination for both parities, WDer read off Der
    assert_one_solve(g5, modules, solves)
    assert len(eliminations) == 1


def test_lemma_suite_reuses_the_h1_spaces(monkeypatch):
    solves = record_calls(monkeypatch, "_solve_constrained")
    inner = record_calls(monkeypatch, "inner_space")
    # p=3 is one batch, p=5 three
    for p, batches in [(3, 1), (5, 3)]:
        solves.clear()
        inner.clear()
        assert len(_grid_batches(p)) == batches
        assert suite_lemmas(p) == []
        assert len(solves) == batches
        assert sum(len(systems) for systems, _ in solves) == p * p
        assert len(inner) == p * p


def test_route_disagreement_fails_the_lemma_suite(monkeypatch):
    # with Ider = 0 every Der row is a coset representative, and the weight
    # route does not count those of nonzero weight
    def no_inner(g, m):
        zero = Subspace.zero(g.p, m.dim * g.dim)
        return zero, zero

    monkeypatch.setattr(cohomology, "inner_space", no_inner)
    result = CliRunner().invoke(main, ["check", "--p", "3", "--suite", "lemmas"])
    assert result.exit_code == 1
    assert "solver routes disagree" in result.output


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_graded_facts_h1_reads_wder_off(p):
    # h1 takes WDer to be Der's rows that lead at weight 0, and the weight route
    # to be the representatives that do; every cell must bear that out
    g = build_p_tilde_2(p)
    for batch in _grid_batches(p):
        modules = [build_kac_module(g, a, b) for a, b in batch]
        for m, (report, wder, ider) in zip(modules, cohomology._h1_batch(g, modules)):
            cell = m.highest_weight
            coord_wt = cohomology._graded_system(g, m).coord_wt

            def weights(rows):
                return np.bincount(coord_wt[(rows != 0).argmax(axis=1)], minlength=p * p)

            picked = []
            for s in (0, 1):
                assert wder[s].space == weight_derivation_space(g, m, s).space, (cell, s)
                # per weight nu != 0: as many Der rows as Ider rows, and at most one
                basis = derivation_space(g, m, s).space.basis
                der = weights(basis)[1:]
                assert der.tolist() == weights(ider[s].basis)[1:].tolist(), (cell, s)
                assert der.max() <= 1, (cell, s)
                # the representatives are the picks of all of Der modulo Ider
                picks = cohomology._independent_modulo(ider[s], basis)
                picked += [(s, basis[k].tolist()) for k in picks]
            assert [(c.parity, c.flat().tolist()) for c in report.representatives] == picked, cell
            leads = [np.flatnonzero(c.flat())[0] for c in report.representatives]
            assert not coord_wt[leads].any(), cell


def test_h1_reduces_only_rows_that_lead_at_weight_0(monkeypatch):
    # off weight 0 Der is compared with Ider row for row, so only WDer is reduced
    g = build_p_tilde_2(7)
    reduced = record_calls(monkeypatch, "_independent_modulo")
    for a in range(7):
        for b in range(7):
            m = build_kac_module(g, a, b)
            coord_wt = cohomology._graded_system(g, m).coord_wt
            reduced.clear()
            h1(g, m)
            assert len(reduced) == 2
            for _, rows in reduced:
                assert not coord_wt[(rows != 0).argmax(axis=1)].any(), (a, b)
