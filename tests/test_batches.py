"""Batches of cells against the batch of one.

Der(g, M_1 + ... + M_k) is the direct sum of the Der(g, M_c), so a batch is
solved as one system, one summand per cell, whose weight and parity blocks
are refined by cell.  Every cell of a batch must come out exactly as it does
alone: the same dims, the same representative bytes, and the same Der, WDer
and Ider bases per parity.  The blocks the batch eliminates must be exactly
the blocks of its cells.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import _derivation_system
from ptilde2 import cli, cohomology
from ptilde2.cli import main
from ptilde2.cohomology import (
    SolverFailure,
    _coherent_columns,
    _graded_system,
    _h1_batch,
    _solve_constrained,
    _weight_zero_columns,
)
from ptilde2.linalg import FpMatrix, Subspace, _rref_batched
from ptilde2.modules import build_kac_module
from ptilde2.superalgebra import build_p_tilde_2

ALGEBRAS = {p: build_p_tilde_2(p) for p in (3, 5, 7, 13)}


def solved_spaces(g, modules):
    """Der and WDer per parity, one solve per route: {(route, parity): [Subspace per cell]}."""
    systems = [_graded_system(g, m) for m in modules]
    out = {}
    for route, weight_zero in (("der", False), ("wder", True)):
        columns = route_columns(None, weight_zero)
        solved = _solve_constrained(systems, [columns(x) for x in systems])
        assert len(solved) == len(modules) and all(len(pair) == 2 for pair in solved)
        for s in (0, 1):
            out[route, s] = [pair[s] for pair in solved]
    return out


def outcome_bytes(outcome):
    """Everything h1 reports for a cell, with the WDer and Ider bases, as comparable values."""
    report, wder, ider = outcome
    return (
        report.weight,
        report.dims,
        report.predicted,
        [(c.parity, c.values.tobytes()) for c in report.representatives],
        [wder[s].space.basis.tobytes() for s in (0, 1)],
        [wder[s].dim for s in (0, 1)],
        [ider[s].basis.tobytes() for s in (0, 1)],
        [ider[s].dim for s in (0, 1)],
    )


def assert_batch_equals_singles(g, cells):
    modules = [build_kac_module(g, a, b) for a, b in cells]
    batched = _h1_batch(g, modules)
    assert len(batched) == len(modules)
    for m, outcome in zip(modules, batched):
        assert outcome_bytes(outcome) == outcome_bytes(_h1_batch(g, [m])[0]), m.highest_weight
    spaces = solved_spaces(g, modules)
    for c, m in enumerate(modules):
        alone = solved_spaces(g, [m])
        for key, batch_spaces in spaces.items():
            assert batch_spaces[c] == alone[key][0], (m.highest_weight, key)


@st.composite
def shuffled_cells(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    grid = [(a, b) for a in range(p) for b in range(p)]
    cells = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True))
    return p, draw(st.permutations(cells))


@settings(max_examples=30, deadline=None)
@given(shuffled_cells())
def test_every_cell_of_a_batch_equals_its_batch_of_one(case):
    p, cells = case
    assert_batch_equals_singles(ALGEBRAS[p], cells)


def test_a_p13_slice_with_the_top_index_cells():
    # t = 12, 11, 0 and 6, the two-class cell (0, 11), and (12, 12) with dim 1
    cells = [(0, 12), (5, 4), (0, 11), (3, 2), (7, 7), (12, 12), (2, 8), (9, 8)]
    assert_batch_equals_singles(ALGEBRAS[13], cells)


def test_a_mixed_batch_matches_the_dense_reference():
    g = ALGEBRAS[5]
    modules = [build_kac_module(g, a, b) for a, b in [(0, 4), (2, 2), (0, 3), (3, 1), (1, 2)]]
    spaces = solved_spaces(g, modules)
    for c, m in enumerate(modules):
        n = m.dim * g.dim
        for s in (0, 1):
            columns = _coherent_columns(g, m, s)
            kernel = FpMatrix(g.p, _derivation_system(g, m, s)[:, columns]).nullspace()
            full = np.zeros((kernel.dim, n), dtype=np.int64)
            full[:, columns] = kernel.basis
            assert spaces["der", s][c] == Subspace.from_spanning(g.p, n, full)


def eliminated_blocks(monkeypatch, g, modules, columns):
    """The blocks one solve of the modules, free on columns(system), hands to the
    elimination, in order, trimmed of padding."""
    blocks = []

    def recording(stack, p):
        for block in stack:
            columns = np.flatnonzero(block.any(axis=0))
            trimmed = block[block.any(axis=1), : columns[-1] + 1 if columns.size else 0]
            blocks.append((trimmed.shape, trimmed.tobytes()))
        return _rref_batched(stack, p)

    monkeypatch.setattr(cohomology, "_rref_batched", recording)
    systems = [_graded_system(g, m) for m in modules]
    _solve_constrained(systems, [columns(x) for x in systems])
    return blocks


def route_columns(parity, weight_zero):
    """Der's or WDer's free columns of one parity."""

    def columns(system):
        cols = _weight_zero_columns(system) if weight_zero else np.arange(system.coord_par.size)
        return cols[system.coord_par[cols] == parity] if parity is not None else cols

    return columns


@pytest.mark.parametrize("weight_zero", [False, True])
@pytest.mark.parametrize("parity", [0, 1])
def test_the_batch_eliminates_exactly_the_blocks_of_its_cells(monkeypatch, parity, weight_zero):
    # no block mixes two cells: the stack is the cells' own stacks, cell after cell
    g = ALGEBRAS[5]
    modules = [build_kac_module(g, a, b) for a, b in [(0, 3), (1, 1), (2, 4), (4, 0), (3, 2)]]
    columns = route_columns(parity, weight_zero)
    batched = eliminated_blocks(monkeypatch, g, modules, columns)
    singles = [eliminated_blocks(monkeypatch, g, [m], columns) for m in modules]
    assert batched == [block for blocks in singles for block in blocks]


@pytest.mark.parametrize("weight_zero", [False, True])
def test_no_block_mixes_two_parities(monkeypatch, weight_zero):
    # at p = 3 some weights hold coordinates of both parities; each block must
    # still be one that a solve of a single parity eliminates
    g = ALGEBRAS[3]
    for m in [build_kac_module(g, a, b) for a in range(3) for b in range(3)]:
        both = eliminated_blocks(monkeypatch, g, [m], route_columns(None, weight_zero))
        even, odd = (
            eliminated_blocks(monkeypatch, g, [m], route_columns(s, weight_zero)) for s in (0, 1)
        )
        assert sorted(both) == sorted(even + odd), m.highest_weight


@pytest.fixture
def failing_cells(monkeypatch):
    """Plant, through the inner span, one solver failure at each given cell."""

    def plant(*cells):
        inner = cohomology.inner_space

        def planted(g, m):
            even, odd = inner(g, m)
            if m.highest_weight in cells:
                # Ider = 0 in both parities: the routes then disagree at that cell
                return Subspace.zero(g.p, even.ambient_dim), Subspace.zero(g.p, odd.ambient_dim)
            return even, odd

        monkeypatch.setattr(cohomology, "inner_space", planted)

    return plant


def test_a_failing_cell_does_not_fail_its_batch(failing_cells):
    failing_cells((1, 2))
    g = ALGEBRAS[5]
    modules = [build_kac_module(g, a, b) for a, b in [(0, 3), (1, 2), (2, 4)]]
    first, failed, last = _h1_batch(g, modules)
    assert isinstance(failed, SolverFailure)
    assert "lambda=(1, 2)" in str(failed)
    assert first[0].weight == (0, 3) and last[0].weight == (2, 4)


def test_scan_exits_one_with_the_failing_cells_line(failing_cells):
    failing_cells((1, 2))
    result = CliRunner().invoke(main, ["scan", "--p", "5"])
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal solver failure: solver routes disagree at p=5, lambda=(1, 2)")


def test_the_lemma_suite_reports_only_the_failing_cell(monkeypatch, failing_cells):
    failing_cells((1, 2))
    checked = []
    cartan = cli.cartan_values_annihilated

    def recording(g, km, cochains=None):
        checked.append(km.highest_weight)
        return cartan(g, km, cochains=cochains)

    monkeypatch.setattr(cli, "cartan_values_annihilated", recording)
    findings = cli.suite_lemmas(5)
    assert len(findings) == 1
    assert findings[0].startswith("solver failure at (1,2): solver routes disagree")
    assert checked == [(a, b) for a in range(5) for b in range(5) if (a, b) != (1, 2)]
