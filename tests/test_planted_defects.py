"""Planted defects in the module and cohomology layers, each of which a check
must catch.  The defects are patched in with monkeypatch; the source stays
untouched.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from ptilde2 import cli, cohomology, modules
from ptilde2.cli import main
from dense_reference import _derivation_system
from ptilde2.cohomology import _coherent_columns, derivation_space, h1, inner_derivation
from ptilde2.linalg import FpMatrix, Subspace
from ptilde2.modules import KacModule, RepresentationError, build_kac_module
from ptilde2.superalgebra import build_p_tilde_2


@pytest.fixture(scope="module")
def g5():
    return build_p_tilde_2(5)


def flipped_kac(label, row, col, weight=(0, 3)):
    """A KacModule class that negates one action entry of K(weight) before validation."""

    class Flipped(KacModule):
        def __post_init__(self):
            super().__post_init__()
            if self.highest_weight != weight:
                return
            i = self.algebra.index(label)
            bent = self.actions.copy()
            assert bent[i, row, col], "the planted entry must be nonzero"
            bent[i, row, col] = -bent[i, row, col] % self.p
            self.actions = bent

    return Flipped


@pytest.mark.parametrize(
    "label, row, col",
    [("alpha", 0, 1), ("beta", 5, 4), ("gamma", 6, 2), ("e13", 1, 6), ("e14+e23", 0, 4)],
)
def test_sign_flip_in_a_kac_action_fails_validation(monkeypatch, g5, label, row, col):
    monkeypatch.setattr(modules, "KacModule", flipped_kac(label, row, col))
    with pytest.raises(RepresentationError, match="representation law"):
        build_kac_module(g5, 0, 3)


def test_sign_flip_is_a_module_suite_finding(monkeypatch):
    monkeypatch.setattr(modules, "KacModule", flipped_kac("alpha", 0, 1))
    result = CliRunner().invoke(main, ["check", "--p", "5", "--suite", "module"])
    assert result.exit_code == 1
    assert "FAIL (1 findings)" in result.output
    assert "K(0,3) failed: representation law fails" in result.output


@pytest.mark.parametrize("suite", ["weights", "lemmas"])
def test_sign_flip_is_a_finding_of_every_grid_suite(monkeypatch, suite):
    # the failed build is caught for its own cell; the rest of its batch is still checked
    monkeypatch.setattr(modules, "KacModule", flipped_kac("alpha", 0, 1))
    result = CliRunner().invoke(main, ["check", "--p", "5", "--suite", suite])
    assert result.exit_code == 1
    assert f"suite {suite}: FAIL (1 findings)" in result.output
    assert "K(0,3) failed: representation law fails" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--p", "5", "--jobs", "1"],
        ["scan", "--p", "5", "--jobs", "2"],
        ["h1", "--p", "5", "--a", "0", "--b", "3"],
        ["export", "--p", "5", "--what", "module", "--a", "0", "--b", "3"],
    ],
)
def test_sign_flip_is_one_stderr_line_of_every_command(monkeypatch, args):
    monkeypatch.setattr(modules, "KacModule", flipped_kac("alpha", 0, 1))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert type(result.exception) is SystemExit
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    # a scan names its failing cell; h1 and export build only the cell they were given
    cell = "K(0,3): " if args[0] == "scan" else ""
    assert lines[0].startswith(f"module build failed: {cell}representation law fails")


def test_sign_flip_is_one_finding_per_grid_suite_of_the_shared_walk(monkeypatch):
    monkeypatch.setattr(modules, "KacModule", flipped_kac("alpha", 0, 1))
    result = CliRunner().invoke(main, ["check", "--p", "5", "--suite", "all"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0] == "suite algebra: PASS"
    for k, suite in enumerate(["module", "weights", "lemmas"]):
        assert lines[1 + 2 * k] == f"suite {suite}: FAIL (1 findings)"
        assert lines[2 + 2 * k].startswith("  K(0,3) failed: representation law fails")
    assert len(lines) == 7


def test_dropped_pair_breaks_the_blocked_solver(monkeypatch, g5):
    # only the (gamma, gamma) pair pins this odd derivation down at K(1, 1)
    km = build_kac_module(g5, 1, 1)
    gamma = g5.index("gamma")
    entries = cohomology._system_entries

    def dropped(g, m):
        rows, cols, vals = entries(g, m)
        keep = rows // m.dim != gamma * g.dim + gamma
        return rows[keep], cols[keep], vals[keep]

    monkeypatch.setattr(cohomology, "_system_entries", dropped)
    columns = _coherent_columns(g5, km, 1)
    n = km.dim * g5.dim
    dense = FpMatrix(5, _derivation_system(g5, km, 1)[:, columns]).nullspace()
    reference = np.zeros((dense.dim, n), dtype=np.int64)
    reference[:, columns] = dense.basis
    assert derivation_space(g5, km, 1).space != Subspace(5, n, reference)
    # the closed form disagrees with the inflated H1
    assert not h1(g5, km).agrees


@pytest.mark.parametrize("weight", [(0, 3), (1, 2)])
@pytest.mark.parametrize("parity", [0, 1])
def test_one_extra_inner_vector_escapes_the_derivation_space(monkeypatch, g5, weight, parity):
    # Ider plus one unit vector at a parity-incoherent coordinate: the rank of
    # Der modulo Ider is then one more than dim Der - dim Ider, the smallest miss
    km = build_kac_module(g5, *weight)
    n = km.dim * g5.dim
    c = np.setdiff1d(np.arange(n), _coherent_columns(g5, km, parity))[0]
    inner = cohomology.inner_space

    def planted(g, m):
        spans = list(inner(g, m))
        spans[parity] = spans[parity] + Subspace(g.p, n, np.eye(n, dtype=np.int64)[c])
        return tuple(spans)

    monkeypatch.setattr(cohomology, "inner_space", planted)
    message = f"inner derivations escaped the derivation space \\(parity {parity}\\)"
    with pytest.raises(cohomology.SolverFailure, match=message):
        h1(g5, km)


@pytest.mark.parametrize("label", ["g*v1", "1*v1"])
def test_inner_cocycle_is_a_lemma_suite_finding(monkeypatch, g5, label):
    # the outerness check of each cocycle reads the Ider of its own parity
    km = build_kac_module(g5, 0, 3)
    v = np.eye(km.dim, dtype=np.int64)[km.labels.index(label)]
    planted = inner_derivation(g5, km, v)
    real = cli.outer_cocycles
    monkeypatch.setattr(
        cli, "outer_cocycles", lambda p, a, b: [planted] if (a, b) == (0, 3) else real(p, a, b)
    )
    result = CliRunner().invoke(main, ["check", "--p", "5", "--suite", "lemmas"])
    assert result.exit_code == 1
    assert "FAIL (1 findings)" in result.output
    assert "cocycle 0 at (0,3) is inner" in result.output


def test_wrong_case_table_entry_fails_the_weights_suite(monkeypatch):
    even, odd = modules._CASE_TABLE[(1, 1)]
    wrong_even = (even[0] + 1,) + even[1:]
    monkeypatch.setitem(modules._CASE_TABLE, (1, 1), (wrong_even, odd))
    result = CliRunner().invoke(main, ["check", "--p", "5", "--suite", "weights"])
    assert result.exit_code == 1
    assert "case-table mismatch" in result.output


def test_wrong_basis_weights_are_findings_in_basis_order(g5):
    # h2 off by one on g*v0 and g*v1, h1 on 1*v1: an unvalidated K(0, 3)
    km = build_kac_module(g5, 0, 3)
    bent = km.actions.copy()
    h1, h2 = g5.index("h1"), g5.index("h2")
    for x, i in ((h2, km.odd_index(0)), (h1, km.even_index(1)), (h2, km.odd_index(1))):
        bent[x, i, i] += 1
    wrong = KacModule(
        algebra=g5,
        labels=km.labels,
        parity=km.parity,
        actions=bent,
        highest_weight=km.highest_weight,
        top_index=km.top_index,
    )
    assert cli._weight_findings(wrong, None) == [
        "weight of odd basis 0 wrong at (0,3)",
        "weight of even basis 1 wrong at (0,3)",
        "weight of odd basis 1 wrong at (0,3)",
        "case-table mismatch at (p=5, a=0, b=3, w=Weight(w1=1, w2=4))",
    ]


def relabelled_k01():
    """K(0, 1) at p=3 with g*v0 (index 2) called even: a module that breaks its parity blocks."""
    g = build_p_tilde_2(3)
    km = build_kac_module(g, 0, 1)
    parity = list(km.parity)
    parity[2] = 0
    bent = modules.GModule(algebra=g, labels=km.labels, parity=tuple(parity), actions=km.actions)
    return g, bent


def test_relabelled_parity_is_caught_by_the_parity_check():
    # the representation law ignores module parities, so only the parity split can catch it
    _, bent = relabelled_k01()
    assert bent.representation_violations() == []
    # gamma, alpha, beta, e24 and e14+e23 each have one entry in row or column 2
    # that now joins blocks of the wrong parity
    assert bent.parity_violations() == [(0, 2, 0), (3, 2, 3), (4, 3, 2), (6, 1, 2), (7, 0, 2)]
    with pytest.raises(RepresentationError, match="parity blocks violated"):
        bent.validate()


@pytest.mark.parametrize("parity", [0, 1])
def test_relabelled_parity_is_refused_by_the_solver(parity):
    # the system of both parities holds an equation whose entries cross
    # parities; solving it anyway would give a different Der
    g, bent = relabelled_k01()
    with pytest.raises(ValueError, match="mixes parities"):
        derivation_space(g, bent, parity)
