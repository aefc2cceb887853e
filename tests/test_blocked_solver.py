"""The weight-blocked derivation solver against the dense 64-pair reference.

The reference row-reduces the whole dense system restricted to the free
coordinates, as the solver did before it was split by weight; canonical bases
must agree bit for bit.
"""

import numpy as np
import pytest

from dense_reference import _derivation_system, _weight_matched_columns
from ptilde2.cohomology import (
    _coherent_columns,
    _system_entries,
    derivation_space,
    weight_derivation_space,
)
from ptilde2.linalg import FpMatrix, Subspace
from ptilde2.modules import GModule, build_kac_module
from ptilde2.superalgebra import build_p_tilde_2


def dense_kernel(p, system, columns, n):
    if columns.size == 0:
        return Subspace.zero(p, n)
    kernel = FpMatrix(p, system[:, columns]).nullspace()
    full = np.zeros((kernel.dim, n), dtype=np.int64)
    full[:, columns] = kernel.basis
    return Subspace.from_spanning(p, n, full)


def assert_matches_reference(g, m):
    n = m.dim * g.dim
    for parity in (0, 1):
        system = _derivation_system(g, m, parity)
        coherent = _coherent_columns(g, m, parity)
        weighted = np.intersect1d(coherent, _weight_matched_columns(g, m))
        for solved, columns in (
            (derivation_space(g, m, parity), coherent),
            (weight_derivation_space(g, m, parity), weighted),
        ):
            assert solved.space == dense_kernel(g.p, system, columns, n), (m.highest_weight, parity)
            assert [c.flat().tolist() for c in solved.basis] == solved.space.basis.tolist()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_cell_matches_dense_reference(p):
    g = build_p_tilde_2(p)
    for a in range(p):
        for b in range(p):
            assert_matches_reference(g, build_kac_module(g, a, b))


@pytest.mark.parametrize("p", [11, 13])
def test_top_index_cells_match_dense_reference(p):
    g = build_p_tilde_2(p)
    for a in range(p):
        assert_matches_reference(g, build_kac_module(g, a, a + p - 1))


def test_sparse_entries_assemble_to_dense_system():
    g = build_p_tilde_2(5)
    km = build_kac_module(g, 0, 3)
    for parity in (0, 1):
        rows, cols, vals = _system_entries(g, km, parity)
        dense = np.zeros((g.dim * g.dim * km.dim, km.dim * g.dim), dtype=np.int64)
        np.add.at(dense, (rows, cols), vals)
        assert np.array_equal(dense % 5, _derivation_system(g, km, parity))


def test_weight_incompatible_module_raises():
    # diagonal (zero) Cartan action, but alpha fixes the weight-0 vector
    # instead of shifting it by its root
    g = build_p_tilde_2(5)
    actions = [np.zeros((1, 1), dtype=np.int64) for _ in range(g.dim)]
    actions[g.index("alpha")] = np.ones((1, 1), dtype=np.int64)
    m = GModule(algebra=g, labels=("w",), parity=(0,), actions=actions)
    with pytest.raises(ValueError, match="mixes weights"):
        derivation_space(g, m, 0)


def test_non_diagonal_cartan_is_one_block():
    # K(0, 3) in the basis 1*v0, 1*v0 + 1*v1, ...: h1 no longer acts diagonally
    g = build_p_tilde_2(5)
    km = build_kac_module(g, 0, 3)
    change = np.eye(km.dim, dtype=np.int64)
    change[0, 1] = 1
    inverse = np.eye(km.dim, dtype=np.int64)
    inverse[0, 1] = 4
    mixed = GModule(
        algebra=g,
        labels=km.labels,
        parity=km.parity,
        actions=[inverse @ a @ change for a in km.actions],
    )
    mixed.validate()
    n = km.dim * g.dim
    for parity in (0, 1):
        solved = derivation_space(g, mixed, parity)
        columns = _coherent_columns(g, mixed, parity)
        reference = dense_kernel(5, _derivation_system(g, mixed, parity), columns, n)
        assert solved.space == reference
        assert solved.dim == derivation_space(g, km, parity).dim
