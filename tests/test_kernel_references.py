"""Whole-array F_p kernels against the loop forms they replaced.

Each reference below is the loop form a kernel replaced: per-matrix
elimination for the batched one, a second RREF pass for the kernel readout,
row-by-row elimination for membership, one from_spanning per coset
representative, a loop over inner_derivation for the inner span, and the
dense einsum for the representation law.  Results must be equal, not merely
equivalent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptilde2.cohomology import (
    _coset_representatives,
    derivation_space,
    inner_derivation,
    inner_space,
)
from ptilde2.linalg import FpMatrix, Subspace, _rref_batched, _rref_in_place
from ptilde2.modules import GModule, build_kac_module
from ptilde2.superalgebra import build_p_tilde_2


def random_block(rng, p, kind, rows, cols):
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "random":
        return rng.integers(0, p, size=(rows, cols))
    # full rank min(rows, cols): L @ eye @ U with unit triangular L and U
    lower = np.tril(rng.integers(0, p, size=(rows, rows)), -1) + np.eye(rows, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(cols, cols)), 1) + np.eye(cols, dtype=np.int64)
    return lower @ np.eye(rows, cols, dtype=np.int64) @ upper % p


@st.composite
def ragged_stacks(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["zero", "random", "full"]),
                st.integers(0, 6),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [random_block(rng, p, kind, rows, cols) for kind, rows, cols in specs]
    height = max(b.shape[0] for b in blocks) + draw(st.integers(0, 2))
    width = max(b.shape[1] for b in blocks) + draw(st.integers(0, 2))
    stack = np.zeros((len(blocks), height, width), dtype=np.int64)
    for k, b in enumerate(blocks):
        stack[k, : b.shape[0], : b.shape[1]] = b
    return p, blocks, stack


@settings(max_examples=150, deadline=None)
@given(ragged_stacks())
def test_batched_elimination_matches_per_matrix_rref(case):
    p, blocks, stack = case
    reduced = stack.copy()
    pivot = _rref_batched(reduced, p)
    for k, block in enumerate(blocks):
        ref = block.copy()
        ref_pivots = _rref_in_place(ref, p)
        rows, cols = block.shape
        assert np.nonzero(pivot[k])[0].tolist() == ref_pivots
        assert np.array_equal(reduced[k, :rows, :cols], ref)
        # zero padding stays zero
        assert not reduced[k, rows:].any() and not reduced[k, :, cols:].any()
        padded = stack[k].copy()
        assert _rref_in_place(padded, p) == ref_pivots
        assert np.array_equal(reduced[k], padded)


def nullspace_reference(m):
    # one elimination in the original column order, then a second RREF pass
    a = m.data.copy()
    pivots = _rref_in_place(a, m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for r, c in enumerate(pivots):
            basis[row, c] = (-a[r, f]) % m.p
    return Subspace.from_spanning(m.p, m.cols, basis)


def test_nullspace_matches_two_pass_reference():
    rng = np.random.default_rng(2024)
    for p in (3, 5, 7, 11):
        for _ in range(150):
            rows, cols = int(rng.integers(0, 9)), int(rng.integers(1, 9))
            kind = ["zero", "random", "full"][int(rng.integers(0, 3))]
            m = FpMatrix(p, random_block(rng, p, kind, rows, cols).reshape(rows, cols))
            assert m.nullspace() == nullspace_reference(m)


def contains_reference(space, v):
    w = np.mod(np.asarray(v, dtype=np.int64).reshape(-1), space.p)
    for row in space.basis:
        c = int(np.nonzero(row)[0][0])
        if w[c]:
            w = (w - w[c] * row) % space.p
    return not np.any(w)


def test_residual_membership_matches_row_elimination():
    rng = np.random.default_rng(17)
    for p in (3, 5, 7):
        for _ in range(120):
            n = int(rng.integers(1, 7))
            space = Subspace.from_spanning(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
            other = Subspace.from_spanning(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
            inside = (rng.integers(0, p, size=space.dim) @ space.basis) % p if space.dim else np.zeros(n)
            for v in (rng.integers(0, p, size=n), inside, rng.integers(-3 * p, 3 * p, size=n)):
                assert space.contains(v) == contains_reference(space, v)
            for small, big in ((space, other), (other, space), (space, space + other)):
                expected = all(contains_reference(big, row) for row in small.basis)
                assert small.is_subspace_of(big) == expected


def coset_reference(ider, der):
    span = ider
    reps = []
    for cochain, row in zip(der.basis, der.space.basis):
        if not contains_reference(span, row):
            reps.append(cochain)
            span = span + Subspace.from_spanning(span.p, span.ambient_dim, row[None, :])
    return reps


def inner_space_reference(g, m):
    rows = {0: [], 1: []}
    for r in range(m.dim):
        rows[m.parity[r]].append(inner_derivation(g, m, np.eye(m.dim, dtype=np.int64)[r]).flat())
    n = m.dim * g.dim
    return tuple(
        Subspace.from_spanning(m.p, n, np.stack(rows[s])) if rows[s] else Subspace.zero(m.p, n)
        for s in (0, 1)
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inner_span_and_coset_representatives_match_loops(p):
    g = build_p_tilde_2(p)
    for a in range(p):
        for b in range(p):
            km = build_kac_module(g, a, b)
            ider = inner_space(g, km)
            assert ider == inner_space_reference(g, km)
            for s in (0, 1):
                der = derivation_space(g, km, s)
                got = _coset_representatives(ider[s], der)
                want = coset_reference(ider[s], der)
                assert [c.flat().tolist() for c in got] == [c.flat().tolist() for c in want]


def violations_reference(m):
    g = m.algebra
    a = np.stack(m.actions)
    par = np.asarray(g.parity, dtype=np.int64)
    sign = np.where((par[:, None] * par[None, :]) % 2 == 1, -1, 1).astype(np.int64)
    lhs = np.einsum("ijk,kab->ijab", g.structure, a) % m.p
    prod = np.einsum("iab,jbc->ijac", a, a)
    rhs = (prod - sign[:, :, None, None] * prod.transpose(1, 0, 2, 3)) % m.p
    bad = np.nonzero((lhs - rhs) % m.p)
    return sorted({(int(i), int(j)) for i, j in zip(bad[0], bad[1])})


def test_sparse_representation_law_matches_einsum():
    rng = np.random.default_rng(5)
    cases = caught = 0
    for p in (3, 5, 7):
        g = build_p_tilde_2(p)
        for _ in range(60):
            a, b = (int(x) for x in rng.integers(0, p, size=2))
            km = build_kac_module(g, a, b)
            assert km.representation_violations() == violations_reference(km) == []
            acts = [x.copy() for x in km.actions]
            i = int(rng.integers(0, g.dim))
            r, c = (int(x) for x in rng.integers(0, km.dim, size=2))
            acts[i][r, c] = (acts[i][r, c] + rng.integers(1, p)) % p
            bent = GModule(algebra=g, labels=km.labels, parity=km.parity, actions=acts)
            found = bent.representation_violations()
            assert found == violations_reference(bent)
            cases += 1
            caught += bool(found)
    assert cases == 180 and caught > 90
