"""Whole-array and sparse F_p kernels against the forms they replaced.

Each reference below is the form a kernel replaced: per-matrix elimination
for the batched one, a second RREF pass for the kernel readout, row-by-row
elimination for membership, one from_spanning per coset representative, a
loop over inner_derivation for the inner span, the dense einsum for the
representation law, the loop over action entries for the parity split, one
weight read per root weight for the weight spaces, the dense product for
the membership residual, the sweep over every column for the RREF, a
modular_inverse call per pivot for the inverse table, and the subspace sum
WDer + Ider for the weight route's rank modulo Ider.  Results must be
equal, not merely equivalent.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptilde2.cohomology import (
    _coherent_columns,
    _graded_system,
    _h1_batch,
    _independent_modulo,
    _weight_zero_columns,
    derivation_space,
    inner_derivation,
    inner_space,
)
from ptilde2 import linalg
from ptilde2.linalg import (
    FpMatrix,
    Subspace,
    _inverse_table,
    _rref_batched,
    _rref_in_place,
    modular_inverse,
)
from ptilde2.modules import (
    GModule,
    _matching_weight_space,
    basis_module_weights,
    build_kac_module,
    build_simple_module,
    root_target_weights,
    target_weight_space,
    weight_decomposition,
)
from ptilde2.superalgebra import build_p_tilde_2, grade_zero_subalgebra
from dense_reference import kac_actions, simple_actions


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
                got = [der.cochain(k) for k in _independent_modulo(ider[s], der.space.basis)]
                want = coset_reference(ider[s], der)
                assert [c.flat().tolist() for c in got] == [c.flat().tolist() for c in want]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_closed_form_builds_match_the_entry_loops(p):
    g = build_p_tilde_2(p)
    g0 = grade_zero_subalgebra(g)
    for a in range(p):
        for b in range(p):
            km = build_kac_module(g, a, b)
            assert np.array_equal(km.actions, np.stack(kac_actions(g, a, b))), (a, b)
            simple = build_simple_module(g0, a, b)
            assert np.array_equal(simple.actions, np.stack(simple_actions(g0, a, b))), (a, b)


def test_actions_are_read_only_and_their_entries_are_read_once():
    g = build_p_tilde_2(5)
    for m in (build_kac_module(g, 0, 3), build_simple_module(grade_zero_subalgebra(g), 1, 4)):
        assert m.actions.shape == (m.algebra.dim, m.dim, m.dim)
        with pytest.raises(ValueError, match="read-only"):
            m.actions[0, 0, 0] = 1
        *where, values = m.entries
        want = np.nonzero(m.actions)
        assert all(np.array_equal(x, y) for x, y in zip(where, want))
        assert np.array_equal(values, m.actions[want]) and np.all(values != 0)
        assert m.entries is m.entries


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


def parity_violations_reference(m):
    out = []
    for i, act in enumerate(m.actions):
        for r, c in zip(*np.nonzero(act)):
            if m.parity[r] != (m.parity[c] + m.algebra.parity[i]) % 2:
                out.append((i, int(r), int(c)))
    return out


def test_parity_mask_matches_entry_loop():
    rng = np.random.default_rng(11)
    for p in (3, 5, 7):
        g = build_p_tilde_2(p)
        for _ in range(30):
            a, b = (int(x) for x in rng.integers(0, p, size=2))
            km = build_kac_module(g, a, b)
            assert km.parity_violations() == parity_violations_reference(km) == []
            parity = tuple(int(x) for x in rng.integers(0, 2, size=km.dim))
            bent = GModule(algebra=g, labels=km.labels, parity=parity, actions=km.actions)
            assert bent.parity_violations() == parity_violations_reference(bent)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_root_weight_spaces_from_one_weight_read(p):
    g = build_p_tilde_2(p)
    for a in range(p):
        for b in range(p):
            km = build_kac_module(g, a, b)
            weights = np.array(basis_module_weights(km))
            spaces = weight_decomposition(km)
            for w in root_target_weights(p):
                got = _matching_weight_space(p, weights, w)
                assert got == target_weight_space(km, w)
                assert got == spaces.get(w, Subspace.zero(p, km.dim))


def residual_reference(space, rows):
    # the dense product over all ambient columns
    pivots = (space.basis != 0).argmax(axis=1) if space.dim else np.zeros(0, dtype=np.int64)
    return (rows - rows[:, pivots] @ space.basis) % space.p


@pytest.mark.parametrize("p", [3, 7, 101, 65521])
def test_sparse_residual_matches_dense_product(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        span = rng.integers(0, p, size=(int(rng.integers(0, n + 2)), n))
        span[rng.random(span.shape) < 0.6] = 0
        space = Subspace.from_spanning(p, n, span)
        rows = rng.integers(0, p, size=(int(rng.integers(0, 6)), n))
        rows[rng.random(rows.shape) < 0.3] = 0
        rows[:1] = 0
        for probe in (rows, rows[:0], np.zeros((3, n), dtype=np.int64)):
            assert np.array_equal(space._residual(probe), residual_reference(space, probe))
    # the largest terms: (p-1)^2, twenty of them in every non-pivot column
    dense = np.concatenate([np.eye(20, dtype=np.int64), np.full((20, 20), p - 1)], axis=1)
    full = Subspace(p, 40, dense)
    top = np.full((4, 40), p - 1, dtype=np.int64)
    assert np.array_equal(full._residual(top), residual_reference(full, top))
    assert np.array_equal(Subspace.zero(p, 5)._residual(top[:, :5]), top[:, :5])


def test_sparse_residual_in_chunks_matches_dense_product(monkeypatch):
    rng = np.random.default_rng(3)
    for terms in (1, 7, 50):
        monkeypatch.setattr(linalg, "_TERMS_PER_CHUNK", terms)
        for _ in range(20):
            space = Subspace.from_spanning(11, 9, rng.integers(0, 11, size=(4, 9)))
            rows = rng.integers(0, 11, size=(int(rng.integers(0, 8)), 9))
            assert np.array_equal(space._residual(rows), residual_reference(space, rows))


def rref_reference(a, p):
    # the sweep over every column, updating every row at each pivot
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r] = (a[r] * modular_inverse(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a -= np.outer(col, a[r])
            a %= p
        pivots.append(c)
        r += 1
    return pivots


@st.composite
def sparse_wide_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7, 65521]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["blocks", "columns", "zero"]))
    if shape == "zero":
        return p, np.zeros((draw(st.integers(0, 6)), draw(st.integers(0, 12))), dtype=np.int64)
    if shape == "columns":
        rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 16))
        a = rng.integers(0, p, size=(rows, cols))
        a[:, rng.random(cols) < 0.5] = 0
        return p, a
    # block-diagonal, wide, with rows and columns shuffled
    kinds = st.sampled_from(["zero", "random", "full"])
    specs = draw(
        st.lists(
            st.tuples(kinds, st.integers(0, 4), st.integers(0, 7)), min_size=1, max_size=5
        )
    )
    blocks = [random_block(rng, p, kind, rows, cols) for kind, rows, cols in specs]
    a = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        a[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return p, a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


@settings(max_examples=200, deadline=None)
@given(sparse_wide_matrices())
def test_column_skipping_rref_matches_full_sweep(case):
    p, a = case
    got, want = a.copy(), a.copy()
    assert _rref_in_place(got, p) == rref_reference(want, p)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
def test_inverse_table_matches_modular_inverse(p):
    table = _inverse_table(p)
    assert table[0] == 0
    assert table.tolist()[1:] == [modular_inverse(a, p) for a in range(1, p)]


def test_inverse_table_at_the_largest_prime():
    p = 65521
    table = _inverse_table(p)
    for a in [1, 2, 3, 255, 256, 32760, 32761, 65519, 65520] + list(range(40000, 40100)):
        assert table[a] == modular_inverse(a, p)
        assert table[a] * a % p == 1


def flat_weight_route(wder, ider):
    return (wder + ider).dim - ider.dim


def weight_routes(g, km):
    """(rank modulo Ider, flat route, weight-0 block width, dim Ider_0 + dim WDer) per parity."""
    _, wder, ider = _h1_batch(g, [km])[0]
    zero = _weight_zero_columns(_graded_system(g, km))
    for s in (0, 1):
        columns = np.intersect1d(zero, _coherent_columns(g, km, s))
        inside = ~np.delete(ider[s].basis, columns, axis=1).any(axis=1)
        yield (
            len(_independent_modulo(ider[s], wder[s].space.basis)),
            flat_weight_route(wder[s].space, ider[s]),
            columns.size,
            int(inside.sum()) + wder[s].dim,
        )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_weight_zero_route_matches_the_flat_sum(p):
    g = build_p_tilde_2(p)
    cells = [(a, b) for a in range(p) for b in range(p)]
    if p > 7:
        cells = [(a, (a - 1) % p) for a in range(p)]  # top index p - 1
    met = empty = 0
    for a, b in cells:
        for rank, flat, width, meeting in weight_routes(g, build_kac_module(g, a, b)):
            assert rank == flat, (p, a, b)
            empty += width == 0
            met += meeting > 0
    assert met > 0
    if p <= 7:
        assert empty > 0
