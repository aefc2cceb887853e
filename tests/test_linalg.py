import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptilde2.linalg import FpMatrix, Subspace, check_odd_prime, modular_inverse


class TestPrimeGuard:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_accepts_odd_primes(self, p):
        assert check_odd_prime(p) == p

    @pytest.mark.parametrize("p", [0, 1, 2, 4, 6, 9, 15, -5, 21])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            check_odd_prime(p)

    def test_largest_prime_below_the_bound_is_accepted(self):
        assert check_odd_prime(65521) == 65521

    @pytest.mark.parametrize("p", [65537, 2**31 - 1])
    def test_primes_past_the_int64_bound_are_rejected(self, p):
        with pytest.raises(ValueError, match="p < 65536"):
            check_odd_prime(p)


class TestModularInverse:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_inverse_of_every_unit(self, p):
        for a in range(1, p):
            assert (a * modular_inverse(a, p)) % p == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            modular_inverse(0, 5)


class TestRref:
    def test_identity_is_fixed(self):
        m = FpMatrix.identity(5, 3)
        r, rank = m.rref()
        assert r == m
        assert rank == 3

    def test_zero_is_fixed(self):
        m = FpMatrix.zeros(5, 2, 4)
        r, rank = m.rref()
        assert r == m
        assert rank == 0

    def test_dependent_row_eliminated(self):
        # second row is twice the first mod 5
        m = FpMatrix(5, [[1, 2], [2, 4]])
        r, rank = m.rref()
        assert r.tolist() == [[1, 2], [0, 0]]
        assert rank == 1

    def test_idempotent_on_seeded_samples(self):
        rng = np.random.default_rng(20240817)
        cases = 0
        for p in (3, 5, 7):
            for _ in range(120):
                rows, cols = rng.integers(1, 9, size=2)
                m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
                r, rank = m.rref()
                again, rank2 = r.rref()
                assert again == r and rank2 == rank
                cases += 1
        assert cases >= 360


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert FpMatrix.identity(7, 4).nullspace() == Subspace.zero(7, 4)

    def test_zero_matrix_has_full_kernel(self):
        assert FpMatrix.zeros(5, 3, 4).nullspace() == Subspace.full(5, 4)

    def test_single_relation(self):
        # x0 + 2 x1 = 0 over F5, i.e. the span of (3, 1)
        ns = FpMatrix(5, [[1, 2]]).nullspace()
        assert ns.dim == 1
        assert ns == Subspace.from_spanning(5, 2, [[3, 1]])
        solutions = {
            (x0, x1)
            for x0 in range(5)
            for x1 in range(5)
            if (x0 + 2 * x1) % 5 == 0
        }
        members = {(x0, x1) for x0 in range(5) for x1 in range(5) if ns.contains((x0, x1))}
        assert members == solutions

    def test_rank_nullity_on_seeded_samples(self):
        rng = np.random.default_rng(11)
        cases = 0
        for p in (3, 5, 7):
            for _ in range(135):
                rows, cols = rng.integers(1, 9, size=2)
                m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
                assert m.rank() + m.nullspace().dim == int(cols)
                cases += 1
        assert cases >= 400

    def test_matches_exhaustive_enumeration_over_f3(self):
        rng = np.random.default_rng(99)
        cases = 0
        for _ in range(340):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 4))
            m = FpMatrix(3, rng.integers(0, 3, size=(rows, cols)))
            kernel = {
                v
                for v in itertools.product(range(3), repeat=cols)
                if not np.any((m.data @ np.array(v)) % 3)
            }
            members = {
                v for v in itertools.product(range(3), repeat=cols) if m.nullspace().contains(v)
            }
            assert members == kernel
            cases += 1
        assert cases >= 300

    def test_kernel_vectors_solve_the_system(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = FpMatrix(5, rng.integers(0, 5, size=(4, 6)))
            for row in m.nullspace().basis:
                assert not np.any((m.data @ row) % 5)


class TestSubspaceArithmetic:
    def test_sum_with_zero(self):
        a = Subspace.from_spanning(3, 3, [[1, 2, 0]])
        assert a + Subspace.zero(3, 3) == a

    def test_sum_idempotent(self):
        a = Subspace.from_spanning(5, 4, [[1, 2, 3, 4], [0, 1, 1, 1]])
        assert a + a == a

    def test_disjoint_coordinates(self):
        e1 = Subspace.from_spanning(3, 3, [[1, 0, 0]])
        e2 = Subspace.from_spanning(3, 3, [[0, 1, 0]])
        s = e1 + e2
        assert s.dim == 2
        assert s == Subspace.from_spanning(3, 3, [[1, 0, 0], [0, 1, 0]])

    def test_contains_zero_vector(self):
        assert Subspace.zero(5, 3).contains([0, 0, 0])
        assert Subspace.from_spanning(5, 3, [[1, 1, 0]]).contains([0, 0, 0])

    def test_does_not_contain_independent_vector(self):
        e2 = Subspace.from_spanning(5, 2, [[0, 1]])
        assert not e2.contains([1, 0])

    def test_contains_kernel_generator(self):
        ns = FpMatrix(5, [[1, 2]]).nullspace()
        assert ns.contains([3, 1])

    def test_raw_constructor_rejects_non_canonical_basis(self):
        # spans F_3^2, but contains() would judge [1, 0] outside it
        with pytest.raises(ValueError):
            Subspace(3, 2, [[0, 1], [1, 1]])

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0], [0, 0]], [[2, 0]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [1, 0]]],
    )
    def test_raw_constructor_rejects_each_defect(self, rows):
        with pytest.raises(ValueError):
            Subspace(3, 2, rows)

    def test_raw_constructor_accepts_canonical_basis(self):
        s = Subspace(3, 3, [[1, 2, 0], [0, 0, 1]])
        assert s == Subspace.from_spanning(3, 3, [[1, 2, 1], [0, 0, 2]])
        assert Subspace(3, 2, []) == Subspace.zero(3, 2)

    def test_mismatched_ambient_raises(self):
        a = Subspace.zero(5, 3)
        b = Subspace.zero(5, 4)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a.contains([1, 0])

    def test_sum_properties_on_seeded_samples(self):
        rng = np.random.default_rng(5)
        cases = 0
        for p in (3, 5):
            for _ in range(80):
                n = int(rng.integers(2, 6))
                spans = [
                    Subspace.from_spanning(p, n, rng.integers(0, p, size=(rng.integers(0, 3), n)))
                    for _ in range(3)
                ]
                x, y, z = spans
                assert x + y == y + x
                assert (x + y) + z == x + (y + z)
                assert (x + y).dim >= max(x.dim, y.dim)
                cases += 1
        assert cases >= 160

    def test_intersection_against_enumeration_over_f3(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = 3
            x = Subspace.from_spanning(3, n, rng.integers(0, 3, size=(2, n)))
            y = Subspace.from_spanning(3, n, rng.integers(0, 3, size=(2, n)))
            meet = x.intersection(y)
            for v in itertools.product(range(3), repeat=n):
                assert meet.contains(v) == (x.contains(v) and y.contains(v))

    def test_complement_dimension(self):
        s = Subspace.from_spanning(5, 4, [[1, 0, 2, 0], [0, 1, 0, 3]])
        assert s.complement().dim == 2
        assert s.complement().complement() == s


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return FpMatrix(p, entries)


@settings(max_examples=150, deadline=None)
@given(fp_matrices())
def test_property_rref_idempotent(m):
    r, rank = m.rref()
    assert r.rref() == (r, rank)


@settings(max_examples=150, deadline=None)
@given(fp_matrices())
def test_property_rank_nullity(m):
    assert m.rank() + m.nullspace().dim == m.cols
