import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptilde2 import cli, cohomology
from ptilde2.cohomology import (
    Cochain,
    CochainSpace,
    RouteDisagreement,
    SolverFailure,
    _h1_batch,
    _independent_modulo,
    _predicted_by_parity,
    analyze,
    cartan_values_annihilated,
    derivation_residual,
    derivation_space,
    h1,
    inner_derivation,
    inner_space,
    outer_cocycles,
    predict_h1,
    predictor_clauses,
    weight_derivation_space,
    weight_plus_inner_equals_der,
)
from ptilde2.linalg import FpMatrix, Subspace
from ptilde2.modules import build_kac_module, residue
from ptilde2.superalgebra import build_p_tilde_2


@pytest.fixture(scope="module")
def g5():
    return build_p_tilde_2(5)


def unit(n, i):
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


@pytest.mark.parametrize("space", [derivation_space, weight_derivation_space])
@pytest.mark.parametrize("parity", [2, -1])
def test_a_parity_outside_zero_and_one_is_refused(g5, space, parity):
    with pytest.raises(ValueError, match=f"parity must be 0 or 1, got {parity}"):
        space(g5, build_kac_module(g5, 0, 3), parity)


def all_residuals_vanish(g, m, cochain):
    return all(
        not np.any(derivation_residual(g, m, cochain, i, j))
        for i in range(g.dim)
        for j in range(g.dim)
    )


class TestResiduals:
    def test_zero_cochain(self, g5):
        km = build_kac_module(g5, 1, 2)
        zero = Cochain(5, 0, np.zeros((km.dim, 8), dtype=np.int64))
        assert all_residuals_vanish(g5, km, zero)

    def test_inner_cochains_are_derivations(self, g5):
        km = build_kac_module(g5, 2, 4)
        for r in range(km.dim):
            d = inner_derivation(g5, km, unit(km.dim, r))
            assert all_residuals_vanish(g5, km, d)

    def test_cartan_valued_cocycle_on_raising_lowering_pair(self, g5):
        km = build_kac_module(g5, 4, 4)
        (c3,) = outer_cocycles(5, 4, 4)
        i, j = g5.index("alpha"), g5.index("beta")
        assert not np.any(derivation_residual(g5, km, c3, i, j))

    def test_incoherent_cochain_rejected(self, g5):
        km = build_kac_module(g5, 0, 3)
        vals = np.zeros((km.dim, 8), dtype=np.int64)
        vals[km.even_index(0), g5.index("h1")] = 1  # even value on an even element, parity 1
        with pytest.raises(ValueError):
            derivation_residual(g5, km, Cochain(5, 1, vals), 0, 0)


class TestInnerDerivations:
    def test_zero_vector(self, g5):
        km = build_kac_module(g5, 1, 1)
        d = inner_derivation(g5, km, np.zeros(km.dim, dtype=np.int64))
        assert not np.any(d.values)

    def test_values_on_weight_zero_vector(self, g5):
        # v = 1*v2 in K(3, 2): lowering sends it to 1*v3, raising to 1*v1
        km = build_kac_module(g5, 3, 2)
        d = inner_derivation(g5, km, unit(km.dim, km.even_index(2)))
        assert np.array_equal(d.value_on(g5.index("beta")), unit(km.dim, km.even_index(3)))
        assert np.array_equal(d.value_on(g5.index("alpha")), unit(km.dim, km.even_index(1)))

    def test_cartan_kills_top_odd_vector(self, g5):
        # v = g*v0 in K(4, 4): a+1 = 0, so h1 v = 0
        km = build_kac_module(g5, 4, 4)
        d = inner_derivation(g5, km, unit(km.dim, km.odd_index(0)))
        assert not np.any(d.value_on(g5.index("h1")))

    def test_non_homogeneous_rejected(self, g5):
        km = build_kac_module(g5, 0, 3)
        v = unit(km.dim, km.even_index(0)) + unit(km.dim, km.odd_index(0))
        with pytest.raises(ValueError):
            inner_derivation(g5, km, v)

    def test_parity_matches_vector(self, g5):
        km = build_kac_module(g5, 0, 3)
        assert inner_derivation(g5, km, unit(km.dim, km.even_index(1))).parity == 0
        assert inner_derivation(g5, km, unit(km.dim, km.odd_index(1))).parity == 1


class TestInnerSpace:
    def test_trivial_module_has_no_inner_derivations(self, g5):
        from ptilde2.modules import GModule

        triv = GModule(
            algebra=g5,
            labels=("w",),
            parity=(0,),
            actions=[np.zeros((1, 1), dtype=np.int64) for _ in range(8)],
        )
        even, odd = inner_space(g5, triv)
        assert even.dim == 0 and odd.dim == 0

    def test_dimension_by_rank_nullity(self, g5):
        km = build_kac_module(g5, 3, 2)
        even, odd = inner_space(g5, km)
        invariants = FpMatrix(km.p, np.concatenate(km.actions)).nullspace()
        assert even.dim + odd.dim == km.dim - invariants.dim

    def test_inner_inside_derivation_space(self, g5):
        for a, b in [(3, 2), (0, 3), (1, 1)]:
            km = build_kac_module(g5, a, b)
            even, odd = inner_space(g5, km)
            assert even.is_subspace_of(derivation_space(g5, km, 0).space)
            assert odd.is_subspace_of(derivation_space(g5, km, 1).space)


class TestDerivationSpaces:
    def test_all_basis_cochains_have_zero_residuals(self, g5):
        for a, b in [(0, 3), (3, 2), (2, 4)]:
            km = build_kac_module(g5, a, b)
            for parity in (0, 1):
                for c in derivation_space(g5, km, parity).basis:
                    assert all_residuals_vanish(g5, km, c)

    def test_even_part_contains_marked_inner_derivation(self, g5):
        km = build_kac_module(g5, 3, 2)
        d = inner_derivation(g5, km, unit(km.dim, km.even_index(2)))
        assert derivation_space(g5, km, 0).space.contains(d.flat())

    def test_odd_part_contains_both_outer_cocycles(self, g5):
        km = build_kac_module(g5, 0, 3)
        space = derivation_space(g5, km, 1).space
        weight_space = weight_derivation_space(g5, km, 1).space
        for c in outer_cocycles(5, 0, 3):
            assert space.contains(c.flat())
            assert weight_space.contains(c.flat())

    def test_weight_derivations_are_derivations(self, g5):
        for a, b in [(0, 3), (4, 4), (2, 4), (1, 0)]:
            km = build_kac_module(g5, a, b)
            for parity in (0, 1):
                wd = weight_derivation_space(g5, km, parity)
                assert wd.space.is_subspace_of(derivation_space(g5, km, parity).space)

    def test_even_weight_derivations_reduce_to_one_inner_class(self, g5):
        # a+b = 0 with residue(b) strictly inside the lower half: the even
        # weight-derivation space is exactly the line through the inner
        # derivation of the weight-(0,0) basis vector 1*v_res(b)
        km = build_kac_module(g5, 3, 2)
        wd = weight_derivation_space(g5, km, 0)
        d = inner_derivation(g5, km, unit(km.dim, km.even_index(2)))
        assert wd.dim == 1
        assert wd.space.contains(d.flat())

    def test_odd_weight_derivations_reduce_to_one_inner_class(self, g5):
        # a+b = -2 with residue(b) in the lower interval: the odd
        # weight-derivation space is the line through the inner derivation
        # of the odd weight-(0,0) vector g*v_res(b+1)
        km = build_kac_module(g5, 2, 1)
        wd = weight_derivation_space(g5, km, 1)
        d = inner_derivation(g5, km, unit(km.dim, km.odd_index(2)))
        assert wd.dim == 1
        assert wd.space.contains(d.flat())

    def test_weight_derivations_vanish_off_the_four_lines(self):
        for p in (5, 7):
            g = build_p_tilde_2(p)
            allowed = {0, 2, residue(-2, p), residue(-4, p)}
            for a in range(p):
                for b in range(p):
                    if residue(a + b, p) in allowed:
                        continue
                    km = build_kac_module(g, a, b)
                    assert weight_derivation_space(g, km, 0).dim == 0
                    assert weight_derivation_space(g, km, 1).dim == 0


class TestOuterCocycles:
    def test_pair_regime(self):
        cocycles = outer_cocycles(5, 0, 3)
        assert len(cocycles) == 2
        assert all(c.parity == 1 for c in cocycles)

    def test_cartan_valued_regime(self):
        (c3,) = outer_cocycles(5, 4, 4)
        assert c3.parity == 1

    def test_even_regime(self):
        (c4,) = outer_cocycles(5, 2, 4)
        assert c4.parity == 0

    def test_outside_regime_raises(self):
        with pytest.raises(ValueError):
            outer_cocycles(5, 1, 1)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_a_basis_of_h1_per_parity_in_every_regime(self, p):
        g = build_p_tilde_2(p)
        cells = [(a, b) for a in range(p) for b in range(p) if predict_h1(p, a, b)]
        assert len(cells) == 3
        modules = [build_kac_module(g, a, b) for a, b in cells]
        for km, outcome in zip(modules, _h1_batch(g, modules)):
            report, _, ider = outcome
            a, b = km.highest_weight
            want = _predicted_by_parity(p, a, b)
            assert sum(want) == predict_h1(p, a, b) == report.dims.h1_total
            for s in (0, 1):
                rows = [c.flat() for c in outer_cocycles(p, a, b) if c.parity == s]
                assert len(rows) == want[s] == (report.dims.h1_even, report.dims.h1_odd)[s]
                if rows:
                    assert len(_independent_modulo(ider[s], np.stack(rows))) == len(rows)
            assert cli._lemma_findings(km, outcome) == []

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_valid_and_outer_in_every_regime(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                try:
                    cocycles = outer_cocycles(p, a, b)
                except ValueError:
                    continue
                km = build_kac_module(g, a, b)
                even, odd = inner_space(g, km)
                inner_total = even + odd
                for c in cocycles:
                    assert all_residuals_vanish(g, km, c), (p, a, b)
                    assert not inner_total.contains(c.flat()), (p, a, b)


class TestPredictor:
    @pytest.mark.parametrize(
        "p,a,b,expected",
        [(5, 0, 3, 2), (5, 4, 4, 1), (5, 2, 4, 1), (5, 1, 1, 0), (5, 2, 0, 0), (3, 0, 1, 2)],
    )
    def test_values(self, p, a, b, expected):
        assert predict_h1(p, a, b) == expected

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_clauses_never_overlap(self, p):
        for a in range(p):
            for b in range(p):
                assert len(predictor_clauses(p, a, b)) <= 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_cocycles_clauses_and_prediction_agree(self, p):
        for a in range(p):
            for b in range(p):
                clauses = predictor_clauses(p, a, b)
                try:
                    cocycles = outer_cocycles(p, a, b)
                except ValueError:
                    cocycles = None
                assert (cocycles is None) == (not clauses), (p, a, b)
                assert predict_h1(p, a, b) == len(cocycles or []), (p, a, b)


class TestH1:
    @pytest.mark.parametrize(
        "a,b,total", [(0, 3, 2), (4, 4, 1), (2, 4, 1), (1, 1, 0), (2, 0, 0)]
    )
    def test_spot_values(self, a, b, total):
        rep = analyze(5, a, b)
        assert rep.dims.h1_total == total
        assert rep.agrees

    def test_parity_bookkeeping(self):
        rep = analyze(5, 0, 3)
        assert (rep.dims.h1_even, rep.dims.h1_odd) == (0, 2)
        rep = analyze(5, 4, 4)
        assert (rep.dims.h1_even, rep.dims.h1_odd) == (0, 1)
        rep = analyze(5, 2, 4)
        assert (rep.dims.h1_even, rep.dims.h1_odd) == (1, 0)

    def test_dims_identity(self, g5):
        for a, b in [(0, 3), (1, 2), (4, 4)]:
            rep = analyze(5, a, b)
            d = rep.dims
            assert d.h1_total == d.der_even + d.der_odd - d.ider_even - d.ider_odd
            assert d.h1_total >= 0

    def test_representatives_are_outer_derivations(self, g5):
        km = build_kac_module(g5, 0, 3)
        rep = h1(g5, km)
        even, odd = inner_space(g5, km)
        inner_total = even + odd
        assert len(rep.representatives) == rep.dims.h1_total
        for c in rep.representatives:
            assert all_residuals_vanish(g5, km, c)
            assert not inner_total.contains(c.flat())

    def test_distinguished_classes_span_h1_in_pair_regime(self, g5):
        km = build_kac_module(g5, 0, 3)
        rep = h1(g5, km)
        even, odd = inner_space(g5, km)
        der_total = derivation_space(g5, km, 0).space + derivation_space(g5, km, 1).space
        from ptilde2.linalg import Subspace

        cocycles = outer_cocycles(5, 0, 3)
        span = even + odd
        span = span + Subspace.from_spanning(
            5, span.ambient_dim, np.stack([c.flat() for c in cocycles])
        )
        assert span == der_total
        assert rep.dims.h1_total == len(cocycles)

    def test_route_agreement_exhaustive_small_prime(self):
        g = build_p_tilde_2(3)
        for a in range(3):
            for b in range(3):
                h1(g, build_kac_module(g, a, b))  # raises RouteDisagreement on failure

    def test_reports_are_deterministic(self):
        r1 = analyze(5, 0, 3)
        r2 = analyze(5, 0, 3)
        assert [c.values.tolist() for c in r1.representatives] == [
            c.values.tolist() for c in r2.representatives
        ]


def drop_a_kernel_vector(monkeypatch):
    """Make the batched solve lose the last kernel vector of every block that has two or more."""
    kernels = cohomology._reversed_kernels

    def dropped(a, pivot, width, p):
        free_b, free_c, vectors = kernels(a, pivot, width, p)
        starts = np.r_[True, free_b[1:] != free_b[:-1]]
        ends = np.r_[free_b[1:] != free_b[:-1], True]
        keep = starts | ~ends
        return free_b[keep], free_c[keep], vectors[keep]

    monkeypatch.setattr(cohomology, "_reversed_kernels", dropped)


def bend_a_kernel_vector(monkeypatch):
    """Add 1 to the last non-leading nonzero of the last vector of every block with two or more."""
    kernels = cohomology._reversed_kernels

    def bent(a, pivot, width, p):
        free_b, free_c, vectors = kernels(a, pivot, width, p)
        starts = np.r_[True, free_b[1:] != free_b[:-1]]
        ends = np.r_[free_b[1:] != free_b[:-1], True]
        for k in np.flatnonzero(ends & ~starts):
            # in reversed coordinates the leading 1 is the last nonzero
            rest = np.flatnonzero(vectors[k])[:-1]
            if rest.size:
                vectors[k, rest[-1]] = (vectors[k, rest[-1]] + 1) % p
        return free_b, free_c, vectors

    monkeypatch.setattr(cohomology, "_reversed_kernels", bent)


class TestSolverFailures:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_a_lost_weight_zero_vector_raises_solver_failure(self, p, monkeypatch):
        # only the weight-0 blocks have two kernel vectors; without the second
        # reduction of that block, h1 of the top cell reads 1 and agrees with itself
        drop_a_kernel_vector(monkeypatch)
        with pytest.raises(SolverFailure, match="weight-0 block: the two reductions disagree"):
            analyze(p, 0, p - 2)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_a_bent_weight_zero_vector_raises_solver_failure(self, p, monkeypatch):
        # the bent vector keeps the count and the canonical form, so h1 of the top
        # cell still reads 2; only the product with the weight-0 block sees it
        bend_a_kernel_vector(monkeypatch)
        with pytest.raises(SolverFailure, match="weight-0 block: WDer's rows do not solve it"):
            analyze(p, 0, p - 2)

    def test_route_disagreement_is_a_solver_failure(self):
        assert issubclass(RouteDisagreement, SolverFailure)

    def test_route_disagreement_survives_pickling(self):
        import pickle

        exc = RouteDisagreement(5, (0, 3), (0, 2), (0, 1))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is RouteDisagreement
        assert str(back) == str(exc)
        assert (back.p, back.weight, back.der_route, back.weight_route) == (5, (0, 3), (0, 2), (0, 1))


class TestLemmaChecks:
    @pytest.mark.parametrize("p", [3, 5])
    def test_cartan_values_annihilated_everywhere(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                assert cartan_values_annihilated(g, build_kac_module(g, a, b)) == []

    @staticmethod
    def cartan_on_v0(g, km, cartan):
        """The even cochain with phi(h) = 1*v_0 for each h in cartan, zero elsewhere."""
        values = np.zeros((km.dim, g.dim), dtype=np.int64)
        values[km.even_index(0), [g.index(h) for h in cartan]] = 1
        return Cochain(g.p, 0, values)

    def test_cartan_values_not_annihilated_are_found_in_order(self, g5):
        # in K(1, 2), 1*v_0 is moved by gamma (to g*v_0), h1 (by a = 1), h2 (by
        # b = 2) and beta (to 1*v_1): (cochain, x, h), cochain by cochain, h by h
        km = build_kac_module(g5, 1, 2)
        zero = Cochain(5, 0, np.zeros((km.dim, g5.dim)))
        cochains = [zero, self.cartan_on_v0(g5, km, ["h1", "h2"]), zero]
        x = [g5.index(label) for label in ("gamma", "h1", "h2", "beta")]
        h1_idx, h2_idx = g5.index("h1"), g5.index("h2")
        assert x == [0, 1, 2, 4] and g5.cartan == (h1_idx, h2_idx)
        assert cartan_values_annihilated(g5, km, cochains) == [
            (1, i, h) for h in (h1_idx, h2_idx) for i in x
        ]

    def test_the_lemma_suite_reports_cartan_values_not_annihilated(self, g5):
        # K(1, 2) lies in no regime, so the Cartan line is the only finding
        km = build_kac_module(g5, 1, 2)
        report, wder, ider = _h1_batch(g5, [km])[0]
        flat = self.cartan_on_v0(g5, km, ["h1"]).flat()
        bent = {0: CochainSpace(0, Subspace(5, flat.size, flat[None]), wder[0].shape), 1: wder[1]}
        assert cli._lemma_findings(km, (report, wder, ider)) == []
        assert cli._lemma_findings(km, (report, bent, ider)) == [
            "Cartan values not annihilated at (1,2): [(0, 0, 1), (0, 1, 1), (0, 2, 1)]"
        ]

    def test_raising_kills_cartan_value_of_cocycle(self, g5):
        # alpha applied to the value of the Cartan-supported cocycle is zero
        km = build_kac_module(g5, 4, 4)
        (c3,) = outer_cocycles(5, 4, 4)
        val = c3.value_on(g5.index("h1"))
        assert not np.any(km.act(g5.index("alpha"), val))

    @pytest.mark.parametrize("p", [3, 5])
    def test_weight_plus_inner_covers_derivations(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                assert weight_plus_inner_equals_der(g, build_kac_module(g, a, b)), (p, a, b)


class TestSolverAgainstEnumeration:
    """The solver's kernel must coincide with brute-force search over cochains."""

    @pytest.mark.parametrize("a,parity", [(0, 0), (0, 1), (1, 0), (2, 1)])
    def test_exhaustive_enumeration_on_two_dimensional_modules(self, a, parity):
        p = 3
        g = build_p_tilde_2(p)
        km = build_kac_module(g, a, a)  # b = a gives the smallest module, dim 2
        space = derivation_space(g, km, parity).space
        coords = [
            (r, j)
            for r in range(km.dim)
            for j in range(g.dim)
            if km.parity[r] == (g.parity[j] + parity) % 2
        ]
        assert len(coords) == 8
        found = 0
        for values in itertools.product(range(p), repeat=len(coords)):
            mat = np.zeros((km.dim, g.dim), dtype=np.int64)
            for (r, j), v in zip(coords, values):
                mat[r, j] = v
            c = Cochain(p, parity, mat)
            is_der = all_residuals_vanish(g, km, c)
            assert is_der == space.contains(c.flat())
            found += is_der
        assert found == p**space.dim

    @pytest.mark.parametrize("a,b,parity", [(0, 1, 0), (0, 1, 1), (1, 0, 1)])
    def test_random_sampling_on_larger_modules(self, a, b, parity):
        p = 3
        g = build_p_tilde_2(p)
        km = build_kac_module(g, a, b)
        space = derivation_space(g, km, parity).space
        coords = [
            (r, j)
            for r in range(km.dim)
            for j in range(g.dim)
            if km.parity[r] == (g.parity[j] + parity) % 2
        ]
        rng = np.random.default_rng(1234 + a * 10 + b + parity)
        agreements = 0
        for _ in range(400):
            mat = np.zeros((km.dim, g.dim), dtype=np.int64)
            for r, j in coords:
                mat[r, j] = rng.integers(0, p)
            c = Cochain(p, parity, mat)
            assert all_residuals_vanish(g, km, c) == space.contains(c.flat())
            agreements += 1
        # also sample inside the computed space: residuals must vanish there
        for _ in range(100):
            if space.dim == 0:
                break
            combo = (rng.integers(0, p, size=space.dim) @ space.basis) % p
            c = Cochain(p, parity, combo.reshape(km.dim, g.dim))
            assert all_residuals_vanish(g, km, c)
        assert agreements == 400


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    parity=st.integers(0, 1),
    coeffs=st.lists(st.integers(0, 4), min_size=8, max_size=8),
)
def test_property_linear_combinations_stay_derivations(a, b, parity, coeffs):
    g = build_p_tilde_2(5)
    km = build_kac_module(g, a, b)
    basis = derivation_space(g, km, parity).basis
    if not basis:
        return
    combo = np.zeros_like(basis[0].values)
    for c, coeff in zip(basis, coeffs):
        combo = (combo + coeff * c.values) % 5
    assert all_residuals_vanish(g, km, Cochain(5, parity, combo))


def test_closed_form_beyond_the_paper_primes():
    # p = 61: both dimension-1 regimes, the dimension-2 regime and a zero cell
    p = 61
    g = build_p_tilde_2(p)
    expected = {(0, p - 2): 2, (p - 1, p - 1): 1, (p - 3, p - 1): 1, (1, 2): 0}
    for (a, b), dim in expected.items():
        report = h1(g, build_kac_module(g, a, b))
        assert report.dims.h1_total == dim == predict_h1(p, a, b), (a, b)
        assert report.agrees
