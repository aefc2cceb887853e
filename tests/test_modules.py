import itertools

import numpy as np
import pytest

from ptilde2.linalg import Subspace
from ptilde2.modules import (
    GModule,
    RepresentationError,
    basis_module_weights,
    build_kac_module,
    build_simple_module,
    case_table_weight_space,
    gmodule_from_json,
    gmodule_to_json,
    residue,
    residue_comparisons,
    residue_shift_table,
    root_target_weights,
    target_weight_space,
    weight_decomposition,
)
from ptilde2.superalgebra import Weight, build_p_tilde_2, grade_zero_subalgebra


@pytest.fixture(scope="module")
def g5():
    return build_p_tilde_2(5)


@pytest.fixture(scope="module")
def g0_5(g5):
    return grade_zero_subalgebra(g5)


def unit(n, i):
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


class TestResidue:
    def test_zero(self):
        assert residue(0, 5) == 0

    def test_negative_wraps(self):
        assert residue(-1, 5) == 4

    def test_doubling_shift(self):
        # representative 1 for b makes 2b+2 land on 4
        assert residue(2 * 1 + 2, 5) == 4

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_range(self, p):
        for c in range(-2 * p, 2 * p):
            assert 0 <= residue(c, p) < p
            assert (residue(c, p) - c) % p == 0


class TestResidueComparisons:
    def test_low_representative_case(self):
        pairs = residue_comparisons(5, 1)
        lhs, rhs = pairs["b<=2b+2"]
        assert lhs is True and rhs is True

    def test_middle_representative_case(self):
        pairs = residue_comparisons(5, 2)  # (p-1)/2
        lhs, rhs = pairs["b<=2b+2"]
        assert lhs is False and rhs is False

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_all_ten_equivalences(self, p):
        for b in range(p):
            for name, (lhs, rhs) in residue_comparisons(p, b).items():
                assert lhs == rhs, (p, b, name)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_shift_table_closed_forms(self, p):
        for b in range(p):
            for name, (direct, tabulated) in residue_shift_table(p, b).items():
                assert direct == tabulated, (p, b, name)


class TestSimpleModule:
    def test_equal_weights_give_trivial_raising_lowering(self, g0_5):
        m = build_simple_module(g0_5, 2, 2)
        assert m.dim == 1
        assert not np.any(m.actions[g0_5.index("alpha")])
        assert not np.any(m.actions[g0_5.index("beta")])
        assert m.actions[g0_5.index("h1")][0, 0] == 2
        assert m.actions[g0_5.index("h2")][0, 0] == 2

    def test_raising_coefficient(self, g0_5):
        m = build_simple_module(g0_5, 0, 3)
        assert m.dim == 4
        # alpha v2 = 2 (b - a - 2 + 1) v1 = 4 v1
        got = m.act(g0_5.index("alpha"), unit(4, 2))
        assert np.array_equal(got, 4 * unit(4, 1) % 5)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 3), (4, 2), (3, 3)])
    def test_highest_weight_laws(self, g0_5, a, b):
        m = build_simple_module(g0_5, a, b)
        v0 = unit(m.dim, 0)
        assert not np.any(m.act(g0_5.index("alpha"), v0))
        assert np.array_equal(m.act(g0_5.index("h1"), v0), a * v0 % 5)
        assert np.array_equal(m.act(g0_5.index("h2"), v0), b * v0 % 5)

    def test_top_vector_killed_by_lowering(self, g0_5):
        m = build_simple_module(g0_5, 0, 3)
        assert not np.any(m.act(g0_5.index("beta"), unit(4, 3)))

    def test_representation_law_holds(self, g0_5):
        for a in range(5):
            for b in range(5):
                assert build_simple_module(g0_5, a, b).representation_violations() == []


class TestKacModule:
    def test_dimension(self, g5):
        km = build_kac_module(g5, 0, 3)
        assert km.dim == 8
        assert km.top_index == 3
        assert km.parity == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_cartan_action_on_odd_part(self, g5):
        km = build_kac_module(g5, 0, 3)
        v = unit(8, km.odd_index(0))
        assert np.array_equal(km.act(g5.index("h1"), v), 1 * v)
        assert np.array_equal(km.act(g5.index("h2"), v), 4 * v)

    def test_odd_generator_squares_to_zero_on_module(self, g5):
        km = build_kac_module(g5, 0, 3)
        gi = g5.index("gamma")
        for k in range(km.top_index + 1):
            assert not np.any(km.act(gi, unit(8, km.odd_index(k))))

    def test_positive_part_kills_even_half(self, g5):
        km = build_kac_module(g5, 2, 4)
        for lab in ("e13", "e24", "e14+e23"):
            for k in range(km.top_index + 1):
                assert not np.any(km.act(g5.index(lab), unit(km.dim, km.even_index(k))))

    @pytest.mark.parametrize("p", [3, 5])
    def test_representation_law_all_weights(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                km = build_kac_module(g, a, b)
                assert km.representation_violations() == []
                assert km.parity_violations() == []

    def test_spot_representation_law_p7(self):
        g = build_p_tilde_2(7)
        for a, b in [(0, 0), (3, 5), (6, 6), (2, 4)]:
            assert build_kac_module(g, a, b).representation_violations() == []


class TestWeightDecomposition:
    def test_even_basis_weight(self, g5):
        km = build_kac_module(g5, 0, 3)
        spaces = weight_decomposition(km)
        assert spaces[Weight(1, 2)].contains(unit(8, km.even_index(1)))

    def test_odd_basis_weight(self, g5):
        km = build_kac_module(g5, 0, 3)
        spaces = weight_decomposition(km)
        assert spaces[Weight(2, 3)].contains(unit(8, km.odd_index(1)))

    def test_decomposition_is_complete(self, g5):
        for a, b in [(0, 3), (1, 1), (4, 2)]:
            km = build_kac_module(g5, a, b)
            assert sum(s.dim for s in weight_decomposition(km).values()) == km.dim

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_closed_forms(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                km = build_kac_module(g, a, b)
                wts = basis_module_weights(km)
                t = km.top_index
                for k in range(t + 1):
                    assert wts[km.even_index(k)] == (residue(a + k, p), residue(b - k, p))
                    assert wts[km.odd_index(k)] == (
                        residue(a + k + 1, p),
                        residue(b - k + 1, p),
                    )


class TestTargetWeightSpaces:
    def test_zero_space_when_odd_vector_falls_off_the_top(self, g5):
        # a+b = -2 with representative of b at p-2: the candidate odd vector
        # would need index 4 > top index 3, so the weight space is zero
        km = build_kac_module(g5, 0, 3)
        assert target_weight_space(km, Weight(0, 0)) == Subspace.zero(5, 8)

    def test_zero_space_when_interval_condition_fails(self, g5):
        km = build_kac_module(g5, 2, 3)  # a+b = 0, representative 3 too large
        assert target_weight_space(km, Weight(0, 0)) == Subspace.zero(5, km.dim)

    def test_even_vector_found(self, g5):
        km = build_kac_module(g5, 3, 2)  # a+b = 0, representative 2 qualifies
        space = target_weight_space(km, Weight(0, 0))
        assert space == Subspace.from_spanning(5, km.dim, unit(km.dim, km.even_index(2)))

    def test_general_query_allowed(self, g5):
        km = build_kac_module(g5, 0, 3)
        # the highest weight itself is not one of the seven root weights here
        assert target_weight_space(km, Weight(0, 3)).dim == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_case_table_matches_eigenvalue_scan(self, p):
        g = build_p_tilde_2(p)
        for a in range(p):
            for b in range(p):
                km = build_kac_module(g, a, b)
                for w in root_target_weights(p):
                    assert target_weight_space(km, w) == case_table_weight_space(
                        p, a, b, w
                    ), (p, a, b, w)

    def test_non_root_weight_rejected_by_case_table(self):
        with pytest.raises(KeyError):
            case_table_weight_space(5, 0, 3, Weight(2, 2))


@pytest.mark.parametrize("shift", [-5, 10])
def test_actions_are_stored_reduced_mod_p(g5, shift):
    km = build_kac_module(g5, 0, 3)
    actions = [a + shift for a in km.actions]
    m = GModule(algebra=g5, labels=km.labels, parity=km.parity, actions=actions)
    assert np.array_equal(m.actions, km.actions)
    m.validate()


class TestJson:
    def test_round_trip(self, g5):
        km = build_kac_module(g5, 0, 3)
        data = gmodule_to_json(km)
        assert data["p"] == 5
        assert data["lambda"] == [0, 3]
        assert len(data["actions"]) == 8
        assert all(len(m) == 8 for m in data["actions"])
        back = gmodule_from_json(data, g5)
        assert back.labels == km.labels
        assert all(np.array_equal(x, y) for x, y in zip(back.actions, km.actions))

    def test_import_surfaces_representation_failure(self, g5):
        km = build_kac_module(g5, 0, 3)
        data = gmodule_to_json(km)
        data["actions"][g5.index("gamma")][0][0] = 1  # breaks parity blocks and the law
        with pytest.raises(RepresentationError):
            gmodule_from_json(data, g5)

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            ("parity", lambda x: x[:-1], "one parity in"),
            ("parity", lambda x: x + [0, 0], "one parity in"),
            ("parity", lambda x: x[:-1] + [2], "one parity in"),
            ("lambda", lambda x: x[:1], "highest weight must have 2 entries"),
            ("lambda", lambda x: [0.5, 3], "lambda must be integers"),
            ("lambda", lambda x: [], "highest weight must have 2 entries"),
            ("parity", lambda x: [0.7] + x[1:], "parity must be integers"),
            ("actions", lambda x: [[[1.5] + x[0][0][1:]] + x[0][1:]] + x[1:], "actions must be"),
        ],
        ids=[
            "parity-short",
            "parity-long",
            "parity-value",
            "lambda-short",
            "lambda-float",
            "lambda-empty",
            "parity-float",
            "action-float",
        ],
    )
    def test_import_rejects_a_malformed_field(self, g5, field, edit, message):
        data = gmodule_to_json(build_kac_module(g5, 0, 3))
        data[field] = edit(data[field])
        with pytest.raises(ValueError, match=message):
            gmodule_from_json(data, g5)


def test_grid_dimension_identity():
    # sum of dim K over the grid is p^2 (p + 1)
    for p in (3, 5):
        g = build_p_tilde_2(p)
        total = sum(
            build_kac_module(g, a, b).dim for a, b in itertools.product(range(p), repeat=2)
        )
        assert total == p * p * (p + 1)
