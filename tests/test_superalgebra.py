import numpy as np
import pytest

from ptilde2.linalg import Subspace
from ptilde2.superalgebra import (
    Superalgebra,
    Weight,
    basis_root_weights,
    build_p_tilde_2,
    grade_zero_subalgebra,
    p_tilde_2_matrices,
    root_decomposition,
    superalgebra_from_json,
    superalgebra_to_json,
    supercommutator,
    supermatrix_parity,
    validate_superalgebra,
)


@pytest.fixture(scope="module")
def g5():
    return build_p_tilde_2(5)


@pytest.fixture(scope="module")
def g7():
    return build_p_tilde_2(7)


class TestSupercommutator:
    def test_alpha_beta_gives_cartan_difference(self, g5):
        m = p_tilde_2_matrices(5)
        got = supercommutator(m["alpha"], m["beta"], 5)
        assert np.array_equal(got, (m["h2"] - m["h1"]) % 5)

    def test_odd_generator_squares_to_zero(self, g5):
        m = p_tilde_2_matrices(5)
        assert not np.any(supercommutator(m["gamma"], m["gamma"], 5))

    def test_e13_with_gamma_gives_alpha(self, g7):
        m = p_tilde_2_matrices(7)
        assert np.array_equal(supercommutator(m["e13"], m["gamma"], 7), m["alpha"])

    def test_non_homogeneous_rejected(self):
        m = p_tilde_2_matrices(5)
        with pytest.raises(ValueError):
            supermatrix_parity((m["h1"] + m["gamma"]) % 5)

    def test_parity_detection(self):
        m = p_tilde_2_matrices(5)
        assert supermatrix_parity(m["h1"]) == 0
        assert supermatrix_parity(m["gamma"]) == 1
        assert supermatrix_parity(m["e14+e23"]) == 1
        assert supermatrix_parity(np.zeros((4, 4), dtype=np.int64)) == 0


class TestBuild:
    def test_dimensions_and_parity_split(self, g5):
        assert g5.dim == 8
        assert sum(1 for x in g5.parity if x == 0) == 4
        assert sum(1 for x in g5.parity if x == 1) == 4

    def test_root_values_on_alpha(self, g5):
        # [h1, alpha] = -alpha and [h2, alpha] = alpha
        i, j = g5.index("h1"), g5.index("alpha")
        expected = np.zeros(8, dtype=np.int64)
        expected[j] = 4
        assert np.array_equal(g5.structure[i, j], expected)
        expected[j] = 1
        assert np.array_equal(g5.structure[g5.index("h2"), j], expected)

    def test_root_values_on_gamma(self, g5):
        j = g5.index("gamma")
        expected = np.zeros(8, dtype=np.int64)
        expected[j] = 1
        assert np.array_equal(g5.structure[g5.index("h1"), j], expected)
        assert np.array_equal(g5.structure[g5.index("h2"), j], expected)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_axioms_hold(self, p):
        assert validate_superalgebra(build_p_tilde_2(p)) == []

    def test_structure_matches_matrix_brackets(self, g7):
        mats = p_tilde_2_matrices(7)
        basis = [mats[lab] for lab in g7.labels]
        flat = np.stack([m.reshape(-1) for m in basis], axis=1)
        for i in range(8):
            for j in range(8):
                direct = supercommutator(basis[i], basis[j], 7).reshape(-1)
                assert np.array_equal((flat @ g7.structure[i, j]) % 7, direct), (i, j)

    def test_positive_grade_is_abelian(self, g5):
        plus = [i for i in range(8) if g5.zgrade[i] == 1]
        for i in plus:
            for j in plus:
                assert not np.any(g5.structure[i, j])

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            build_p_tilde_2(4)
        with pytest.raises(ValueError):
            build_p_tilde_2(2)


class TestRootDecomposition:
    def test_seven_weights_with_expected_multiplicities(self, g7):
        decomp = root_decomposition(g7)
        assert len(decomp) == 7
        assert sorted(s.dim for s in decomp.values()) == [1, 1, 1, 1, 1, 1, 2]
        assert sum(s.dim for s in decomp.values()) == 8

    def test_zero_weight_is_the_cartan(self, g7):
        decomp = root_decomposition(g7)
        zero = decomp[Weight(0, 0)]
        assert zero.dim == 2
        eye = np.eye(8, dtype=np.int64)
        assert zero.contains(eye[g7.index("h1")])
        assert zero.contains(eye[g7.index("h2")])

    def test_e13_sits_at_minus_two_epsilon1(self, g7):
        decomp = root_decomposition(g7)
        space = decomp[Weight(5, 0)]  # -2 mod 7
        assert space == Subspace.from_spanning(7, 8, np.eye(8, dtype=np.int64)[g7.index("e13")])

    def test_gamma_sits_at_epsilon1_plus_epsilon2(self, g7):
        decomp = root_decomposition(g7)
        assert decomp[Weight(1, 1)].contains(np.eye(8, dtype=np.int64)[g7.index("gamma")])

    def test_basis_weights_match_decomposition(self, g5):
        weights = basis_root_weights(g5)
        assert weights[g5.index("beta")] == Weight(1, 4)
        assert weights[g5.index("e24")] == Weight(0, 3)
        assert weights[g5.index("e14+e23")] == Weight(4, 4)


class TestValidatorDefects:
    def _tiny(self, structure, parity=(0, 0), zgrade=(0, 0)):
        return Superalgebra(
            p=5,
            labels=("x", "y"),
            parity=parity,
            zgrade=zgrade,
            structure=np.asarray(structure, dtype=np.int64),
            cartan=(0, 1),
        )

    def test_planted_symmetry_defect_reported(self):
        c = np.zeros((2, 2, 2), dtype=np.int64)
        c[0, 1, 0] = 1
        c[1, 0, 0] = 1  # should be -1 for an even/even pair
        report = self._tiny(c)
        kinds = {v.kind for v in validate_superalgebra(report)}
        assert "skew" in kinds

    def test_planted_parity_defect_reported(self):
        c = np.zeros((2, 2, 2), dtype=np.int64)
        c[0, 0, 1] = 1  # even bracket even landing on an odd vector
        g = self._tiny(c, parity=(0, 1))
        kinds = {v.kind for v in validate_superalgebra(g)}
        assert "parity" in kinds

    def test_planted_grading_defect_reported(self):
        c = np.zeros((2, 2, 2), dtype=np.int64)
        c[0, 1, 0] = 1
        c[1, 0, 0] = 4
        g = self._tiny(c, zgrade=(1, 1))  # grades add to 2, no grade-2 vector
        kinds = {v.kind for v in validate_superalgebra(g)}
        assert "grading" in kinds

    def test_odd_cartan_reported(self):
        g = Superalgebra(
            p=5,
            labels=("x", "h"),
            parity=(1, 0),
            zgrade=(0, 0),
            structure=np.zeros((2, 2, 2), dtype=np.int64),
            cartan=(0, 1),
        )
        kinds = {v.kind for v in validate_superalgebra(g)}
        assert "cartan_parity" in kinds


class TestGradeZeroPart:
    def test_is_the_expected_four_dimensional_algebra(self, g5):
        g0 = grade_zero_subalgebra(g5)
        assert g0.labels == ("h1", "h2", "alpha", "beta")
        assert g0.parity == (0, 0, 0, 0)
        assert validate_superalgebra(g0) == []
        assert g0.cartan == (0, 1)

    def test_bracket_restricts(self, g5):
        g0 = grade_zero_subalgebra(g5)
        # [alpha, beta] = h2 - h1 survives the restriction
        got = g0.structure[g0.index("alpha"), g0.index("beta")]
        expected = np.zeros(4, dtype=np.int64)
        expected[g0.index("h1")] = 4
        expected[g0.index("h2")] = 1
        assert np.array_equal(got, expected)


class TestJson:
    def test_round_trip(self, g5):
        data = superalgebra_to_json(g5)
        back = superalgebra_from_json(data)
        assert back.labels == g5.labels
        assert back.parity == g5.parity
        assert back.zgrade == g5.zgrade
        assert back.cartan == g5.cartan
        assert np.array_equal(back.structure, g5.structure)

    def test_import_validates(self, g5):
        data = superalgebra_to_json(g5)
        corrupted = [row[:] for row in data["structure"]]
        corrupted[0][0][1] = 3  # [gamma, gamma] suddenly nonzero on h1
        data["structure"] = corrupted
        with pytest.raises(ValueError):
            superalgebra_from_json(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("zgrade", [-1, 0, 0, 0, 0, 1, 1], "one Z-grade per basis element"),
            ("parity", [1, 0, 0, 0, 0, 1, 1], "one parity in"),
            ("parity", [1, 0, 0, 0, 0, 1, 1, 2], "one parity in"),
            ("cartan", [1], "two Cartan indices"),
            ("cartan", [1, 9], "two Cartan indices"),
            ("p", 5.5, "p must be integers"),
            ("p", "5", "p must be integers"),
            ("p", 2**70, "p must be integers"),
            ("cartan", [1.9, 2], "cartan must be integers"),
            ("parity", [True, False, False, False, False, True, True, True], "parity must be"),
            ("parity", [1.0, 0, 0, 0, 0, 1, 1, 1], "parity must be"),
            ("zgrade", [-1.5, 0, 0, 0, 0, 1, 1, 1], "zgrade must be"),
            (
                "structure",
                [
                    [[0.5 if i == j == k == 0 else 0 for k in range(8)] for j in range(8)]
                    for i in range(8)
                ],
                "structure must be",
            ),
            ("labels", "abcdefgh", "labels must be a list of distinct strings"),
            ("labels", list(range(8)), "labels must be a list of distinct strings"),
            ("labels", ["x"] * 8, "labels must be a list of distinct strings"),
        ],
        ids=[
            "zgrade-short",
            "parity-short",
            "parity-value",
            "cartan-short",
            "cartan-range",
            "p-float",
            "p-string",
            "p-past-int64",
            "cartan-float",
            "parity-bool",
            "parity-float",
            "zgrade-float",
            "structure-float",
            "labels-string",
            "labels-integers",
            "labels-repeated",
        ],
    )
    def test_import_rejects_a_malformed_field(self, g5, field, value, message):
        data = superalgebra_to_json(g5)
        data[field] = value
        with pytest.raises(ValueError, match=message):
            superalgebra_from_json(data)


def test_bracket_outside_the_span_is_refused(monkeypatch):
    from ptilde2 import superalgebra

    # the identity matrix lies outside the span of the 8 basis matrices
    def outside(x, y, p):
        return np.eye(4, dtype=np.int64) if x is y else supercommutator(x, y, p)

    monkeypatch.setattr(superalgebra, "supercommutator", outside)
    with pytest.raises(RuntimeError, match="left the span"):
        build_p_tilde_2(5)
