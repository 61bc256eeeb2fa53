import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.exactlinalg import IntMatrix, SymmetryError, det_bareiss, inertia
from hopfcalc.forms import (
    BilinearForm,
    ClassificationError,
    E8_MATRIX,
    EQUIVALENT,
    H_MATRIX,
    INEQUIVALENT,
    UNKNOWN,
    add_preferred_component,
    build_standard,
    classify_indefinite,
    decide_equivalent,
    direct_sum,
    form_type,
    skew,
    symmetric,
    zero_diagonal_model,
)
from hopfcalc.sampling import random_congruence

from test_exactlinalg import det_cofactor


def test_constants():
    assert det_bareiss(E8_MATRIX) == 1
    assert det_bareiss(H_MATRIX) == -1
    assert E8_MATRIX.is_symmetric()
    assert all(E8_MATRIX.at(i, i) % 2 == 0 for i in range(8))


def test_declared_epsilon_is_checked():
    with pytest.raises(SymmetryError):
        BilinearForm(H_MATRIX, -1)
    with pytest.raises(SymmetryError):
        BilinearForm(IntMatrix.from_rows([[0, 1], [-1, 0]]), 1)


@pytest.mark.parametrize(
    "rows, epsilon, message",
    [
        # a nonzero diagonal entry is the first skew failure, at (0,0)
        ([[1, 1], [-1, 0]], -1, "matrix is not skew-symmetric at (0,0)"),
        ([[0, 1], [-1, 3]], -1, "matrix is not skew-symmetric at (1,1)"),
        ([[0, 1, 2], [1, 0, 3], [2, 4, 0]], 1, "matrix is not symmetric at (1,2)"),
        ([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], 1, "matrix is not symmetric at (0,1)"),
    ],
)
def test_symmetry_failure_names_first_entry(rows, epsilon, message):
    with pytest.raises(SymmetryError) as err:
        BilinearForm(IntMatrix.from_rows(rows), epsilon)
    assert str(err.value) == message


class TestFormType:
    def test_e8(self):
        klass = form_type(BilinearForm(E8_MATRIX, 1))
        assert (klass.parity, klass.definiteness, klass.unimodular) == ("even", "positive", True)

    def test_hyperbolic(self):
        klass = form_type(BilinearForm(H_MATRIX, 1))
        assert (klass.parity, klass.definiteness, klass.unimodular) == ("even", "indefinite", True)

    def test_skew_accepted(self):
        f = skew([[0, 1], [-1, 0]])
        assert f.has_zero_diagonal()
        assert form_type(f).unimodular

    def test_odd_parity(self):
        assert form_type(symmetric([[1]])).parity == "odd"

    def test_degenerate(self):
        assert form_type(symmetric([[0, 0], [0, 1]])).definiteness == "degenerate"


class TestClassify:
    def test_e8_plus_h(self):
        assert classify_indefinite(build_standard(1, 1)) == (1, 1)

    def test_h(self):
        assert classify_indefinite(BilinearForm(H_MATRIX, 1)) == (0, 1)

    def test_2e8_3h(self):
        assert classify_indefinite(build_standard(2, 3)) == (2, 3)

    def test_negative_blocks(self):
        assert classify_indefinite(build_standard(-1, 2)) == (-1, 2)

    def test_round_trip(self):
        for p in range(-2, 3):
            for q in range(1, 4):
                assert classify_indefinite(build_standard(p, q)) == (p, q)

    def test_rejects_definite(self):
        with pytest.raises(ClassificationError):
            classify_indefinite(BilinearForm(E8_MATRIX, 1))

    def test_rejects_odd(self):
        with pytest.raises(ClassificationError):
            classify_indefinite(symmetric([[1, 0], [0, -1]]))

    def test_rejects_degenerate(self):
        with pytest.raises(ClassificationError):
            classify_indefinite(symmetric([[0, 0], [0, 0]]))

    def test_bad_signature_certifies_non_unimodular(self):
        # even indefinite with signature 2: cannot be unimodular
        f = symmetric([[2, 0, 0], [0, 2, 0], [0, 0, -2]])
        with pytest.raises(ClassificationError):
            classify_indefinite(f)

    def test_classified_form_type(self):
        from hopfcalc.forms import classified_form_type

        klass = classified_form_type(build_standard(1, 1))
        assert (klass.p, klass.q) == (1, 1)
        assert classified_form_type(BilinearForm(E8_MATRIX, 1)).p is None

    def test_congruence_invariance(self):
        rng = random.Random(17)
        for p, q in [(1, 1), (-1, 1), (0, 2), (1, 2), (0, 1)]:
            seed = build_standard(p, q)
            if seed.dim > 12:
                continue
            for _ in range(20):
                assert classify_indefinite(random_congruence(rng, seed)) == (p, q)


class TestBuildStandard:
    def test_shapes(self):
        assert build_standard(1, 1).dim == 10
        assert build_standard(0, 2).matrix == IntMatrix.block_diagonal([H_MATRIX, H_MATRIX])

    def test_negative_is_negated(self):
        f = build_standard(-1, 1)
        assert inertia(f.matrix).sigma == -8


class TestZeroDiagonalModel:
    def test_no_e8_factor_returns_hyperbolic(self):
        assert zero_diagonal_model(0, 1).matrix == H_MATRIX

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1)])
    def test_postconditions(self, p, q):
        model = zero_diagonal_model(p, q)
        assert model.matrix.has_zero_diagonal()
        assert model.det() in (1, -1)
        assert model.is_even()
        ine = inertia(model.matrix)
        assert ine.sigma == 8 * p
        assert model.dim == 8 * p + 2 * q

    def test_requires_hyperbolic_factor(self):
        with pytest.raises(ValueError):
            zero_diagonal_model(1, 0)

    def test_classifies_back(self):
        assert classify_indefinite(zero_diagonal_model(1, 2)) == (1, 2)

    def test_cross_terms_are_real(self):
        # the isotropic change of basis links the E8 vectors to the first
        # hyperbolic plane and distinct E8 blocks to each other, so the
        # result is deliberately not block diagonal
        m = zero_diagonal_model(1, 1).matrix
        assert [m.at(i, 8) for i in range(8)] == [-1] * 8
        assert [m.at(i, 9) for i in range(8)] == [1] * 8
        m2 = zero_diagonal_model(2, 1).matrix
        assert m2.at(0, 8) == -2


class TestAddPreferredComponent:
    def test_single_zero(self):
        assert add_preferred_component(symmetric([[0]])).matrix == H_MATRIX

    def test_hyperbolic(self):
        out = add_preferred_component(BilinearForm(H_MATRIX, 1))
        assert out.matrix.to_rows() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_skew_sign_convention(self):
        out = add_preferred_component(skew([[0, 0], [0, 0]]))
        assert out.matrix.to_rows() == [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
        assert out.epsilon == -1

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            add_preferred_component(BilinearForm(E8_MATRIX, 1))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=4), st.booleans(), st.data())
    def test_preserves_symmetry_and_zero_diagonal(self, d, sym, data):
        rows = [[0] * d for _ in range(d)]
        eps = 1 if sym else -1
        for i in range(d):
            for j in range(i + 1, d):
                v = data.draw(st.integers(min_value=-3, max_value=3))
                rows[i][j] = v
                rows[j][i] = eps * v
        out = add_preferred_component(BilinearForm(IntMatrix.from_rows(rows), eps))
        assert out.matrix.has_zero_diagonal()
        assert out.matrix.transpose() == out.matrix.scale(eps)

    def test_determinant_consistent_with_cofactor(self):
        corpus = [
            symmetric([[0]]),
            BilinearForm(H_MATRIX, 1),
            symmetric([[0, 2], [2, 0]]),
            symmetric([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]),
        ]
        for f in corpus:
            bordered = add_preferred_component(f).matrix
            assert det_bareiss(bordered) == det_cofactor(bordered)


class TestDecideEquivalent:
    def test_congruent_even_indefinite(self):
        rng = random.Random(23)
        f = build_standard(1, 1)
        for _ in range(5):
            assert decide_equivalent(f, random_congruence(rng, f)) == EQUIVALENT

    def test_rank_mismatch(self):
        assert decide_equivalent(BilinearForm(H_MATRIX, 1), build_standard(1, 1)) == INEQUIVALENT

    def test_definite_pair_is_unknown(self):
        e8 = BilinearForm(E8_MATRIX, 1)
        assert decide_equivalent(e8, e8) == UNKNOWN

    def test_skew_unimodular_same_rank(self):
        j = skew([[0, 1], [-1, 0]])
        j2 = skew([[0, -1], [1, 0]])
        assert decide_equivalent(j, j2) == EQUIVALENT
        assert decide_equivalent(j, direct_sum(j, j2)) == INEQUIVALENT

    def test_skew_non_unimodular_is_unknown(self):
        a = skew([[0, 2], [-2, 0]])
        assert decide_equivalent(a, a) == UNKNOWN

    def test_mixed_signs(self):
        assert decide_equivalent(BilinearForm(H_MATRIX, 1), skew([[0, 1], [-1, 0]])) == INEQUIVALENT
