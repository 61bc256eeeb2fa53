import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.exactlinalg import (
    AlgorithmMismatchError,
    DimensionError,
    Inertia,
    IntMatrix,
    NotUnimodularError,
    SymmetryError,
    charpoly,
    clear_denominators,
    congruence_apply,
    det_bareiss,
    inertia,
    inertia_charpoly,
    inertia_ldlt,
    inverse_unimodular,
    nullspace_rational,
    smith_normal_form,
)
from hopfcalc.forms import E8_MATRIX, H_MATRIX, build_standard, zero_diagonal_model
from hopfcalc.sampling import random_square, random_symmetric, random_unimodular


def det_cofactor(a: IntMatrix) -> int:
    """Independent determinant oracle by cofactor expansion; small sizes only."""
    n = a.rows
    if n == 0:
        return 1
    if n == 1:
        return a.at(0, 0)
    total = 0
    for j in range(n):
        if a.at(0, j) == 0:
            continue
        minor = IntMatrix.from_rows(
            [[a.at(i, c) for c in range(n) if c != j] for i in range(1, n)]
        )
        total += (-1) ** j * a.at(0, j) * det_cofactor(minor)
    return total


small_square = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestIntMatrix:
    @pytest.mark.parametrize("bad", [1.5, True, Fraction(1), "1"])
    def test_from_rows_rejects_non_int_entries(self, bad):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[0, bad], [bad, 0]])


class TestDeterminant:
    def test_identity(self):
        assert det_bareiss(IntMatrix.identity(3)) == 1

    def test_e8(self):
        assert det_bareiss(E8_MATRIX) == 1

    def test_hyperbolic(self):
        assert det_bareiss(H_MATRIX) == -1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det_bareiss(IntMatrix.zeros(2, 3))

    @settings(deadline=None, max_examples=60)
    @given(small_square)
    def test_matches_cofactor_oracle(self, rows):
        a = IntMatrix.from_rows(rows)
        assert det_bareiss(a) == det_cofactor(a)

    def test_matches_smith_diagonal(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 8)
            a = random_square(rng, n)
            prod = 1
            for x in smith_normal_form(a).diagonal():
                prod *= x
            assert abs(det_bareiss(a)) == abs(prod)


class TestSmithNormalForm:
    def test_hyperbolic(self):
        assert smith_normal_form(H_MATRIX).diagonal() == (1, 1)

    def test_1x1(self):
        assert smith_normal_form(IntMatrix.from_rows([[2]])).diagonal() == (2,)

    def test_already_chain(self):
        assert smith_normal_form(IntMatrix.diagonal([2, 4])).diagonal() == (2, 4)

    def test_postconditions_random(self):
        rng = random.Random(5)
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
            )
            form = smith_normal_form(a)
            assert form.u @ a @ form.v == form.d
            assert det_bareiss(form.u) in (1, -1)
            assert det_bareiss(form.v) in (1, -1)
            diag = form.diagonal()
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if x == 0:
                    assert y == 0
                elif y != 0:
                    assert y % x == 0
            # off-diagonal entries are zero
            for i in range(form.d.rows):
                for j in range(form.d.cols):
                    if i != j:
                        assert form.d.at(i, j) == 0

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4], [0, 2, 10]])
        assert smith_normal_form(a) == smith_normal_form(a)


class TestInverse:
    def test_hyperbolic_is_involution(self):
        assert inverse_unimodular(H_MATRIX) == H_MATRIX

    def test_identity(self):
        assert inverse_unimodular(IntMatrix.identity(4)) == IntMatrix.identity(4)

    def test_e8(self):
        inv = inverse_unimodular(E8_MATRIX)
        assert E8_MATRIX @ inv == IntMatrix.identity(8)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            inverse_unimodular(IntMatrix.diagonal([1, 2]))

    def test_random_unimodular_corpus(self):
        rng = random.Random(2)
        for _ in range(25):
            a = random_unimodular(rng, rng.randint(1, 7))
            assert a @ inverse_unimodular(a) == IntMatrix.identity(a.rows)


class TestNullspace:
    def test_nonsingular_empty(self):
        assert nullspace_rational(E8_MATRIX) == ()

    def test_zero_matrix(self):
        basis = nullspace_rational(IntMatrix.zeros(2, 2))
        assert len(basis) == 2

    def test_bordered_hyperbolic(self):
        # derived linking matrix of the hyperbolic decoration
        a = IntMatrix.from_rows([[2, -1, -1], [-1, 0, 1], [-1, 1, 0]])
        basis = nullspace_rational(a)
        assert basis == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_normalization_and_clearing(self):
        a = IntMatrix.from_rows([[2, 4], [1, 2]])
        (vec,) = nullspace_rational(a)
        assert next(x for x in vec if x) == 1
        assert clear_denominators(vec) == (2, -1)

    def test_dimension_matches_nullity(self):
        rng = random.Random(9)
        for _ in range(40):
            a = random_symmetric(rng, rng.randint(1, 7), bound=3)
            assert len(nullspace_rational(a)) == inertia(a).n_zero


class TestInertia:
    def test_hyperbolic(self):
        assert inertia(H_MATRIX) == Inertia(1, 1, 0)

    def test_e8(self):
        assert inertia(E8_MATRIX) == Inertia(8, 0, 0)

    def test_zero(self):
        assert inertia(IntMatrix.zeros(3, 3)) == Inertia(0, 0, 3)

    def test_requires_symmetry(self):
        with pytest.raises(SymmetryError):
            inertia(IntMatrix.from_rows([[0, 1], [-1, 0]]))

    def test_zero_diagonal_pivot(self):
        # forces the 2x2 pivot path
        a = IntMatrix.from_rows([[0, 3], [3, 0]])
        assert inertia_ldlt(a) == Inertia(1, 1, 0)

    @settings(deadline=None, max_examples=60)
    @given(small_square)
    def test_algorithms_agree(self, rows):
        n = len(rows)
        sym = [[rows[i][j] if i <= j else rows[j][i] for j in range(n)] for i in range(n)]
        a = IntMatrix.from_rows(sym)
        assert inertia_ldlt(a) == inertia_charpoly(a)

    def test_sylvester_rational_congruence(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = random_symmetric(rng, n, bound=4)
            base = inertia(a)
            while True:
                m = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
                # M A M^T and (cM) A (cM)^T differ by c^2 > 0, which preserves inertia
                c = math.lcm(*(x.denominator for row in m for x in row))
                scaled = IntMatrix.from_rows([[int(x * c) for x in row] for row in m])
                if det_bareiss(scaled) != 0:
                    break
            assert inertia(congruence_apply(scaled, a)) == base


class TestCharpoly:
    def test_hyperbolic(self):
        assert charpoly(H_MATRIX) == (1, 0, -1)

    def test_diagonal(self):
        assert charpoly(IntMatrix.diagonal([2, 3])) == (1, -5, 6)

    @settings(deadline=None, max_examples=40)
    @given(small_square)
    def test_constant_term_is_det(self, rows):
        a = IntMatrix.from_rows(rows)
        n = a.rows
        assert charpoly(a)[-1] == (-1) ** n * det_bareiss(a)


class TestCongruence:
    def test_identity(self):
        assert congruence_apply(IntMatrix.identity(8), E8_MATRIX) == E8_MATRIX

    def test_self_congruence_recovers_form(self):
        # for symmetric unimodular A: A A^{-1} A^T = A
        a = build_standard(1, 1).matrix
        inv = inverse_unimodular(a)
        assert congruence_apply(a, inv) == a

    def test_isotropic_change_of_basis(self):
        model = zero_diagonal_model(1, 1)
        assert model.matrix.has_zero_diagonal()
        assert model.dim == 10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            congruence_apply(IntMatrix.identity(2), E8_MATRIX)
