import json
import random

import pytest

from hopfcalc.cli import main
from hopfcalc.exactlinalg import AlgorithmMismatchError, Inertia, IntMatrix, SymmetryError, det_bareiss, inertia
from hopfcalc.forms import (
    BilinearForm,
    ClassificationError,
    E8_MATRIX,
    H_MATRIX,
    build_standard,
    classify_indefinite,
    form_type,
    skew,
    symmetric,
    zero_diagonal_model,
)
from hopfcalc.sampling import random_congruence


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
        # even indefinite with signature 2: cannot be unimodular, which the determinant shows first
        f = symmetric([[2, 0, 0], [0, 2, 0], [0, 0, -2]])
        with pytest.raises(ClassificationError, match="form has determinant -8, not unimodular"):
            classify_indefinite(f)

    @pytest.mark.parametrize("form, wrong, message", [
        (build_standard(0, 3), Inertia(5, 1, 0),
         "signature 4 is not divisible by 8; an even unimodular form cannot have it"),
        (build_standard(1, 1), Inertia(17, 1, 0), "rank 10 and signature 16 are incompatible"),
    ], ids=["HHH", "E8H"])
    def test_theorem_check_failure_is_a_fault(self, form, wrong, message, monkeypatch, tmp_path, capsys):
        # an even, nondegenerate, indefinite, unimodular form has a signature divisible by 8 (van der Blij) and
        # rank - |signature| = 2 min(n+, n-) >= 2, so only a wrong inertia fails either check: exit 2, not 0
        monkeypatch.setattr(BilinearForm, "inertia", property(lambda self: wrong))
        with pytest.raises(AlgorithmMismatchError) as err:
            classify_indefinite(form)
        assert str(err.value) == message
        path = tmp_path / "m.json"
        path.write_text(json.dumps(form.matrix.to_rows()))
        assert main(["classify", "--matrix", str(path)]) == 2
        assert capsys.readouterr() == ("", f"internal invariant violation: {message}\n")

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
