"""Integral epsilon-symmetric bilinear forms.

A form is a square integer matrix together with a declared symmetry sign:
+1 for symmetric, -1 for skew.  This module provides type detection, the
classification of indefinite even unimodular symmetric forms as a sum of
E8 blocks and hyperbolic planes, standard-form constructors and the
zero-diagonal model obtained from an isotropic change of basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exactlinalg import (
    AlgorithmMismatchError,
    Congruence,
    DimensionError,
    Frozen,
    Inertia,
    IntMatrix,
    SymmetryError,
    congruence_apply,
)


class ClassificationError(ValueError):
    """The form is outside the domain of the even indefinite classification."""


# The rank-8 even positive definite unimodular lattice (Cartan matrix) and
# the rank-2 hyperbolic plane.
E8_MATRIX = IntMatrix.from_rows(
    [
        [2, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 1, 0, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 0, 0],
        [0, 0, 1, 2, 1, 0, 0, 0],
        [0, 0, 0, 1, 2, 1, 0, 1],
        [0, 0, 0, 0, 1, 2, 1, 0],
        [0, 0, 0, 0, 0, 1, 2, 0],
        [0, 0, 0, 0, 1, 0, 0, 2],
    ]
)

H_MATRIX = IntMatrix.from_rows([[0, 1], [1, 0]])


class BilinearForm(Frozen):
    """Square integer matrix with symmetry sign epsilon in {+1, -1}.

    The form is immutable, so its one elimination, the congruence
    ``X A X^T = D``, runs the first time a fact is asked for and is kept.
    Determinant, integer inverse, inertia and kernel are all read from it.
    """

    _fields = ("matrix", "epsilon")

    def __init__(self, matrix: IntMatrix, epsilon: int) -> None:
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not matrix.is_square:
            raise DimensionError("bilinear form matrix must be square")
        m = matrix
        if not (m.is_symmetric() if epsilon == 1 else m.is_skew_symmetric()):
            # the first failing (i, j), i <= j, is located only on failure; j = i covers a skew diagonal
            i, j = next((i, j) for i in range(m.rows) for j in range(i, m.cols) if m.at(j, i) != epsilon * m.at(i, j))
            raise SymmetryError(f"matrix is not {'symmetric' if epsilon == 1 else 'skew-symmetric'} at ({i},{j})")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def _congruence(self) -> Congruence:
        return Congruence(self.matrix, self.epsilon)

    @property
    def inertia(self) -> Inertia:
        """Certified inertia of a symmetric form; raises SymmetryError for a skew one."""
        return self._congruence.inertia

    @property
    def kernel(self) -> tuple[tuple[Fraction, ...], ...]:
        """Certified rational kernel, as ``exactlinalg.nullspace_rational`` orders and normalizes it."""
        return self._congruence.kernel

    @property
    def inverse(self) -> IntMatrix:
        """Verified integer inverse; raises NotUnimodularError unless det = +-1."""
        return self._congruence.inverse

    def det(self) -> int:
        return self._congruence.det

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def is_even(self) -> bool:
        return all(self.matrix.at(i, i) % 2 == 0 for i in range(self.dim))

    def has_zero_diagonal(self) -> bool:
        return self.matrix.has_zero_diagonal()


class FormClass(Frozen):
    """Coarse invariants of a form; (p, q) only for even indefinite unimodular."""

    __slots__ = _fields = ("parity", "definiteness", "unimodular", "p", "q")

    def __init__(self, parity: str, definiteness: str, unimodular: bool,
                 p: int | None = None, q: int | None = None) -> None:
        object.__setattr__(self, "parity", parity)  # "even" | "odd"
        object.__setattr__(self, "definiteness", definiteness)  # "positive" | "negative" | "indefinite" | "degenerate"
        object.__setattr__(self, "unimodular", unimodular)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def symmetric(rows) -> BilinearForm:
    return BilinearForm(IntMatrix.from_rows(rows), 1)


def skew(rows) -> BilinearForm:
    return BilinearForm(IntMatrix.from_rows(rows), -1)


def direct_sum(*forms: BilinearForm) -> BilinearForm:
    if not forms:
        raise ValueError("empty direct sum")
    eps = forms[0].epsilon
    if any(f.epsilon != eps for f in forms):
        raise SymmetryError("direct sum of forms with mixed symmetry signs")
    return BilinearForm(IntMatrix.block_diagonal([f.matrix for f in forms]), eps)


def form_type(f: BilinearForm) -> FormClass:
    """Parity, definiteness and unimodularity of a form.

    Skew forms are accepted; their quadratic form vanishes identically, so
    the reported definiteness is "degenerate" when singular and "indefinite"
    otherwise (a nonsingular skew form pairs every vector against another).
    """
    parity = "even" if f.is_even() else "odd"
    uni = f.is_unimodular()
    if f.epsilon == -1:
        definiteness = "degenerate" if f.det() == 0 else "indefinite"
        return FormClass(parity, definiteness, uni)
    ine = f.inertia
    if ine.n_zero > 0:
        definiteness = "degenerate"
    elif ine.n_minus == 0:
        definiteness = "positive"
    elif ine.n_plus == 0:
        definiteness = "negative"
    else:
        definiteness = "indefinite"
    return FormClass(parity, definiteness, uni)


def classified_form_type(f: BilinearForm) -> FormClass:
    """form_type with (p, q) filled in when the classification applies."""
    base = form_type(f)
    try:
        p, q = classify_indefinite(f)
    except ClassificationError:
        return base
    return FormClass(base.parity, base.definiteness, base.unimodular, p, q)


def classify_indefinite(f: BilinearForm) -> tuple[int, int]:
    """Classify an even indefinite unimodular symmetric form as (p, q).

    The form is equivalent to p copies of the E8 block (negated when p < 0)
    plus q hyperbolic planes; signature = 8p, rank = 8|p| + 2q, q >= 1.
    Anything outside that domain raises ClassificationError.  Inside it, a
    signature off 8Z (van der Blij) or a rank below 8|p| + 2 can only come
    from a wrong determinant, inertia or parity: AlgorithmMismatchError.
    """
    if f.epsilon != 1:
        raise ClassificationError("classification applies to symmetric forms only")
    if not f.is_even():
        raise ClassificationError("classification applies to even forms only")
    ine = f.inertia
    if ine.n_zero > 0:
        raise ClassificationError("form is degenerate")
    if ine.n_plus == 0 or ine.n_minus == 0:
        raise ClassificationError("form is definite; classification does not apply")
    if not f.is_unimodular():
        raise ClassificationError(f"form has determinant {f.det()}, not unimodular")
    sigma = ine.sigma
    if sigma % 8 != 0:
        raise AlgorithmMismatchError(
            f"signature {sigma} is not divisible by 8; an even unimodular form cannot have it"
        )
    p = sigma // 8
    q, rem = divmod(f.dim - 8 * abs(p), 2)
    if rem or q < 1:
        raise AlgorithmMismatchError(f"rank {f.dim} and signature {sigma} are incompatible")
    return p, q


def build_standard(p: int, q: int) -> BilinearForm:
    """Block sum of |p| copies of sign(p) * E8 and q hyperbolic planes."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    blocks = []
    e8 = E8_MATRIX if p >= 0 else E8_MATRIX.scale(-1)
    blocks.extend([e8] * abs(p))
    blocks.extend([H_MATRIX] * q)
    if not blocks:
        return BilinearForm(IntMatrix(0, 0, ()), 1)
    return BilinearForm(IntMatrix.block_diagonal(blocks), 1)


def zero_diagonal_model(p: int, q: int) -> BilinearForm:
    """Zero-diagonal form congruent to p E8 blocks plus q hyperbolic planes.

    Applies the isotropic change of basis e' = e + f1 - f2 (f1, f2 the basis
    of the first hyperbolic plane) to every E8 basis vector and returns the
    full Gram matrix of the new basis.  The result is even, unimodular, has
    zero diagonal and signature 8p.  Note the change of basis introduces
    cross terms between the E8 blocks and the first hyperbolic plane (and
    between distinct E8 blocks), so the result is not block diagonal.
    """
    if q < 1:
        raise ValueError("q >= 1 required: a hyperbolic factor supplies the isotropic vectors")
    if p < 0:
        raise ValueError("p must be nonnegative")
    base = build_standard(p, q)
    n = base.dim
    f1, f2 = 8 * p, 8 * p + 1  # first hyperbolic plane
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(8 * p):
        rows[i][f1] += 1
        rows[i][f2] -= 1
    m = IntMatrix.from_rows(rows)
    return BilinearForm(congruence_apply(m, base.matrix), 1)
