"""Generalized Hopf links as matrix data.

A link spec is a zero-diagonal epsilon-symmetric decoration matrix together
with the ambient half-dimension n (the link lives in S^{2n-1}), a projection
count k, and the externally supplied order of the relevant homotopy-sphere
group.  This module derives the canonical-framing linking matrix of the
surgered link, checks the printed matrix against a homology-presentation
oracle (with |det A| = 1 the Tietze-reduced filling presentation of each
component presents an infinite cyclic group whose free coordinate is the
one solution of a system in A: a column of the certified inverse, or for
the first column one product of A with a vector), and decides fiberedness
admissibility.  A white vertex's trivial piece (a disk, a cylinder, or the
filler that caps a projected link) is a ``FiberDescriptor`` of Betti data.
"""

from __future__ import annotations

from functools import cached_property

from .exactlinalg import Frozen, IntMatrix
from .forms import BilinearForm


class FiberDescriptor(Frozen):
    """Rational Betti data of a compact manifold piece: ``betti`` lists b_0 .. b_dim."""

    __slots__ = _fields = ("betti", "boundary_components")

    def __init__(self, betti: tuple[int, ...], boundary_components: int) -> None:
        if any(b < 0 for b in betti):
            raise ValueError("betti numbers are nonnegative")
        if betti and betti[0] < 1:
            raise ValueError("a nonempty piece has b_0 >= 1")
        if boundary_components < 0:
            raise ValueError("boundary component count is nonnegative")
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "boundary_components", boundary_components)

    @property
    def dim(self) -> int:
        return len(self.betti) - 1

    @property
    def euler(self) -> int:
        return sum(b if i % 2 == 0 else -b for i, b in enumerate(self.betti))


def disk(dim: int) -> FiberDescriptor:
    return FiberDescriptor((1,) + (0,) * dim, 1)


def cylinder(dim: int) -> FiberDescriptor:
    """S^{dim-1} x [0, 1]: the trivial connector with two boundary spheres; S^0 x [0, 1] has two components."""
    betti = [1] + [0] * dim
    betti[dim - 1] += 1
    return FiberDescriptor(tuple(betti), 2)


def projection_filler(n: int, k: int, d: int) -> FiberDescriptor:
    """Boundary connected sum of d copies of D^n x S^k.

    Its boundary is the connected sum of d copies of S^{n-1} x S^k, matching
    the link of a k-fold projected spec, so it is the trivial piece that caps
    such a link off.
    """
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    return FiberDescriptor((1,) + (0,) * (k - 1) + (d,) + (0,) * n, 1)


def is_disk(f: FiberDescriptor) -> bool:
    return f.boundary_components == 1 and f.betti == (1,) + (0,) * f.dim


def is_cylinder(f: FiberDescriptor) -> bool:
    return f.boundary_components == 2 and f == cylinder(f.dim)


MAX_N = 10_000  # past this, descriptors of length n + 1 cost seconds and hundreds of megabytes


def check_dimensions(n: int, k: int, theta: int) -> None:
    """The one rule on a link's dimension data; each message leads with the field at fault."""
    if n < 3:
        raise ValueError(f"n: n >= 3 required, got {n}")
    if n > MAX_N:
        raise ValueError(f"n: n <= {MAX_N} required, got {n}")
    if k < 0 or n - k < 2:
        raise ValueError(f"k: need 0 <= k <= n - 2, got {k}")
    if theta < 1:
        raise ValueError("theta: positive integer required")


class HopfLinkSpec(Frozen):
    """Decoration matrix plus dimension data for a generalized Hopf link.

    The link has form.dim + 1 sphere components for k = 0 and is connected
    for k >= 1 (a k-fold projection).  theta is the externally supplied order
    of the group of homotopy (2n-1)-spheres, used only by the admissibility
    report.  ``check_dimensions`` is the rule: 3 <= n <= MAX_N,
    0 <= k <= n - 2 and theta >= 1.
    """

    _fields = ("form", "n", "k", "theta")

    def __init__(self, form: BilinearForm, n: int, k: int = 0, theta: int = 1) -> None:
        check_dimensions(n, k, theta)
        if form.epsilon != (-1) ** n:
            raise ValueError(f"decoration symmetry sign must be (-1)^n = {(-1) ** n} for n = {n}")
        if not form.has_zero_diagonal():
            raise ValueError("decoration matrix must have zero diagonal")
        if form.dim < 1:
            raise ValueError("decoration must be at least 1x1")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return self.form.dim

    @property
    def components(self) -> int:
        """Number of link components: d + 1 spheres for k = 0, connected otherwise."""
        return self.d + 1 if self.k == 0 else 1

    @cached_property
    def linking_matrix(self) -> IntMatrix:
        """``derived_linking_matrix`` of the decoration, built once and kept."""
        return derived_linking_matrix(self.form)


# ---------------------------------------------------------------------------
# canonical-framing linking matrix


def derived_linking_matrix(a: BilinearForm) -> IntMatrix:
    """Linking matrix of the surgered link in its canonical framing.

    For a unimodular d x d decoration A the result is the (d+1) x (d+1)
    matrix whose interior block (indices 1..d) is A^{-1}, whose first row is
    the negated column sums of A^{-1}, whose corner is the total entry sum of
    A^{-1}, and whose first column is forced by epsilon-symmetry.  Index 0 is
    the preferred component.  Every row sums to zero.
    """
    inv = a.inverse  # raises NotUnimodularError otherwise
    d = a.dim
    rows = [inv.row(i) for i in range(d)]
    col_sums = [sum(col) for col in zip(*rows)]
    entries = [sum(col_sums), *(-c for c in col_sums)]
    for c, row in zip(col_sums, rows):
        entries += [-a.epsilon * c, *row]
    return IntMatrix(d + 1, d + 1, tuple(entries))


# ---------------------------------------------------------------------------
# homology-presentation oracle


def presentation_oracle(a: BilinearForm, lk: IntMatrix) -> tuple[bool, ...]:
    """Whether each column of the linking matrix ``lk`` is what the filling presentation of its component gives.

    For component s, fill every other component by surgery and present the
    middle homology of the result: generators mu_0..mu_d (meridians), then
    delta_i (cores of the filled components i != s), relations mu_i - delta_i
    and delta_0 + mu_1 + ... + mu_d (each core is homologous to its meridian)
    and the decorated ones (mu_0 for i = 0, row i of A on mu_1..mu_d plus
    mu_0 when s = 0).  Tietze moves drop the deltas, mu_0 = 0 (s != 0) and
    the delta_0 relation; the rest, completed by the relation set aside (row
    s of A, or mu_0 for s = 0), is a square M_s with det M_s = +-det A.  With
    |det A| = 1 the cokernel is infinite cyclic, and its free coordinate y is
    the unique solution of A y = e_s (s != 0), or of A y = -1 with mu_0 = 1
    (s = 0).  The images of the link components are (-sum y, y), so column s
    is right exactly when lk[0][s] = -sum lk[1:, s] and lk[1:, s] is that y.
    For s != 0, y is column s - 1 of ``a.inverse``, which A A^-1 = I already
    certified, so lk[1:, s] is compared with it; column 0 takes the one
    product, A lk[1:, 0] = -1.  A non-unimodular A raises
    ``NotUnimodularError``, from ``a.inverse``, before any product.
    """
    inv = a.inverse.entries
    d = a.dim
    cols = [lk.entries[d + 1 + s :: d + 1] for s in range(d + 1)]  # lk[1:, s]
    column0_solves = (a.matrix @ IntMatrix(d, 1, cols[0])).entries == (-1,) * d
    return tuple(
        lk.entries[s] == -sum(col) and (col == inv[s - 1 :: d] if s else column0_solves)
        for s, col in enumerate(cols)
    )


# ---------------------------------------------------------------------------
# admissibility


class AdmissibilityReport(Frozen):
    __slots__ = _fields = ("determinant", "unimodular", "skew_rank_even", "admissible", "directly_fibered", "notes")

    def __init__(self, determinant: int, unimodular: bool, skew_rank_even: bool, admissible: bool,
                 directly_fibered: bool, notes: tuple[str, ...]) -> None:
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "unimodular", unimodular)
        object.__setattr__(self, "skew_rank_even", skew_rank_even)
        object.__setattr__(self, "admissible", admissible)
        object.__setattr__(self, "directly_fibered", directly_fibered)
        object.__setattr__(self, "notes", notes)


def admissibility_check(link: HopfLinkSpec) -> AdmissibilityReport:
    """Report whether the decoration yields a fibered link in a genuine sphere.

    Filling is a sphere exactly when the decoration is unimodular.  A skew
    decoration must have even rank (odd skew matrices are singular).  For
    n = 3 the sphere is standard and the link is directly fibered; for n > 3
    the report offers the double construction (decoration A + (-A), giving a
    component count congruent to 1 mod 4) and the theta-fold sum, theta being
    the user-supplied order of the homotopy-sphere group.
    """
    det = link.form.det()
    unimodular = det in (1, -1)
    skew_ok = link.form.epsilon == 1 or link.d % 2 == 0
    admissible = unimodular and skew_ok
    directly = admissible and link.n == 3
    notes: list[str] = []
    if not unimodular:
        notes.append(f"determinant {det}: filling is not a homotopy sphere")
    if not skew_ok:
        notes.append("odd-rank skew decoration is singular; no fibered link")
    if admissible and link.n == 3:
        notes.append("n = 3: the filled sphere is standard, link directly fibered")
    if admissible and link.n > 3:
        doubled = 2 * link.d + 1
        notes.append(
            f"n = {link.n} > 3: double the decoration with its negative for a fibered link "
            f"with {doubled} components ({doubled} = 1 mod 4)"
        )
        notes.append(
            f"alternatively sum theta = {link.theta} copies of the decoration "
            f"({link.theta * link.d + 1} components)"
        )
    return AdmissibilityReport(det, unimodular, skew_ok, admissible, directly, tuple(notes))
