"""Generalized Hopf links as matrix data.

A link spec is a zero-diagonal epsilon-symmetric decoration matrix together
with the ambient half-dimension n (the link lives in S^{2n-1}), a projection
count k, and the externally supplied order of the relevant homotopy-sphere
group.  This module derives the canonical-framing linking matrix of the
surgered link, re-derives each of its columns by a homology-presentation
oracle (the Tietze-reduced filling presentation, its free coordinates
read off the certified inverse of the decoration, and every component
certified against its unreduced presentation by sparse checks and one exact
product; with |det A| = 1 that proves each component's group infinite
cyclic, so a result is just the component and its linking vector), decides
fiberedness admissibility, and produces fiber/link descriptors for
projected and spun links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .exactlinalg import AlgorithmMismatchError, IntMatrix
from .forms import BilinearForm


@dataclass(frozen=True)
class FiberDescriptor:
    """Rational Betti data of a compact manifold piece.

    ``betti`` lists b_0 .. b_dim; ``euler`` is the alternating sum, stored
    redundantly and cross-checked on construction.
    """

    betti: tuple[int, ...]
    dim: int
    boundary_components: int
    euler: int

    def __post_init__(self) -> None:
        if self.dim != len(self.betti) - 1:
            raise ValueError("dim must equal len(betti) - 1")
        if any(b < 0 for b in self.betti):
            raise ValueError("betti numbers are nonnegative")
        if self.betti and self.betti[0] < 1:
            raise ValueError("a nonempty piece has b_0 >= 1")
        if self.boundary_components < 0:
            raise ValueError("boundary component count is nonnegative")
        if self.euler != _alternating_sum(self.betti):
            raise ValueError("euler does not match the alternating Betti sum")

    @classmethod
    def from_betti(cls, betti, boundary_components: int) -> "FiberDescriptor":
        betti = tuple(int(b) for b in betti)
        return cls(betti, len(betti) - 1, boundary_components, _alternating_sum(betti))


def _alternating_sum(betti) -> int:
    return sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))


def _from_betti_map(pairs, dim: int, boundary: int) -> FiberDescriptor:
    """Descriptor from (index, count) pairs; counts at the same index add up."""
    betti = [0] * (dim + 1)
    for idx, b in pairs:
        betti[idx] += b
    return FiberDescriptor.from_betti(betti, boundary)


def sphere(dim: int) -> FiberDescriptor:
    if dim < 1:
        raise ValueError("sphere of dimension >= 1")
    return _from_betti_map({0: 1, dim: 1}.items(), dim, 0)


def disk(dim: int) -> FiberDescriptor:
    return _from_betti_map({0: 1}.items(), dim, 1)


def cylinder(dim: int) -> FiberDescriptor:
    """S^{dim-1} x [0, 1]: the trivial connector with two boundary spheres."""
    return _from_betti_map({0: 1, dim - 1: 1}.items(), dim, 2)


def holed_disk(dim: int, holes: int) -> FiberDescriptor:
    """A dim-disk with ``holes`` open sub-disks removed."""
    return _from_betti_map({0: 1, dim - 1: holes}.items(), dim, holes + 1)


def projection_filler(n: int, k: int, d: int) -> FiberDescriptor:
    """Boundary connected sum of d copies of D^n x S^k.

    Its boundary is the connected sum of d copies of S^{n-1} x S^k, matching
    the link of a k-fold projected spec, so it is the trivial piece that caps
    such a link off.
    """
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    return _from_betti_map({0: 1, k: d}.items(), n + k, 1)


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


@dataclass(frozen=True)
class HopfLinkSpec:
    """Decoration matrix plus dimension data for a generalized Hopf link.

    The link has form.dim + 1 sphere components for k = 0 and is connected
    for k >= 1 (a k-fold projection).  theta is the externally supplied order
    of the group of homotopy (2n-1)-spheres, used only by the admissibility
    report.  ``check_dimensions`` is the rule: 3 <= n <= MAX_N,
    0 <= k <= n - 2 and theta >= 1.
    """

    form: BilinearForm
    n: int
    k: int = 0
    theta: int = 1

    def __post_init__(self) -> None:
        check_dimensions(self.n, self.k, self.theta)
        if self.form.epsilon != (-1) ** self.n:
            raise ValueError(
                f"decoration symmetry sign must be (-1)^n = {(-1) ** self.n} for n = {self.n}"
            )
        if not self.form.has_zero_diagonal():
            raise ValueError("decoration matrix must have zero diagonal")
        if self.form.dim < 1:
            raise ValueError("decoration must be at least 1x1")

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
    eps = a.epsilon
    out = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d):
        for j in range(d):
            out[i + 1][j + 1] = inv.at(i, j)
    for j in range(d):
        col_sum = sum(inv.at(t, j) for t in range(d))
        out[0][j + 1] = -col_sum
        out[j + 1][0] = -eps * col_sum
    out[0][0] = sum(inv.entries)
    return IntMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# homology-presentation oracle


@dataclass(frozen=True)
class PresentationResult:
    """Certified outcome of the filling presentation for one component.

    The group is infinite cyclic (the certificate and |det A| = 1 prove it),
    and ``linking_vector`` is its free coordinate on the link components,
    defined up to one global sign.
    """

    component: int
    linking_vector: tuple[int, ...]


def presentation_oracle(a: BilinearForm) -> tuple[PresentationResult, ...]:
    """Independent re-derivation of every column of the linking matrix, one result per component.

    For component s, fill every other component by surgery and present the
    middle homology of the result: generators mu_0..mu_d (meridians), then
    delta_i (cores of the filled components i != s), relations mu_i - delta_i
    and delta_0 + mu_1 + ... + mu_d (each core is homologous to its meridian)
    and the decorated ones (mu_0 for i = 0, row i of A on mu_1..mu_d plus
    mu_0 when s = 0).  Tietze moves drop the deltas, mu_0 = 0 (s != 0) and
    the delta_0 relation; the rest, completed by the relation set aside (row
    s of A, or mu_0 for s = 0), is a square M_s with det M_s = +-det A.  The
    free coordinate y of y M_s = e_last is read off the certified inverse
    (``_coordinates``) and, lifted back to the deltas, certified against the
    unreduced presentation (``_failing_components``): it kills every
    relation and takes 1 on the set-aside one.  With |det A| = 1 that proves
    the cokernel infinite cyclic with y as its coordinate, however y was
    found, so a result holds only the component and its linking vector: the
    images of the link components, column s of ``derived_linking_matrix`` up
    to one global sign.  A non-unimodular A raises ``NotUnimodularError``,
    as ``derived_linking_matrix`` does.
    """
    d = a.dim
    coordinates = _coordinates(a.inverse)
    failed = _failing_components(a.matrix, coordinates)
    if failed:
        raise AlgorithmMismatchError(f"presentation oracle certificate failed for component {failed[0]}")
    return tuple(
        PresentationResult(s, (-sum(x[1 : d + 1]),) + tuple(x[1 : d + 1])) for s, x in enumerate(coordinates)
    )


def _coordinates(inv: IntMatrix) -> list[list[int]]:
    """Free coordinate of each component on mu_0..mu_d, then on delta_i for i != s in increasing i.

    M_s is A with row s last, so y_s is column s - 1 of A^-1 (mu_0 = 0); the
    s = 0 system is mu_0 = 1 with A y' = -1, so y_0 = (1, -A^-1 1).  The
    Tietze moves set delta_i = mu_i and delta_0 = -(mu_1 + ... + mu_d).
    """
    d = inv.rows
    columns = [[-sum(inv.row(i)) for i in range(d)]] + [list(inv.entries[j::d]) for j in range(d)]
    out = []
    for s, column in enumerate(columns):
        mu = [int(s == 0)] + column
        out.append(mu + [mu[i] if i else -sum(column) for i in range(d + 1) if i != s])
    return out


def _failing_components(a: IntMatrix, coordinates: list[list[int]]) -> list[int]:
    """Components whose lifted coordinate fails its unreduced presentation, in increasing order.

    Core relations are checked entry by entry, O(d) per component; decorated
    rows, set-aside ones included, by one product A X, column s of X holding
    component s on mu_1..mu_d.  Component s != 0 needs mu_0 = 0 and column s
    of A X equal to e_s (row s is set aside); component 0 needs mu_0 = 1 (set
    aside) and every row of A to take -mu_0 = -1.
    """
    d = a.rows
    product = (a @ IntMatrix(d, d + 1, tuple(x[i] for i in range(1, d + 1) for x in coordinates))).entries
    failed = []
    for s, x in enumerate(coordinates):
        mu = x[1 : d + 1]
        cores = [mu[i - 1] if i else -sum(mu) for i in range(d + 1) if i != s]
        required = tuple(-1 if s == 0 else int(i == s - 1) for i in range(d))
        if x[0] != int(s == 0) or x[d + 1 :] != cores or product[s :: d + 1] != required:
            failed.append(s)
    return failed


def oracle_matches_column(result: PresentationResult, column: tuple[int, ...]) -> bool:
    """True when the oracle vector equals the column up to one global sign."""
    v = result.linking_vector
    return v == tuple(column) or tuple(-x for x in v) == tuple(column)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    determinant: int
    unimodular: bool
    skew_rank_even: bool
    admissible: bool
    directly_fibered: bool
    notes: tuple[str, ...]


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


# ---------------------------------------------------------------------------
# projection and spinning descriptors


def project_link_descriptor(link: HopfLinkSpec) -> tuple[FiberDescriptor, FiberDescriptor]:
    """(fiber, link) descriptors after k-fold projection.

    k = 0: the fiber is an n-disk with d holes and the link is d+1 disjoint
    (n-1)-spheres.  k >= 1: the fiber is the boundary connected sum of d
    copies of S^{n-1} x D^{k+1} and the link is the connected sum of d copies
    of S^{n-1} x S^k.
    """
    n, k, d = link.n, link.k, link.d
    if k == 0:
        fiber = holed_disk(n, d)
        link_desc = _from_betti_map({0: d + 1, n - 1: d + 1}.items(), n - 1, 0)
        return fiber, link_desc
    fiber = _from_betti_map({0: 1, n - 1: d}.items(), n + k, 1)
    link_desc = _from_betti_map([(0, 1), (k, d), (n - 1, d), (n + k - 1, 1)], n + k - 1, 0)
    return fiber, link_desc


def _torus_times_sphere(k: int, n: int) -> FiberDescriptor:
    """(S^1)^k x S^{n-1}: Betti numbers by the product formula."""
    dim = k + n - 1
    bmap: dict[int, int] = {}
    for j in range(k + 1):
        c = math.comb(k, j)
        bmap[j] = bmap.get(j, 0) + c
        bmap[j + n - 1] = bmap.get(j + n - 1, 0) + c
    return _from_betti_map(bmap.items(), dim, 0)


def spin_link_descriptor(
    link: HopfLinkSpec, i: int, times: int = 1
) -> tuple[FiberDescriptor, tuple[FiberDescriptor, ...]]:
    """Descriptors after spinning component i of a k = 0 link, ``times`` times.

    Spinning once turns component i into an n-sphere and every other
    component into S^1 x S^{n-1}; iterating with the same choice yields one
    S^{n+times-1} plus d copies of (S^1)^times x S^{n-1}.  The fiber is the
    complement in S^{n+times} of a disk neighborhood of the spun component
    and of d thickened tori; its Betti numbers follow by duality and it
    always has Euler characteristic 1.
    """
    if link.k != 0:
        raise ValueError("spinning applies to unprojected (k = 0) links")
    if not 0 <= i <= link.d:
        raise ValueError(f"component index {i} out of range 0..{link.d}")
    if times < 1:
        raise ValueError("times >= 1")
    n, d, k = link.n, link.d, times
    components = [sphere(n + k - 1)] + [_torus_times_sphere(k, n)] * d
    # complement of (point + d tori) in S^{n+k}: duality pairs cohomology of
    # the removed set in degree j with fiber homology in degree n+k-1-j
    bmap: dict[int, int] = {0: 1}
    for j in range(k + 1):
        idx = n + k - 1 - j
        bmap[idx] = bmap.get(idx, 0) + d * math.comb(k, j)
    fiber = _from_betti_map(bmap.items(), n + k, d + 1)
    return fiber, tuple(components)
