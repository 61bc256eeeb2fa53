"""Generalized Hopf links as matrix data.

A link spec is a zero-diagonal epsilon-symmetric decoration matrix together
with the ambient half-dimension n (the link lives in S^{2n-1}), a projection
count k, and the externally supplied order of the relevant homotopy-sphere
group.  This module derives the canonical-framing linking matrix of the
surgered link, provides a brute-force homology-presentation oracle for it,
decides fiberedness admissibility, and produces fiber/link descriptors for
projected and spun links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .exactlinalg import IntMatrix, smith_normal_form
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


@dataclass(frozen=True)
class HopfLinkSpec:
    """Decoration matrix plus dimension data for a generalized Hopf link.

    The link has form.dim + 1 sphere components for k = 0 and is connected
    for k >= 1 (a k-fold projection).  theta is the externally supplied order
    of the group of homotopy (2n-1)-spheres, used only by the admissibility
    report.
    """

    form: BilinearForm
    n: int
    k: int = 0
    theta: int = 1

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("n >= 3 required")
        if self.form.epsilon != (-1) ** self.n:
            raise ValueError(
                f"decoration symmetry sign must be (-1)^n = {(-1) ** self.n} for n = {self.n}"
            )
        if not self.form.has_zero_diagonal():
            raise ValueError("decoration matrix must have zero diagonal")
        if self.form.dim < 1:
            raise ValueError("decoration must be at least 1x1")
        if not 0 <= self.k <= self.n - 1:
            raise ValueError("projection count k must satisfy 0 <= k <= n - 1")
        if self.theta < 1:
            raise ValueError("theta is a positive group order")

    @property
    def d(self) -> int:
        return self.form.dim

    @property
    def components(self) -> int:
        """Number of link components: d + 1 spheres for k = 0, connected otherwise."""
        return self.d + 1 if self.k == 0 else 1


LinkLike = Union[HopfLinkSpec, BilinearForm]


def _as_form(link: LinkLike) -> BilinearForm:
    return link.form if isinstance(link, HopfLinkSpec) else link


# ---------------------------------------------------------------------------
# canonical-framing linking matrix


def derived_linking_matrix(link: LinkLike) -> IntMatrix:
    """Linking matrix of the surgered link in its canonical framing.

    For a unimodular d x d decoration A the result is the (d+1) x (d+1)
    matrix whose interior block (indices 1..d) is A^{-1}, whose first row is
    the negated column sums of A^{-1}, whose corner is the total entry sum of
    A^{-1}, and whose first column is forced by epsilon-symmetry.  Index 0 is
    the preferred component.  Every row sums to zero.
    """
    a = _as_form(link)
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
    """Outcome of the filling presentation for one retained component.

    ``invariant_factors`` are the nonzero elementary divisors of the relation
    matrix and ``free_rank`` the rank of the free part of its cokernel.  The
    group is infinite cyclic exactly when free_rank == 1 and every invariant
    factor is 1; only then is ``linking_vector`` populated (defined up to one
    global sign).
    """

    component: int
    invariant_factors: tuple[int, ...]
    free_rank: int
    linking_vector: Optional[tuple[int, ...]]

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and all(f == 1 for f in self.invariant_factors)

    def group_description(self) -> str:
        parts = ["Z"] * self.free_rank
        parts.extend(f"Z/{f}" for f in self.invariant_factors if f != 1)
        return " + ".join(parts) if parts else "0"


def presentation_oracle(link: LinkLike, s: int) -> PresentationResult:
    """Independent re-derivation of one column of the linking matrix.

    Fill every link component except the s-th by surgery and present the
    middle homology of the result: generators are the meridians mu_0..mu_d
    together with the core classes delta_i of the filling tori; relations
    record that each filled core is homologous to its meridian and that the
    fiber boundary kills the decorated combinations.  The cokernel is
    computed by Smith reduction.  When it is infinite cyclic, the classes of
    the link components (and of the parallel copy of the retained component)
    map to the s-th column of ``derived_linking_matrix`` up to one global
    sign; a different cokernel signals a non-unimodular decoration.
    """
    a = _as_form(link)
    d = a.dim
    if not 0 <= s <= d:
        raise ValueError(f"component index {s} out of range 0..{d}")
    mat = a.matrix

    # generator layout: mu_0..mu_d at 0..d, then delta_i in increasing i
    delta_index: dict[int, int] = {}
    if s != 0:
        delta_owners = [i for i in range(d + 1) if i != s]
    else:
        delta_owners = list(range(1, d + 1))
    for pos, i in enumerate(delta_owners):
        delta_index[i] = d + 1 + pos
    gens = d + 1 + len(delta_owners)

    relations: list[list[int]] = []
    if s != 0:
        rel = [0] * gens
        rel[delta_index[0]] = 1
        for j in range(1, d + 1):
            rel[j] = 1
        relations.append(rel)
        for i in range(1, d + 1):
            if i == s:
                continue
            rel = [0] * gens
            rel[i] = 1
            rel[delta_index[i]] = -1
            relations.append(rel)
        rel = [0] * gens
        rel[0] = 1
        relations.append(rel)
        for i in range(1, d + 1):
            if i == s:
                continue
            rel = [0] * gens
            for j in range(1, d + 1):
                rel[j] = mat.at(i - 1, j - 1)
            relations.append(rel)
    else:
        for i in range(1, d + 1):
            rel = [0] * gens
            rel[i] = 1
            rel[delta_index[i]] = -1
            relations.append(rel)
        for i in range(1, d + 1):
            rel = [0] * gens
            rel[0] = 1
            for j in range(1, d + 1):
                rel[j] += mat.at(i - 1, j - 1)
            relations.append(rel)

    # relation matrix with generators as rows, one column per relation
    rmat = IntMatrix.from_rows([[rel[g] for rel in relations] for g in range(gens)])
    snf = smith_normal_form(rmat)
    factors = snf.invariant_factors()
    rank = len(factors)
    free_rank = gens - rank

    if not (free_rank == 1 and all(f == 1 for f in factors)):
        return PresentationResult(s, factors, free_rank, None)

    # the free coordinate of the cokernel is row `rank` of U
    proj = snf.u.row(rank)

    def image(vec: dict[int, int]) -> int:
        return sum(c * proj[g] for g, c in vec.items())

    linking = []
    for j in range(d + 1):
        if j == 0:
            linking.append(image({t: -1 for t in range(1, d + 1)}))
        else:
            linking.append(image({j: 1}))
    return PresentationResult(s, factors, free_rank, tuple(linking))


def oracle_matches_column(result: PresentationResult, column: tuple[int, ...]) -> bool:
    """True when the oracle vector equals the column up to one global sign."""
    if result.linking_vector is None:
        return False
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
    of S^{n-1} x S^k; coincident Betti indices coalesce additively.
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
