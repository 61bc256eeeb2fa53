"""Headline invariants of glued blocks and closed manifolds.

Assembles the middle-dimension intersection form of a decorated graph from
the canonical-framing linking matrices of its black vertices, analyzes its
inertia and kernel, computes Euler characteristics of the glued closed
manifolds, emits the canonical homology-rank tables, and derives bounds on
the minimal number of critical points of maps to spheres, including the
product bounds coming from the group structure on S^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .exactlinalg import AlgorithmMismatchError, Inertia, IntMatrix
from .forms import BilinearForm
from .graphmodel import (
    BlackVertex,
    DecoratedGraph,
    UnsupportedShapeError,
    WhiteVertex,
    _incidences,
    assemble_global_fiber,
)
from .hopflink import (
    HopfLinkSpec,
    check_dimensions,
    is_disk,
    projection_filler,
)

EVEN_K0 = "even-k0"
EVEN_KPOS = "even-kpos"
ODD_K0 = "odd-k0"
ODD_KPOS = "odd-kpos"
FAMILIES = (EVEN_K0, EVEN_KPOS, ODD_K0, ODD_KPOS)


# ---------------------------------------------------------------------------
# cup-product form assembly


def assemble_cup_form(graphs: Sequence[DecoratedGraph]) -> BilinearForm:
    """Intersection form of the glued block, indexed by all edges.

    Entry (e, f) sums, over every black vertex shared by e and f, the
    canonical-framing linking number of the components assigned to e and f
    there; disjoint edges pair to zero and white vertices contribute nothing.
    Parallel edges pick up both endpoints, and the diagonal applies the same
    rule at both ends of an edge.  Requires unprojected (k = 0) graphs with
    unimodular decorations.
    """
    if not graphs:
        raise ValueError("empty graph family")
    eps = None
    blocks: list[IntMatrix] = []
    for graph in graphs:
        n, k = graph.dimensions
        if k != 0:
            raise UnsupportedShapeError("edge-indexed cup form applies to unprojected graphs")
        if eps is None:
            eps = (-1) ** n
        elif eps != (-1) ** n:
            raise UnsupportedShapeError("graphs in a family must share the symmetry sign")
        m = len(graph.edges)
        block = [[0] * m for _ in range(m)]
        inc = _incidences(graph)
        for v_idx, v in enumerate(graph.vertices):
            if not isinstance(v, BlackVertex):
                continue
            lk = v.link.linking_matrix
            here = inc[v_idx]
            for e_idx, e_comp in here:
                for f_idx, f_comp in here:
                    block[e_idx][f_idx] += lk.at(e_comp, f_comp)
        blocks.append(IntMatrix(m, m, tuple(chain.from_iterable(block))))
    assert eps is not None
    return BilinearForm(IntMatrix.block_diagonal(blocks), eps)


def assemble_cup_form_k(graph: DecoratedGraph) -> BilinearForm:
    """Intersection form of a projected (k >= 1) graph, read from ``graph.projected``.

    Indexed by 1..d.  With two black vertices the form is the sum of the two
    interior blocks of the canonical linking matrices, i.e. the sum of the
    inverses of the decorations; with a black and a white vertex it is the
    inverse of the single decoration.  The restriction to the interior block
    is this artifact's resolution of the edge indexing for projected links;
    it preserves the signature of the decoration.  ``projected_pair`` is the
    one rule for the shape (k >= 1, one edge, equal decoration sizes).
    """
    v_link, w = graph.projected
    inv_v = v_link.form.inverse
    if isinstance(w, HopfLinkSpec):
        return BilinearForm(inv_v + w.form.inverse, v_link.form.epsilon)
    return BilinearForm(inv_v, v_link.form.epsilon)


def cup_form_for_family(graphs: Sequence[DecoratedGraph], k: int) -> BilinearForm:
    """Dispatch a graph family to the right cup-form assembly.

    Unprojected (k = 0) families use the edge-indexed form; a projected
    family must be a single graph of a shape ``projected_pair`` accepts.
    """
    if k == 0:
        return assemble_cup_form(graphs)
    if len(graphs) != 1:
        raise UnsupportedShapeError("projected families support a single graph")
    return assemble_cup_form_k(graphs[0])


@dataclass(frozen=True)
class CupFormAnalysis:
    inertia: Optional[Inertia]  # None for skew forms
    kernel_basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        # both come from the form's one certified congruence; they must still agree
        if self.inertia is not None and self.inertia.n_zero != self.kernel_dim:
            raise AlgorithmMismatchError("inertia nullity must match the kernel dimension")

    @property
    def sigma(self) -> int:
        """Signature; zero by convention for a skew form."""
        return 0 if self.inertia is None else self.inertia.sigma

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)


def analyze_cup_form(f: BilinearForm) -> CupFormAnalysis:
    """Inertia, signature and rational kernel of an assembled form.

    The signature of a skew form is zero by convention; its kernel is still
    computed (left and right kernels coincide for epsilon-symmetric forms).
    """
    return CupFormAnalysis(f.inertia if f.epsilon == 1 else None, f.kernel)


# ---------------------------------------------------------------------------
# Euler characteristics


def _sphere_euler(dim: int) -> int:
    return 1 + (-1) ** dim


def euler_characteristic(graphs: Sequence[DecoratedGraph], n: int, k: int) -> int:
    """Euler characteristic of the closed manifold glued from a graph family.

    chi = chi(S^{n-k}) * chi(F) + (-1)^n * t, where F is the common generic
    fiber and t the total handle count.  All graphs must agree on the fiber
    (equal loop count g and equal chi(F)).
    """
    if not graphs:
        raise ValueError("empty graph family")
    fibers = []
    gs = []
    t = 0
    for graph in graphs:
        gn, gk = graph.dimensions
        if (gn, gk) != (n, k):
            raise ValueError(f"graph has dimensions (n, k) = ({gn}, {gk}), expected ({n}, {k})")
        counts = graph.counts
        gs.append(counts.g)
        t += counts.t
        fibers.append(assemble_global_fiber(graph))
    if len(set(gs)) > 1:
        raise UnsupportedShapeError(f"graphs have mismatched loop counts {gs}; fibers cannot agree")
    if len({f.euler for f in fibers}) > 1:
        raise UnsupportedShapeError("graphs have mismatched fiber Euler characteristics")
    return _sphere_euler(n - k) * fibers[0].euler + (-1) ** n * t


# ---------------------------------------------------------------------------
# canonical homology tables


def canonical_homology_ranks(family: str, n: int, k: int, d: int) -> dict[int, int]:
    """Rational homology ranks of the canonical one-singularity manifolds.

    Four families: a 2n-manifold from an unprojected tree (middle rank d+2)
    or from a projected black-white graph (ranks 1, d, 1 in degrees n-k, n,
    n+k), and a (2n+1)-manifold from a spun tree (ranks d+1 in degrees n and
    n+1) or its projected version (ranks 1, d, d, 1 in degrees n-k, n, n+1,
    n+k+1).  Parameters outside the construction hypotheses are rejected:
    n and k by ``check_dimensions``, then the family's own k and d conditions.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    check_dimensions(n, k, 1)
    if family in (EVEN_K0, ODD_K0):
        if k != 0:
            raise ValueError(f"family {family} requires k = 0")
        if d < 1:
            raise ValueError("d >= 1 required (at least two link components)")
    else:
        if k < 1:
            raise ValueError(f"family {family} requires k >= 1")
        if d < 4:
            raise ValueError("projected families require d >= 4 (at least five components)")

    if family == EVEN_K0:
        dim = 2 * n
        table = {n: d + 2}
    elif family == EVEN_KPOS:
        dim = 2 * n
        table = {n - k: 1, n: d, n + k: 1}
    elif family == ODD_K0:
        dim = 2 * n + 1
        table = {n: d + 1, n + 1: d + 1}
    else:
        dim = 2 * n + 1
        table = {n - k: 1, n: d, n + 1: d, n + k + 1: 1}

    ranks = {i: 0 for i in range(dim + 1)}
    ranks[0] = 1
    ranks[dim] = 1
    for i, r in table.items():
        ranks[i] += r
    return ranks


# ---------------------------------------------------------------------------
# bounds on critical-point counts


@dataclass(frozen=True)
class PhiBounds:
    lower: int
    upper: int
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.lower > self.upper:  # phi_bounds derived both; a contradiction is an internal fault
            raise AlgorithmMismatchError("phi bounds out of order")


def detect_canonical_family(
    graphs: Sequence[DecoratedGraph], n: int, k: int
) -> Optional[tuple[str, int]]:
    """Recognize the one-graph canonical shapes; returns (family, d) or None.

    Unprojected: a tree with a single black vertex whose leaves are white
    disks.  Projected: a single black vertex capped by the matching trivial
    white piece, with at least five link components.
    """
    if len(graphs) != 1 or graphs[0].dimensions != (n, k):
        return None
    graph = graphs[0]
    if k == 0:
        counts = graph.counts
        whites = [v.fiber for v in graph.vertices if isinstance(v, WhiteVertex)]
        tree = counts.s_black == 1 and counts.g == 0 and len(whites) == counts.t + 1
        return (EVEN_K0, counts.t) if tree and all(map(is_disk, whites)) else None
    try:
        link, other = graph.projected
    except UnsupportedShapeError:
        return None
    if link.d >= 4 and other == projection_filler(n, k, link.d):
        return (EVEN_KPOS, link.d)
    return None


def phi_bounds(
    graphs: Sequence[DecoratedGraph],
    n: int,
    k: int,
    sigma: int,
    canonical: Optional[tuple[str, int]],
) -> PhiBounds:
    """Bounds on the minimal number of critical points of maps to S^{n-k}, given cobounding.

    The construction realizes a map with one critical point per black vertex,
    so s (the total black count) is an upper bound once the boundary
    fibrations are assumed to cobound; the caller asserts that.  The lower
    bound 1 holds when a fibration is obstructed: always for odd n - k
    (nonzero Euler characteristic), for even n - k when s is odd (odd Euler
    characteristic) or when the signature ``sigma`` is nonzero.  The
    canonical one-singularity shapes (``canonical``, a
    ``detect_canonical_family`` result) achieve exactly 1.  When no
    obstruction is certified the lower bound is the trivial 0.
    """
    s = sum(graph.counts.s_black for graph in graphs)
    if canonical is not None:
        return PhiBounds(1, 1, ("canonical one-singularity shape: exactly one critical point",))
    if (n - k) % 2 == 1:
        note = "odd n-k: the glued manifold has nonzero Euler characteristic, no fibration"
    elif s % 2 == 1:
        note = "even n-k with an odd number of black vertices: odd Euler characteristic"
    elif sigma != 0:
        note = f"nonzero signature {sigma} obstructs fibering over any sphere"
    else:
        return PhiBounds(0, s, ("no obstruction certified; 0 is the unconditional lower bound",))
    return PhiBounds(1, s, (note,))


@dataclass(frozen=True)
class ProductFactor:
    """A factor of a product manifold: the 4-sphere or a connected sum of
    r copies of S^2 x S^2."""

    kind: str  # "S4" | "connsum"
    r: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("S4", "connsum"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "connsum" and self.r < 0:
            raise ValueError("connected-sum multiplicity must be nonnegative")

    def phi_to_s3(self) -> int:
        # minimal critical-point counts of the factors mapped to the 3-sphere
        return 2 if self.kind == "S4" else 2 * self.r + 2

    def euler(self) -> int:
        return 2 if self.kind == "S4" else 2 * self.r + 2


@dataclass(frozen=True)
class ProductBound:
    lower: int
    upper: int
    euler: int
    notes: tuple[str, ...]


def product_phi_bound(factors: Sequence[ProductFactor]) -> ProductBound:
    """Bounds for maps from a product of the given factors to the 3-sphere.

    The group multiplication on the target makes critical-point counts
    submultiplicative, so the product of the per-factor counts bounds the
    product manifold.  The Euler characteristic multiplies to a nonzero
    value, so the manifold does not fiber and the count is at least 1.
    """
    if not factors:
        raise ValueError("empty factor list")
    upper = 1
    chi = 1
    for f in factors:
        upper *= f.phi_to_s3()
        chi *= f.euler()
    notes = (
        f"upper bound is the product of per-factor counts; chi = {chi} != 0 "
        "rules out a fibration",
    )
    return ProductBound(1, upper, chi, notes)


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class InvariantReport:
    cup_form: BilinearForm
    analysis: CupFormAnalysis
    chi: int
    homology_ranks: Optional[dict[int, int]]
    phi: Optional[PhiBounds]  # None unless cobounding is asserted
    notes: tuple[str, ...]  # the phi bounds keep their own notes
    verdicts: tuple[str, ...]


def invariant_report(
    graphs: Sequence[DecoratedGraph],
    n: int,
    k: int,
    assume_cobounding: bool,
) -> InvariantReport:
    """Full invariant pipeline for a validated graph family.

    The report keeps the cup form it analyzed, so callers need not assemble
    it again.  Every note but the phi bounds' own is assembled here.  When
    the canonical homology ranks apply, chi must equal their alternating sum.
    """
    form = cup_form_for_family(graphs, k)
    notes: list[str] = []
    if k:
        notes.append("projected cup form indexed by the interior block (inverse of the decoration); "
                     "signature is preserved")
    analysis = analyze_cup_form(form)

    chi = euler_characteristic(graphs, n, k)
    s_black = sum(g.counts.s_black for g in graphs)

    canonical = detect_canonical_family(graphs, n, k)
    homology = None
    if canonical is not None:
        family, d = canonical
        homology = canonical_homology_ranks(family, n, k, d)
        alternating = sum((-1) ** i * b for i, b in homology.items())
        if chi != alternating:
            raise AlgorithmMismatchError(f"chi = {chi}, but the homology ranks give {alternating}")
        notes.append(f"canonical family {family} with d = {d}")

    phi = None
    if assume_cobounding:
        phi = phi_bounds(graphs, n, k, analysis.sigma, canonical)
    else:
        notes.append("cobounding not asserted; no critical-point bounds emitted")

    verdicts: list[str] = []
    target = n - k
    if target % 2 == 1:
        if chi != 0:
            verdicts.append(
                f"chi = {chi} is nonzero: the manifold does not fiber over S^{target}"
            )
        else:
            verdicts.append(f"chi = 0: no Euler-characteristic obstruction to fibering over S^{target}")
    else:
        if chi % 2 == 1:
            verdicts.append(
                f"chi = {chi} is odd: the manifold does not fiber over S^{target}"
            )
        else:
            verdicts.append(f"chi = {chi} is even: no Euler-characteristic obstruction over S^{target}")
    if analysis.sigma != 0:
        verdicts.append(
            f"sigma = {analysis.sigma} is nonzero: the manifold does not fiber over any sphere"
        )
    verdicts.append(
        f"signature additivity: the closed manifold inherits sigma = {analysis.sigma} from the block"
    )
    parity_agrees = (analysis.sigma - s_black) % 2 == 0
    verdicts.append(
        f"parity check (reported, not asserted): sigma = {analysis.sigma}, "
        f"black vertices s = {s_black}, parity {'agrees' if parity_agrees else 'disagrees'}"
    )

    return InvariantReport(form, analysis, chi, homology, phi, tuple(notes), tuple(verdicts))
