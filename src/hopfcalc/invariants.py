"""Headline invariants of glued blocks and closed manifolds.

Assembles the middle-dimension intersection form of a decorated graph from
the canonical-framing linking matrices of its black vertices, reads its
inertia and kernel off the decorations when its arcs form a forest (else
from its own congruence), computes Euler characteristics of the glued closed
manifolds, emits the canonical homology-rank tables, and bounds the minimal
number of critical points of maps to spheres, and of products to S^3.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain

from .exactlinalg import AlgorithmMismatchError, Frozen, Inertia, IntMatrix, _checked_kernel
from .forms import BilinearForm
from .graphmodel import (
    DecoratedGraph,
    UnsupportedShapeError,
    _incidences,
    _union_find,
    family_dimensions,
    fiber_euler,
)
from .hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    check_dimensions,
    is_disk,
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
    rule at both ends of an edge.  Requires a family of unprojected (k = 0)
    graphs with unimodular decorations and one (n, k) (``family_dimensions``);
    the form's sign is (-1)^n.
    """
    n, k = family_dimensions(graphs)
    if k != 0:
        raise UnsupportedShapeError("edge-indexed cup form applies to unprojected graphs")
    size = sum(len(graph.edges) for graph in graphs)
    rows = [[0] * size for _ in range(size)]
    for graph, offset in zip(graphs, accumulate((len(graph.edges) for graph in graphs), initial=0)):
        for v, here in zip(graph.vertices, _incidences(graph)):
            if isinstance(v, HopfLinkSpec):
                lk = v.linking_matrix
                for e_idx, e_comp in here:
                    row, lk_row = rows[offset + e_idx], lk.row(e_comp)
                    for f_idx, f_comp in here:
                        row[offset + f_idx] += lk_row[f_comp]
    return BilinearForm(IntMatrix(size, size, tuple(chain.from_iterable(rows))), (-1) ** n)


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


def cup_form_for_family(graphs: Sequence[DecoratedGraph]) -> BilinearForm:
    """Dispatch a graph family to the right cup-form assembly by its k (``family_dimensions``).

    Unprojected (k = 0) families use the edge-indexed form; a projected
    family must be a single graph of a shape ``projected_pair`` accepts.
    """
    if family_dimensions(graphs)[1] == 0:
        return assemble_cup_form(graphs)
    if len(graphs) != 1:
        raise UnsupportedShapeError("projected families support a single graph")
    return assemble_cup_form_k(graphs[0])


class CupFormAnalysis(Frozen):
    __slots__ = _fields = ("inertia", "kernel_basis")

    def __init__(self, inertia: Inertia | None, kernel_basis: tuple[tuple[Fraction, ...], ...]) -> None:
        # read off the decorations or from the form's congruence, the nullity and the checked kernel must agree
        if inertia is not None and inertia.n_zero != len(kernel_basis):
            raise AlgorithmMismatchError("inertia nullity must match the kernel dimension")
        object.__setattr__(self, "inertia", inertia)  # None for skew forms
        object.__setattr__(self, "kernel_basis", kernel_basis)

    @property
    def sigma(self) -> int:
        """Signature; zero by convention for a skew form."""
        return 0 if self.inertia is None else self.inertia.sigma

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)


def analyze_cup_form(f: BilinearForm, graphs: Sequence[DecoratedGraph]) -> CupFormAnalysis:
    """Inertia, signature and rational kernel of ``f = cup_form_for_family(graphs)``.

    Unprojected, f = M^T B M: B is the block sum of the decorations' inverses, and M has one row
    e_edge(c) - e_edge(0), an arc between two of the family's edges, per component c >= 1 of a black
    vertex.  If the arcs form a forest (a loop edge closes a cycle), Sylvester's law gives f the
    decorations' inertia plus m - sum d_v zeros, and ker f = ker M is spanned by the trees'
    indicators; by last edge they are ``nullspace_rational``'s basis, each checked by f v = 0.  A
    projected black-white form is A^-1: A's inertia, no kernel.  Any other form is read from its own
    congruence.  A skew form's signature is 0 by convention.
    """
    symmetric = f.epsilon == 1
    if family_dimensions(graphs)[1]:
        link, other = graphs[0].projected
        if isinstance(other, FiberDescriptor):
            return CupFormAnalysis(link.form.inertia if symmetric else None, ())
    else:
        arcs: list[tuple[int, int]] = []
        for graph, offset in zip(graphs, accumulate((len(graph.edges) for graph in graphs), initial=0)):
            for v, here in zip(graph.vertices, _incidences(graph)):
                if isinstance(v, HopfLinkSpec):
                    ends = [offset + e for e, _ in sorted(here, key=lambda end: end[1])]  # by component
                    arcs += [(e, ends[0]) for e in ends[1:]]
        roots = _union_find(f.dim, arcs)
        last = {root: e for e, root in enumerate(roots)}  # each tree's last edge
        if len(last) == f.dim - len(arcs):
            kernel = _checked_kernel(f.matrix, [[int(r == t) for r in roots] for t in sorted(last, key=last.get)])
            if symmetric:
                parts = [v.form.inertia for graph in graphs for v in graph.vertices if isinstance(v, HopfLinkSpec)]
                inertia = Inertia(sum(p.n_plus for p in parts), sum(p.n_minus for p in parts), f.dim - len(arcs))
                return CupFormAnalysis(inertia, kernel)
            return CupFormAnalysis(None, kernel)
    return CupFormAnalysis(f.inertia if symmetric else None, f.kernel)


# ---------------------------------------------------------------------------
# Euler characteristics


def _sphere_euler(dim: int) -> int:
    return 1 + (-1) ** dim


def euler_characteristic(graphs: Sequence[DecoratedGraph]) -> int:
    """Euler characteristic of the closed manifold glued from a graph family.

    chi = chi(S^{n-k}) * chi(F) + (-1)^n * t, where (n, k) is the family's
    (``family_dimensions``), chi(F) the common generic fiber's Euler
    characteristic, read off each graph's shape by ``fiber_euler``, and t the
    total handle count.  All graphs must agree on the fiber (equal loop count
    g and equal chi(F)).
    """
    n, k = family_dimensions(graphs)
    fiber_chis = []
    gs = []
    t = 0
    for graph in graphs:
        counts = graph.counts
        gs.append(counts.g)
        t += counts.t
        fiber_chis.append(fiber_euler(graph))
    if len(set(gs)) > 1:
        raise UnsupportedShapeError(f"graphs have mismatched loop counts {gs}; fibers cannot agree")
    if len(set(fiber_chis)) > 1:
        raise UnsupportedShapeError("graphs have mismatched fiber Euler characteristics")
    return _sphere_euler(n - k) * fiber_chis[0] + (-1) ** n * t


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


class PhiBounds(Frozen):
    __slots__ = _fields = ("lower", "upper", "notes")

    def __init__(self, lower: int, upper: int, notes: tuple[str, ...]) -> None:
        if lower > upper:  # phi_bounds derived both; a contradiction is an internal fault
            raise AlgorithmMismatchError("phi bounds out of order")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "notes", notes)


def detect_canonical_family(graphs: Sequence[DecoratedGraph]) -> tuple[str, int] | None:
    """Recognize the one-graph canonical shapes; returns (family, d) or None.

    Unprojected: a tree with a single black vertex whose leaves are white
    disks.  Projected: a single black vertex capped by the matching trivial
    white piece, with at least five link components.  (n, k) is the
    family's (``family_dimensions``).
    """
    k = family_dimensions(graphs)[1]
    if len(graphs) != 1:
        return None
    graph = graphs[0]
    if k == 0:
        counts = graph.counts
        whites = [v for v in graph.vertices if isinstance(v, FiberDescriptor)]
        tree = counts.s_black == 1 and counts.g == 0 and len(whites) == counts.t + 1
        return (EVEN_K0, counts.t) if tree and all(map(is_disk, whites)) else None
    try:
        d = graph.projected[0].d
    except UnsupportedShapeError:
        return None
    return (EVEN_KPOS, d) if d >= 4 and graph.capped else None


def euler_obstructs(chi: int, target: int) -> bool:
    """Whether chi rules out a fibration over S^target.

    A fibration F -> M -> S^m has chi(M) = chi(S^m) * chi(F), which is 0 over
    an odd sphere and even over an even one.
    """
    return chi != 0 if target % 2 else chi % 2 == 1


def phi_bounds(
    graphs: Sequence[DecoratedGraph],
    chi: int,
    sigma: int,
    canonical: tuple[str, int] | None,
) -> PhiBounds:
    """Bounds on the minimal number of critical points of maps to S^{n-k}, given cobounding.

    The construction realizes a map with one critical point per black vertex,
    so s (the total black count) is the upper bound once the boundary
    fibrations are assumed to cobound; the caller asserts that.  The
    canonical one-singularity shapes (``canonical``, a
    ``detect_canonical_family`` result) achieve exactly 1.  Otherwise the
    lower bound is 1 when a fibration is obstructed: by the Euler
    characteristic ``chi`` (``euler_obstructs``) or by a nonzero signature
    ``sigma`` (Chern-Hirzebruch-Serre), and the trivial 0 when neither
    applies.  (n, k) is the family's (``family_dimensions``).
    """
    n, k = family_dimensions(graphs)
    s = sum(graph.counts.s_black for graph in graphs)
    if canonical is not None:
        return PhiBounds(1, 1, ("canonical one-singularity shape: exactly one critical point",))
    if euler_obstructs(chi, n - k):
        parity, kind = ("odd", "nonzero") if (n - k) % 2 else ("even", "odd")
        note = f"{parity} n-k: the glued manifold has {kind} Euler characteristic, no fibration"
    elif sigma != 0:
        note = f"nonzero signature {sigma} obstructs fibering over any sphere"
    else:
        return PhiBounds(0, s, ("no obstruction certified; 0 is the unconditional lower bound",))
    return PhiBounds(1, s, (note,))


class ProductFactor(Frozen):
    """A factor of a product manifold: the 4-sphere or a connected sum of
    r copies of S^2 x S^2."""

    __slots__ = _fields = ("kind", "r")

    def __init__(self, kind: str, r: int = 0) -> None:
        if kind not in ("S4", "connsum"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == "connsum" and r < 0:
            raise ValueError("connected-sum multiplicity must be nonnegative")
        object.__setattr__(self, "kind", kind)  # "S4" | "connsum"
        object.__setattr__(self, "r", r)

    def phi_to_s3(self) -> int:
        # minimal critical-point counts of the factors mapped to the 3-sphere
        return 2 if self.kind == "S4" else 2 * self.r + 2

    def euler(self) -> int:
        return 2 if self.kind == "S4" else 2 * self.r + 2


class ProductBound(Frozen):
    __slots__ = _fields = ("lower", "upper", "euler", "notes")

    def __init__(self, lower: int, upper: int, euler: int, notes: tuple[str, ...]) -> None:
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "notes", notes)


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


class InvariantReport(Frozen):
    __slots__ = _fields = ("cup_form", "analysis", "chi", "homology_ranks", "phi", "notes", "verdicts")

    def __init__(self, cup_form: BilinearForm, analysis: CupFormAnalysis, chi: int, homology_ranks: dict[int, int] | None,
                 phi: PhiBounds | None, notes: tuple[str, ...], verdicts: tuple[str, ...]) -> None:
        object.__setattr__(self, "cup_form", cup_form)
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "homology_ranks", homology_ranks)
        object.__setattr__(self, "phi", phi)  # None unless cobounding is asserted
        object.__setattr__(self, "notes", notes)  # the phi bounds keep their own notes
        object.__setattr__(self, "verdicts", verdicts)


def invariant_report(graphs: Sequence[DecoratedGraph], assume_cobounding: bool) -> InvariantReport:
    """Full invariant pipeline for a validated graph family of one (n, k) (``family_dimensions``).

    The report keeps the cup form it analyzed, so callers need not assemble
    it again.  Every note but the phi bounds' own is assembled here.  When
    the canonical homology ranks apply, chi must equal their alternating sum,
    and for an even family with n even sigma must have the parity of chi.
    """
    n, k = family_dimensions(graphs)
    form = cup_form_for_family(graphs)
    notes: list[str] = []
    if k:
        notes.append("projected cup form indexed by the interior block (inverse of the decoration); "
                     "signature is preserved")
    analysis = analyze_cup_form(form, graphs)

    chi = euler_characteristic(graphs)

    canonical = detect_canonical_family(graphs)
    homology = None
    if canonical is not None:
        family, d = canonical
        homology = canonical_homology_ranks(family, n, k, d)
        alternating = sum((-1) ** i * b for i, b in homology.items())
        if chi != alternating:
            raise AlgorithmMismatchError(f"chi = {chi}, but the homology ranks give {alternating}")
        # a closed oriented 4m-manifold has sigma = b_2m = chi (mod 2), by Poincare duality
        if family in (EVEN_K0, EVEN_KPOS) and n % 2 == 0 and (analysis.sigma - chi) % 2:
            raise AlgorithmMismatchError(f"sigma = {analysis.sigma}, but chi = {chi} has the other parity")
        notes.append(f"canonical family {family} with d = {d}")

    phi = None
    if assume_cobounding:
        phi = phi_bounds(graphs, chi, analysis.sigma, canonical)
    else:
        notes.append("cobounding not asserted; no critical-point bounds emitted")

    verdicts: list[str] = []
    target = n - k
    if euler_obstructs(chi, target):
        kind = "nonzero" if target % 2 else "odd"
        verdicts.append(f"chi = {chi} is {kind}: the manifold does not fiber over S^{target}")
    else:  # an even sphere: over an odd one chi = (-1)^n t, and t >= 1
        verdicts.append(f"chi = {chi} is even: no Euler-characteristic obstruction over S^{target}")
    if analysis.sigma != 0:
        verdicts.append(
            f"sigma = {analysis.sigma} is nonzero: the manifold does not fiber over any sphere"
        )
    verdicts.append(
        f"signature additivity: the closed manifold inherits sigma = {analysis.sigma} from the block"
    )

    return InvariantReport(form, analysis, chi, homology, phi, tuple(notes), tuple(verdicts))
