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
from typing import Optional, Sequence, Union

from .exactlinalg import AlgorithmMismatchError, Inertia, IntMatrix, nullspace_rational
from .forms import BilinearForm
from .graphmodel import (
    BlackVertex,
    DecoratedGraph,
    UnsupportedShapeError,
    WhiteVertex,
    _incidences,
    assemble_global_fiber,
    black_vertices,
    graph_counts,
    graph_dimensions,
    require_valid,
)
from .hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    derived_linking_matrix,
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
    blocks: list[list[list[int]]] = []
    for graph in graphs:
        require_valid(graph)
        n, k = graph_dimensions(graph)
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
            lk = derived_linking_matrix(v.link)
            here = inc[v_idx]
            for e_idx, e_comp in here:
                for f_idx, f_comp in here:
                    block[e_idx][f_idx] += lk.at(e_comp, f_comp)
        blocks.append(block)
    total = sum(len(b) for b in blocks)
    rows = [[0] * total for _ in range(total)]
    off = 0
    for block in blocks:
        m = len(block)
        for i in range(m):
            for j in range(m):
                rows[off + i][off + j] = block[i][j]
        off += m
    assert eps is not None
    return BilinearForm(IntMatrix.from_rows(rows), eps)


def assemble_cup_form_k(
    v_link: HopfLinkSpec, w: Union[HopfLinkSpec, FiberDescriptor]
) -> BilinearForm:
    """Intersection form for the two projected (k >= 1) graph shapes.

    Indexed by 1..d.  With two black vertices the form is the sum of the two
    interior blocks of the canonical linking matrices, i.e. the sum of the
    inverses of the decorations; with a black and a white vertex it is the
    inverse of the single decoration.  The restriction to the interior block
    is this artifact's resolution of the edge indexing for projected links;
    it preserves the signature of the decoration.
    """
    if v_link.k < 1:
        raise UnsupportedShapeError("projected cup form applies to k >= 1 specs")
    inv_v = v_link.form.inverse
    if isinstance(w, HopfLinkSpec):
        if w.k != v_link.k or w.n != v_link.n:
            raise UnsupportedShapeError("the two projected specs must share (n, k)")
        if w.d != v_link.d:
            raise UnsupportedShapeError("the two projected decorations must have equal size")
        return BilinearForm(inv_v + w.form.inverse, v_link.form.epsilon)
    if isinstance(w, FiberDescriptor):
        return BilinearForm(inv_v, v_link.form.epsilon)
    raise UnsupportedShapeError("second vertex must be a link spec or a fiber descriptor")


def cup_form_for_family(
    graphs: Sequence[DecoratedGraph], k: int
) -> tuple[BilinearForm, tuple[str, ...]]:
    """Dispatch a graph family to the right cup-form assembly; returns notes.

    Unprojected (k = 0) families use the edge-indexed form; a projected
    family must be a single graph of one of the two supported shapes.
    """
    if k == 0:
        return assemble_cup_form(graphs), ()
    if len(graphs) != 1:
        raise UnsupportedShapeError("projected families support a single graph")
    graph = graphs[0]
    require_valid(graph)
    blacks = black_vertices(graph)
    whites = [(i, v) for i, v in enumerate(graph.vertices) if isinstance(v, WhiteVertex)]
    note = (
        "projected cup form indexed by the interior block "
        "(inverse of the decoration); signature is preserved",
    )
    if len(blacks) == 2 and not whites and len(graph.edges) == 1:
        return assemble_cup_form_k(blacks[0][1].link, blacks[1][1].link), note
    if len(blacks) == 1 and len(whites) == 1 and len(graph.edges) == 1:
        return assemble_cup_form_k(blacks[0][1].link, whites[0][1].fiber), note
    raise UnsupportedShapeError("unsupported projected graph shape for the cup form")


@dataclass(frozen=True)
class CupFormAnalysis:
    inertia: Optional[Inertia]  # None for skew forms
    sigma: int
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    kernel_dim: int


def analyze_cup_form(f: BilinearForm) -> CupFormAnalysis:
    """Inertia, signature and rational kernel of an assembled form.

    The signature of a skew form is zero by convention; its kernel is still
    computed (left and right kernels coincide for epsilon-symmetric forms).
    """
    kernel = nullspace_rational(f.matrix)
    if f.epsilon == 1:
        ine = f.inertia
        return CupFormAnalysis(ine, ine.sigma, kernel, len(kernel))
    return CupFormAnalysis(None, 0, kernel, len(kernel))


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
        require_valid(graph)
        gn, gk = graph_dimensions(graph)
        if (gn, gk) != (n, k):
            raise ValueError(f"graph has dimensions (n, k) = ({gn}, {gk}), expected ({n}, {k})")
        counts = graph_counts(graph)
        gs.append(counts.g)
        t += counts.t
        fibers.append(assemble_global_fiber(graph))
    if len(set(gs)) > 1:
        raise ValueError(f"graphs have mismatched loop counts {gs}; fibers cannot agree")
    if len({f.euler for f in fibers}) > 1:
        raise ValueError("graphs have mismatched fiber Euler characteristics")
    return _sphere_euler(n - k) * fibers[0].euler + (-1) ** n * t


# ---------------------------------------------------------------------------
# canonical homology tables


def canonical_homology_ranks(family: str, n: int, k: int, d: int) -> dict[int, int]:
    """Rational homology ranks of the canonical one-singularity manifolds.

    Four families: a 2n-manifold from an unprojected tree (middle rank d+2)
    or from a projected black-white graph (ranks 1, d, 1 in degrees n-k, n,
    n+k), and a (2n+1)-manifold from a spun tree (ranks d+1 in degrees n and
    n+1) or its projected version (ranks 1, d, d, 1 in degrees n-k, n, n+1,
    n+k+1).  Parameters outside the construction hypotheses are rejected.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 3:
        raise ValueError("n >= 3 required")
    if family in (EVEN_K0, ODD_K0):
        if k != 0:
            raise ValueError(f"family {family} requires k = 0")
        if d < 1:
            raise ValueError("d >= 1 required (at least two link components)")
    else:
        if not 1 <= k <= n - 2:
            raise ValueError(f"family {family} requires 1 <= k <= n - 2")
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


def detect_canonical_family(
    graphs: Sequence[DecoratedGraph], n: int, k: int
) -> Optional[tuple[str, int]]:
    """Recognize the one-graph canonical shapes; returns (family, d) or None.

    Unprojected: a tree with a single black vertex whose leaves are white
    disks.  Projected: a single black vertex capped by the matching trivial
    white piece, with at least five link components.
    """
    if len(graphs) != 1:
        return None
    graph = graphs[0]
    if not graph.validation.ok:
        return None
    blacks = black_vertices(graph)
    if len(blacks) != 1:
        return None
    d = blacks[0][1].link.d
    whites = [v for v in graph.vertices if isinstance(v, WhiteVertex)]
    if k == 0:
        if len(whites) == d + 1 and all(is_disk(w.fiber) for w in whites):
            if graph_counts(graph).g == 0:
                return (EVEN_K0, d)
        return None
    if 1 <= k <= n - 2 and d >= 4 and len(whites) == 1 and len(graph.edges) == 1:
        if whites[0].fiber == projection_filler(n, k, d):
            return (EVEN_KPOS, d)
    return None


def phi_bounds(
    graphs: Sequence[DecoratedGraph],
    n: int,
    k: int,
    assume_cobounding: bool,
    sigma: Optional[int] = None,
) -> PhiBounds:
    """Bounds on the minimal number of critical points of maps to S^{n-k}.

    The construction realizes a map with one critical point per black vertex,
    so s (the total black count) is always an upper bound once the boundary
    fibrations are assumed to cobound.  The lower bound 1 holds when a
    fibration is obstructed: always for odd n - k (nonzero Euler
    characteristic), for even n - k when s is odd (odd Euler characteristic)
    or when the signature is nonzero.  The canonical one-singularity shapes
    achieve exactly 1.  When no obstruction is certified the lower bound is
    the trivial 0.
    """
    if not assume_cobounding:
        raise ValueError(
            "cobounding must be asserted by the caller; it cannot be verified here"
        )
    s = 0
    for graph in graphs:
        require_valid(graph)
        s += graph_counts(graph).s_black

    canonical = detect_canonical_family(graphs, n, k)
    if canonical is not None:
        return PhiBounds(1, 1, ("canonical one-singularity shape: exactly one critical point",))

    if sigma is None:
        sigma = _family_sigma(graphs, n, k)

    notes: list[str] = []
    if (n - k) % 2 == 1:
        notes.append(
            "odd n-k: the glued manifold has nonzero Euler characteristic, no fibration"
        )
        return PhiBounds(1, s, tuple(notes))
    if s % 2 == 1:
        notes.append("even n-k with an odd number of black vertices: odd Euler characteristic")
        return PhiBounds(1, s, tuple(notes))
    if sigma is not None and sigma != 0:
        notes.append(f"nonzero signature {sigma} obstructs fibering over any sphere")
        return PhiBounds(1, s, tuple(notes))
    notes.append("no obstruction certified; 0 is the unconditional lower bound")
    return PhiBounds(0, s, tuple(notes))


def _family_sigma(graphs: Sequence[DecoratedGraph], n: int, k: int) -> Optional[int]:
    if n % 2 == 1:
        return 0  # skew convention
    try:
        form, _ = cup_form_for_family(graphs, k)
    except UnsupportedShapeError:
        return None
    return analyze_cup_form(form).sigma


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


def product_phi_bound(factors: Sequence[ProductFactor], target: str = "S3") -> ProductBound:
    """Bounds for maps from a product of the given factors to the 3-sphere.

    The group multiplication on the target makes critical-point counts
    submultiplicative, so the product of the per-factor counts bounds the
    product manifold.  The Euler characteristic multiplies to a nonzero
    value, so the manifold does not fiber and the count is at least 1.
    """
    if target != "S3":
        raise ValueError("only the 3-sphere target is supported")
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
    chi: int
    inertia: Optional[Inertia]
    sigma: int
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    kernel_dim: int
    homology_ranks: Optional[dict[int, int]]
    phi_lower: Optional[int]
    phi_upper: Optional[int]
    notes: tuple[str, ...]
    verdicts: tuple[str, ...]

    def __post_init__(self) -> None:
        # the pipeline computed these fields; a contradiction is an internal fault
        if self.inertia is not None and self.sigma != self.inertia.sigma:
            raise AlgorithmMismatchError("sigma must match the inertia")
        if self.kernel_dim != len(self.kernel_basis):
            raise AlgorithmMismatchError("kernel_dim must match the basis")
        if (
            self.phi_lower is not None
            and self.phi_upper is not None
            and self.phi_lower > self.phi_upper
        ):
            raise AlgorithmMismatchError("phi bounds out of order")


def invariant_report(
    graphs: Sequence[DecoratedGraph],
    n: int,
    k: int,
    assume_cobounding: bool,
) -> InvariantReport:
    """Full invariant pipeline for a validated graph family.

    The report keeps the cup form it analyzed, so callers need not assemble
    it again.
    """
    for graph in graphs:
        require_valid(graph)

    form, form_notes = cup_form_for_family(graphs, k)
    notes = list(form_notes)
    analysis = analyze_cup_form(form)

    chi = euler_characteristic(graphs, n, k)
    s_black = sum(graph_counts(g).s_black for g in graphs)

    canonical = detect_canonical_family(graphs, n, k)
    homology = None
    if canonical is not None:
        family, d = canonical
        homology = canonical_homology_ranks(family, n, k, d)
        notes.append(f"canonical family {family} with d = {d}")

    phi_lower = phi_upper = None
    if assume_cobounding:
        bounds = phi_bounds(graphs, n, k, True, sigma=analysis.sigma)
        phi_lower, phi_upper = bounds.lower, bounds.upper
        notes.extend(bounds.notes)
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

    return InvariantReport(
        cup_form=form,
        chi=chi,
        inertia=analysis.inertia,
        sigma=analysis.sigma,
        kernel_basis=analysis.kernel_basis,
        kernel_dim=analysis.kernel_dim,
        homology_ranks=homology,
        phi_lower=phi_lower,
        phi_upper=phi_upper,
        notes=tuple(notes),
        verdicts=tuple(verdicts),
    )
