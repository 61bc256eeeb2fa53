"""Decorated bicolored graphs.

Black vertices carry link specs, white vertices carry fiber descriptors,
and each edge end is assigned to one component of the incident vertex
(a link component at a black end, a boundary component at a white end).
The graph is the combinatorial blueprint for gluing local fibered pieces
into a manifold block; this module validates it, computes the counting
invariants (edges, loops, handle count), and assembles the glued generic
fiber when its Betti numbers are determined by the decoration data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .exactlinalg import AlgorithmMismatchError
from .hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    _from_betti_map,
    is_cylinder,
    is_disk,
    project_link_descriptor,
    projection_filler,
    sphere,
)


class GraphValidationError(ValueError):
    """Raised by operations that require a valid graph."""


class UnsupportedShapeError(ValueError):
    """The graph shape is outside what this computation supports."""


@dataclass(frozen=True)
class BlackVertex:
    link: HopfLinkSpec


@dataclass(frozen=True)
class WhiteVertex:
    fiber: FiberDescriptor


Vertex = Union[BlackVertex, WhiteVertex]


@dataclass(frozen=True)
class Edge:
    """Undirected edge; twist is an opaque gluing annotation, never computed with."""

    u: int
    v: int
    u_comp: int
    v_comp: int
    twist: Optional[str] = None


@dataclass(frozen=True)
class DecoratedGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_graph`` of this graph, run once and kept."""
        return validate_graph(self)


@dataclass(frozen=True)
class Violation:
    locus: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


@dataclass(frozen=True)
class GraphCounts:
    m: int  # edges
    s_black: int  # black vertices
    g: int  # first Betti number of the graph
    t: int  # handle count: sum of decoration sizes over black vertices


def _component_count(v: Vertex) -> int:
    if isinstance(v, BlackVertex):
        return v.link.components
    return v.fiber.boundary_components


def _incidences(graph: DecoratedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex: list of (edge index, component) incidences; loops appear twice."""
    inc: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for e_idx, e in enumerate(graph.edges):
        inc[e.u].append((e_idx, e.u_comp))
        inc[e.v].append((e_idx, e.v_comp))
    return inc


def validate_graph(graph: DecoratedGraph) -> ValidationReport:
    """Check every structural invariant; returns all violations in order.

    Checks: at least one black vertex; edge endpoints in range; no isolated
    vertices; at every vertex the edge-to-component assignment is a bijection
    onto that vertex's components (link components for black, boundary
    components for white); all black decorations share the same (n, k); and
    for skew decorations every black vertex has odd degree (a unimodular
    skew decoration has even rank).
    """
    violations: list[Violation] = []
    nv = len(graph.vertices)

    if not any(isinstance(v, BlackVertex) for v in graph.vertices):
        violations.append(Violation("graph", "no black vertex"))

    for e_idx, e in enumerate(graph.edges):
        for end, comp in ((e.u, e.u_comp), (e.v, e.v_comp)):
            if not 0 <= end < nv:
                violations.append(Violation(f"edges[{e_idx}]", f"vertex {end} out of range"))
            if comp < 0:
                violations.append(Violation(f"edges[{e_idx}]", f"negative component {comp}"))
    if violations:
        return ValidationReport(tuple(violations))

    inc = _incidences(graph)
    dims: set[tuple[int, int]] = set()
    for v_idx, v in enumerate(graph.vertices):
        comps = sorted(c for _, c in inc[v_idx])
        expected = _component_count(v)
        kind = "black" if isinstance(v, BlackVertex) else "white"
        if not comps:
            violations.append(Violation(f"vertices[{v_idx}]", f"isolated {kind} vertex"))
            continue
        if len(comps) != expected:
            violations.append(
                Violation(
                    f"vertices[{v_idx}]",
                    f"{kind} vertex has degree {len(comps)}, expected {expected} "
                    f"(one edge per component)",
                )
            )
        elif comps != list(range(expected)):
            violations.append(
                Violation(
                    f"vertices[{v_idx}]",
                    f"component assignment {comps} is not a bijection onto 0..{expected - 1}",
                )
            )
        if isinstance(v, BlackVertex):
            dims.add((v.link.n, v.link.k))
            if v.link.form.epsilon == -1 and len(inc[v_idx]) % 2 == 0:
                violations.append(
                    Violation(
                        f"vertices[{v_idx}]",
                        f"skew decoration forces odd degree, got {len(inc[v_idx])}",
                    )
                )
    if len(dims) > 1:
        violations.append(Violation("graph", f"black vertices mix dimensions {sorted(dims)}"))
    return ValidationReport(tuple(violations))


def require_valid(graph: DecoratedGraph) -> None:
    report = graph.validation
    if not report.ok:
        first = report.first
        raise GraphValidationError(f"{first.locus}: {first.message}")


def _connected_components(graph: DecoratedGraph) -> int:
    nv = len(graph.vertices)
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(nv)})


def graph_counts(graph: DecoratedGraph) -> GraphCounts:
    """Edge, black-vertex, loop and handle counts of a validated graph.

    The handle count t sums the decoration size over black vertices.  For
    unprojected links this equals degree - 1 per black vertex, hence
    t = 2m - s on connected all-black graphs; for projected links it is the
    number of middle-index handles the local model attaches.
    """
    require_valid(graph)
    m = len(graph.edges)
    s_black = sum(1 for v in graph.vertices if isinstance(v, BlackVertex))
    g = m - len(graph.vertices) + _connected_components(graph)
    t = sum(v.link.d for v in graph.vertices if isinstance(v, BlackVertex))
    return GraphCounts(m, s_black, g, t)


def black_vertices(graph: DecoratedGraph) -> list[tuple[int, BlackVertex]]:
    return [(i, v) for i, v in enumerate(graph.vertices) if isinstance(v, BlackVertex)]


def graph_dimensions(graph: DecoratedGraph) -> tuple[int, int]:
    """(n, k) shared by the black decorations."""
    blacks = black_vertices(graph)
    if not blacks:
        raise GraphValidationError("graph has no black vertex")
    return blacks[0][1].link.n, blacks[0][1].link.k


def assemble_global_fiber(graph: DecoratedGraph) -> FiberDescriptor:
    """Generic fiber of the glued block, with exact rational Betti numbers.

    The Euler characteristic is always the inclusion-exclusion over the graph
    (local fibers minus the boundary pieces shared along edges) and is
    cross-checked against the descriptor.  The Betti numbers themselves are
    determined by descriptor data only for the supported shapes: unprojected
    graphs whose white vertices are all disks or cylinders, for which the
    fiber is the connected sum of g copies of S^1 x S^{n-1}; and the two
    projected shapes (two black vertices joined by an edge, or one black
    vertex capped by the matching trivial piece, giving a sphere).  Other
    white decorations carry gluing information the Betti data cannot see, so
    they are rejected.
    """
    require_valid(graph)
    if _connected_components(graph) != 1:
        raise UnsupportedShapeError("fiber assembly needs a connected graph")
    n, k = graph_dimensions(graph)
    counts = graph_counts(graph)

    chi = 0
    for v in graph.vertices:
        if isinstance(v, BlackVertex):
            fiber, _ = project_link_descriptor(v.link)
            chi += fiber.euler
        else:
            chi += v.fiber.euler
    for e in graph.edges:
        chi -= _glue_piece_euler(graph, e, n, k)

    if k == 0:
        whites = [v for v in graph.vertices if isinstance(v, WhiteVertex)]
        for v_idx, v in enumerate(graph.vertices):
            if isinstance(v, WhiteVertex):
                if v.fiber.dim != n:
                    raise UnsupportedShapeError(
                        f"white fiber at vertex {v_idx} has dimension {v.fiber.dim}, expected {n}"
                    )
                if not (is_disk(v.fiber) or is_cylinder(v.fiber)):
                    raise UnsupportedShapeError(
                        "non-trivial white decoration: glued Betti numbers are not determined "
                        "by Betti data alone"
                    )
        g = counts.g
        out = _from_betti_map({0: 1, 1: g, n - 1: g, n: 1}.items(), n, 0)
    else:
        out = _projected_fiber(graph, n, k)

    if out.euler != chi:
        raise AlgorithmMismatchError(
            f"fiber self-check failed: glued Euler characteristic {chi} vs descriptor {out.euler}"
        )
    return out


def _glue_piece_euler(graph: DecoratedGraph, e: Edge, n: int, k: int) -> int:
    """Euler characteristic of the boundary piece identified along an edge."""
    if k == 0:
        return sphere(n - 1).euler
    # projected links are connected; the whole link descriptor is the glue piece
    for end in (e.u, e.v):
        v = graph.vertices[end]
        if isinstance(v, BlackVertex):
            _, link_desc = project_link_descriptor(v.link)
            return link_desc.euler
    raise UnsupportedShapeError("edge joins two white vertices")


def _projected_fiber(graph: DecoratedGraph, n: int, k: int) -> FiberDescriptor:
    blacks = black_vertices(graph)
    whites = [(i, v) for i, v in enumerate(graph.vertices) if isinstance(v, WhiteVertex)]
    if len(graph.edges) != 1:
        raise UnsupportedShapeError("projected graphs support exactly one edge")
    if len(blacks) == 2 and not whites:
        d1 = blacks[0][1].link.d
        d2 = blacks[1][1].link.d
        if d1 != d2:
            raise UnsupportedShapeError("the two projected decorations must have equal size")
        # doubled piece: connected sum of d copies of S^{n-1} x S^{k+1}
        return _from_betti_map([(0, 1), (k + 1, d1), (n - 1, d1), (n + k, 1)], n + k, 0)
    if len(blacks) == 1 and len(whites) == 1:
        d = blacks[0][1].link.d
        if whites[0][1].fiber != projection_filler(n, k, d):
            raise UnsupportedShapeError(
                "white decoration does not match the trivial piece capping the projected link"
            )
        return sphere(n + k)
    raise UnsupportedShapeError(
        "projected graphs support two black vertices joined by an edge, "
        "or one black and one matching white vertex"
    )
