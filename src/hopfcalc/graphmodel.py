"""Decorated bicolored graphs.

A vertex is its decoration: a black vertex is a ``HopfLinkSpec``, a white
vertex a ``FiberDescriptor``.  Each edge end is assigned to one component
of the incident vertex (a link component at a black end, a boundary
component at a white end).  The graph is the combinatorial blueprint for
gluing local fibered pieces into a manifold block.  A ``DecoratedGraph`` is
checked by ``validate_graph`` when it is built, so every graph that exists
is valid and its black decorations share one (n, k); ``family_dimensions``
is the one rule that a family of graphs shares it too.  This module
computes the counting invariants (edges, loops, handle count), decides the
projected (k >= 1) shape once (``projected_pair``) and whether its white
piece is the filler that caps the link (``DecoratedGraph.capped``), and
reads the Euler characteristic of the glued generic fiber off the shape and
these counts (``fiber_euler``), checked by inclusion-exclusion over the
graph's pieces.  Each fact is kept on the frozen ``DecoratedGraph`` the
first time it is read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .exactlinalg import AlgorithmMismatchError, Frozen
from .hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    is_cylinder,
    is_disk,
    projection_filler,
)


class GraphValidationError(ValueError):
    """A graph breaks a structural rule; the message is ``<locus>: <rule>``."""


class UnsupportedShapeError(ValueError):
    """The graph shape is outside what this computation supports."""


Vertex = Union[HopfLinkSpec, FiberDescriptor]  # a black vertex is its link, a white one its fiber


class Edge(Frozen):
    """Undirected edge; twist is an opaque gluing annotation, never computed with."""

    __slots__ = _fields = ("u", "v", "u_comp", "v_comp", "twist")

    def __init__(self, u: int, v: int, u_comp: int, v_comp: int, twist: Optional[str] = None) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u_comp", u_comp)
        object.__setattr__(self, "v_comp", v_comp)
        object.__setattr__(self, "twist", twist)


class DecoratedGraph(Frozen):
    """A decorated bicolored graph; ``validate_graph`` checks it when it is built."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        validate_graph(self)

    @cached_property
    def counts(self) -> GraphCounts:
        """``graph_counts`` of this graph, computed once and kept."""
        return graph_counts(self)

    @cached_property
    def connected_components(self) -> int:
        """``_connected_components`` of this graph, counted once and kept."""
        return _connected_components(self)

    @cached_property
    def dimensions(self) -> tuple[int, int]:
        """(n, k) shared by the black decorations."""
        link = next(v for v in self.vertices if isinstance(v, HopfLinkSpec))
        return link.n, link.k

    @cached_property
    def projected(self) -> tuple[HopfLinkSpec, Union[HopfLinkSpec, FiberDescriptor]]:
        """``projected_pair`` of this graph, decided once and kept."""
        return projected_pair(self)

    @cached_property
    def capped(self) -> bool:
        """Whether the white piece of this projected graph is the filler capping its link: the one rule for it."""
        link, other = self.projected
        return isinstance(other, FiberDescriptor) and other == projection_filler(*self.dimensions, link.d)


class GraphCounts(Frozen):
    __slots__ = _fields = ("m", "s_black", "g", "t")

    def __init__(self, m: int, s_black: int, g: int, t: int) -> None:
        object.__setattr__(self, "m", m)  # edges
        object.__setattr__(self, "s_black", s_black)  # black vertices
        object.__setattr__(self, "g", g)  # first Betti number of the graph
        object.__setattr__(self, "t", t)  # handle count: sum of decoration sizes over black vertices


def _component_count(v: Vertex) -> int:
    return v.components if isinstance(v, HopfLinkSpec) else v.boundary_components


def _incidences(graph: DecoratedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex: list of (edge index, component) incidences; loops appear twice."""
    inc: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for e_idx, e in enumerate(graph.edges):
        inc[e.u].append((e_idx, e.u_comp))
        inc[e.v].append((e_idx, e.v_comp))
    return inc


def validate_graph(graph: DecoratedGraph) -> None:
    """Check every structural rule; raises ``GraphValidationError`` at the first violation.

    ``DecoratedGraph`` calls this when it is built.  Checks, in order: at
    least one black vertex; edge endpoints in range and components
    nonnegative; no isolated vertices; at every vertex the
    edge-to-component assignment is a bijection onto that vertex's
    components (link components for black, boundary components for white);
    for skew decorations every black vertex has odd degree (a unimodular
    skew decoration has even rank); and all black decorations share the
    same (n, k).
    """
    nv = len(graph.vertices)

    if not any(isinstance(v, HopfLinkSpec) for v in graph.vertices):
        raise GraphValidationError("graph: no black vertex")

    for e_idx, e in enumerate(graph.edges):
        for end, comp in ((e.u, e.u_comp), (e.v, e.v_comp)):
            if not 0 <= end < nv:
                raise GraphValidationError(f"edges[{e_idx}]: vertex {end} out of range")
            if comp < 0:
                raise GraphValidationError(f"edges[{e_idx}]: negative component {comp}")

    inc = _incidences(graph)
    dims: set[tuple[int, int]] = set()
    for v_idx, v in enumerate(graph.vertices):
        locus = f"vertices[{v_idx}]"
        comps = sorted(c for _, c in inc[v_idx])
        expected = _component_count(v)
        kind = "black" if isinstance(v, HopfLinkSpec) else "white"
        if not comps:
            raise GraphValidationError(f"{locus}: isolated {kind} vertex")
        if len(comps) != expected:
            raise GraphValidationError(
                f"{locus}: {kind} vertex has degree {len(comps)}, expected {expected} "
                f"(one edge per component)"
            )
        if comps != list(range(expected)):
            raise GraphValidationError(
                f"{locus}: component assignment {comps} is not a bijection onto 0..{expected - 1}"
            )
        if isinstance(v, HopfLinkSpec):
            dims.add((v.n, v.k))
            if v.form.epsilon == -1 and len(comps) % 2 == 0:
                raise GraphValidationError(
                    f"{locus}: skew decoration forces odd degree, got {len(comps)}"
                )
    if len(dims) > 1:
        raise GraphValidationError(f"graph: black vertices mix dimensions {sorted(dims)}")


def _union_find(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each of ``size`` nodes once ``pairs`` are joined."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(size)]


def _connected_components(graph: DecoratedGraph) -> int:
    return len(set(_union_find(len(graph.vertices), ((e.u, e.v) for e in graph.edges))))


def graph_counts(graph: DecoratedGraph) -> GraphCounts:
    """Edge, black-vertex, loop and handle counts of a graph.

    The handle count t sums the decoration size over black vertices.  For
    unprojected links this equals degree - 1 per black vertex, hence
    t = 2m - s on connected all-black graphs; for projected links it is the
    number of middle-index handles the local model attaches.
    """
    m = len(graph.edges)
    links = [v for v in graph.vertices if isinstance(v, HopfLinkSpec)]
    g = m - len(graph.vertices) + graph.connected_components
    return GraphCounts(m, len(links), g, sum(link.d for link in links))


def black_vertices(graph: DecoratedGraph) -> list[tuple[int, HopfLinkSpec]]:
    """(vertex index, link) of each black vertex, in vertex order."""
    return [(i, v) for i, v in enumerate(graph.vertices) if isinstance(v, HopfLinkSpec)]


def family_dimensions(graphs: Sequence[DecoratedGraph]) -> tuple[int, int]:
    """The (n, k) every graph of a family shares; the one family-level dimension rule.

    ``validate_graph`` makes the black decorations of one graph agree, so the
    family agrees when its graphs do.  Raises ``ValueError`` for an empty
    family and ``UnsupportedShapeError`` for one of mixed dimensions.
    """
    if not graphs:
        raise ValueError("empty graph family")
    dims = {graph.dimensions for graph in graphs}
    if len(dims) > 1:
        raise UnsupportedShapeError(f"graphs in a family must share (n, k), got {sorted(dims)}")
    return graphs[0].dimensions


def projected_pair(graph: DecoratedGraph) -> tuple[HopfLinkSpec, Union[HopfLinkSpec, FiberDescriptor]]:
    """The one projected (k >= 1) shape rule: the two pieces its one edge joins.

    In a projected graph every vertex has a single component, so one
    edge joins either two black vertices (the doubled piece; their
    decorations must have equal size) or a black and a white vertex (the
    link capped by the white fiber).  Returns (link, link) in vertex order,
    or (link, white fiber).
    """
    if graph.dimensions[1] == 0:
        raise UnsupportedShapeError("projected shapes need k >= 1")
    if len(graph.edges) != 1:
        raise UnsupportedShapeError("projected graphs support exactly one edge")
    e = graph.edges[0]
    u, v = (graph.vertices[i] for i in sorted((e.u, e.v)))
    if isinstance(u, FiberDescriptor):
        u, v = v, u
    if isinstance(v, HopfLinkSpec) and u.d != v.d:
        raise UnsupportedShapeError("the two projected decorations must have equal size")
    return u, v


def fiber_euler(graph: DecoratedGraph) -> int:
    """Euler characteristic of the glued generic fiber F, read from the graph's shape.

    The supported shapes and their fibers: an unprojected graph whose white
    vertices are all disks or cylinders glues to the connected sum of g
    copies of S^1 x S^{n-1}, so chi(F) = (1 + (-1)^n)(1 - g); two projected
    black vertices glue to the connected sum of d copies of
    S^{n-1} x S^{k+1}; and a projected link capped by its filler glues to
    S^{n+k}.  Other white decorations carry gluing information that Betti
    data cannot see, so they are rejected.  The result is checked against
    the inclusion-exclusion over the graph: a black piece (an n-disk with d
    holes, or the boundary sum of d copies of S^{n-1} x D^{k+1}) has
    chi = 1 + (-1)^{n-1} d, a white piece its own chi, and every edge glues
    along the same boundary piece: S^{n-1} for k = 0, else the connected sum
    of d copies of S^{n-1} x S^k.
    """
    n, k = graph.dimensions
    if graph.connected_components != 1:
        raise UnsupportedShapeError("fiber assembly needs a connected graph")
    middle = (-1) ** (n - 1)  # sign of the (n - 1)-classes
    if k == 0:
        for v_idx, v in enumerate(graph.vertices):
            if isinstance(v, FiberDescriptor):
                if v.dim != n:
                    raise UnsupportedShapeError(
                        f"white fiber at vertex {v_idx} has dimension {v.dim}, expected {n}"
                    )
                if not (is_disk(v) or is_cylinder(v)):
                    raise UnsupportedShapeError(
                        "non-trivial white decoration: glued Betti numbers are not determined "
                        "by Betti data alone"
                    )
        chi = (1 - middle) * (1 - graph.counts.g)
        glue = 1 + middle
    else:
        link, other = graph.projected
        d, top, low = link.d, (-1) ** (n + k), (-1) ** k
        glue = 1 - top + d * (low + middle)  # the link: d copies of S^{n-1} x S^k, connected-summed
        if isinstance(other, HopfLinkSpec):
            chi = 1 + top + d * (middle - low)  # d copies of S^{n-1} x S^{k+1}, connected-summed
        elif not graph.capped:
            raise UnsupportedShapeError(
                "white decoration does not match the trivial piece capping the projected link"
            )
        else:
            chi = 1 + top  # S^{n+k}

    pieces = sum(1 + middle * v.d if isinstance(v, HopfLinkSpec) else v.euler for v in graph.vertices)
    glued = pieces - len(graph.edges) * glue
    if glued != chi:
        raise AlgorithmMismatchError(
            f"fiber self-check failed: glued Euler characteristic {glued} vs the shape's {chi}"
        )
    return chi
