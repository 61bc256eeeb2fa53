import re

import pytest

from hopfcalc.exactlinalg import IntMatrix
from hopfcalc.forms import BilinearForm, H_MATRIX, direct_sum, skew, zero_diagonal_model
from hopfcalc.graphmodel import (
    DecoratedGraph,
    Edge,
    GraphValidationError,
    UnsupportedShapeError,
    fiber_euler,
    graph_counts,
    projected_pair,
    validate_graph,
)
from hopfcalc.hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    cylinder,
    disk,
    projection_filler,
)

J = skew([[0, 1], [-1, 0]])
HF = BilinearForm(H_MATRIX, 1)
JJ = direct_sum(J, J)


def single_black_tree(link: HopfLinkSpec) -> DecoratedGraph:
    """One black vertex, one white disk per link component."""
    n, d = link.n, link.d
    vertices = [link] + [disk(n) for _ in range(d + 1)]
    edges = [Edge(0, i + 1, i, 0) for i in range(d + 1)]
    return DecoratedGraph(tuple(vertices), tuple(edges))


def parallel_pair(link: HopfLinkSpec) -> DecoratedGraph:
    """Two black vertices joined by one edge per component, matching indices."""
    d = link.d
    return DecoratedGraph(
        (link, link),
        tuple(Edge(0, 1, i, i) for i in range(d + 1)),
    )


def descriptor(pairs, dim: int, boundary: int = 0) -> FiberDescriptor:
    """Betti descriptor from (index, count) pairs; counts at the same index add up."""
    betti = [0] * (dim + 1)
    for idx, b in pairs:
        betti[idx] += b
    return FiberDescriptor(tuple(betti), boundary)


def sphere(dim: int) -> FiberDescriptor:
    return descriptor([(0, 1), (dim, 1)], dim)


def reference_pieces(link: HopfLinkSpec) -> tuple[FiberDescriptor, FiberDescriptor]:
    """(fiber, link) Betti descriptors of a black vertex's piece after k-fold projection.

    k = 0: the fiber is an n-disk with d holes and the link is d+1 disjoint
    (n-1)-spheres.  k >= 1: the fiber is the boundary connected sum of d
    copies of S^{n-1} x D^{k+1} and the link is the connected sum of d copies
    of S^{n-1} x S^k.
    """
    n, k, d = link.n, link.k, link.d
    if k == 0:
        return descriptor([(0, 1), (n - 1, d)], n, d + 1), descriptor([(0, d + 1), (n - 1, d + 1)], n - 1)
    fiber = descriptor([(0, 1), (n - 1, d)], n + k, 1)
    return fiber, descriptor([(0, 1), (k, d), (n - 1, d), (n + k - 1, 1)], n + k - 1)


def reference_fiber(graph: DecoratedGraph) -> FiberDescriptor:
    """Betti descriptor of the glued generic fiber of a supported shape.

    Unprojected: the connected sum of g copies of S^1 x S^{n-1}.  Two
    projected black vertices: the connected sum of d copies of
    S^{n-1} x S^{k+1}.  A projected link capped by its filler: S^{n+k}.
    """
    n, k = graph.dimensions
    if k == 0:
        g = graph_counts(graph).g
        return descriptor([(0, 1), (1, g), (n - 1, g), (n, 1)], n)
    link, other = projected_pair(graph)
    if isinstance(other, HopfLinkSpec):
        return descriptor([(0, 1), (k + 1, link.d), (n - 1, link.d), (n + k, 1)], n + k)
    return sphere(n + k)


def inclusion_exclusion(graph: DecoratedGraph) -> int:
    """chi of the glued fiber as its pieces' chi minus the chi of each edge's glue piece, from the descriptors.

    The glue piece is one (n-1)-sphere for k = 0, and the whole (connected)
    link of a black end for k >= 1.
    """
    n, k = graph.dimensions
    chi = sum(reference_pieces(v)[0].euler if isinstance(v, HopfLinkSpec) else v.euler for v in graph.vertices)
    for e in graph.edges:
        if k == 0:
            chi -= sphere(n - 1).euler
        else:
            link = next(graph.vertices[end] for end in (e.u, e.v) if isinstance(graph.vertices[end], HopfLinkSpec))
            chi -= reference_pieces(link)[1].euler
    return chi


def assert_rejected(build, message):
    """Building the graph raises ``GraphValidationError`` with exactly ``message``."""
    with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
        build()


def without_last_edge(g: DecoratedGraph) -> DecoratedGraph:
    return DecoratedGraph(g.vertices, g.edges[:-1])


class TestValidate:
    def test_tree_ok(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert validate_graph(tree) is None

    def test_missing_leaf(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert_rejected(
            lambda: without_last_edge(tree),
            "vertices[0]: black vertex has degree 2, expected 3 (one edge per component)",
        )

    def test_skew_even_degree_rejected(self):
        # a 3x3 skew decoration gives 4 link components: even degree
        odd_skew = skew([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert_rejected(
            lambda: single_black_tree(HopfLinkSpec(odd_skew, n=3)),
            "vertices[0]: skew decoration forces odd degree, got 4",
        )

    def test_no_black_vertex(self):
        assert_rejected(
            lambda: DecoratedGraph((cylinder(3),), (Edge(0, 0, 0, 1),)),
            "graph: no black vertex",
        )

    def test_component_assignment_must_be_bijection(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        edges = list(tree.edges)
        edges[1] = Edge(edges[1].u, edges[1].v, 0, 0)  # duplicates component 0
        assert_rejected(
            lambda: DecoratedGraph(tree.vertices, tuple(edges)),
            "vertices[0]: component assignment [0, 0, 2] is not a bijection onto 0..2",
        )

    def test_mixed_dimensions_rejected(self):
        assert_rejected(
            lambda: DecoratedGraph(
                (HopfLinkSpec(JJ, n=5, k=1), HopfLinkSpec(JJ, n=5, k=2)),
                (Edge(0, 1, 0, 0),),
            ),
            "graph: black vertices mix dimensions [(5, 1), (5, 2)]",
        )

    def test_edge_out_of_range(self):
        assert_rejected(
            lambda: DecoratedGraph((HopfLinkSpec(J, n=3),), (Edge(0, 7, 0, 1), Edge(0, 0, 1, 2))),
            "edges[0]: vertex 7 out of range",
        )

    def test_canonical_shapes_accept_and_mutations_reject(self):
        n = 5
        d = 4
        spun_whites = [disk(n + 1)] + [
            # S^1 x D^n pieces capping the swept components
            FiberDescriptor((1, 1) + (0,) * (n - 1), 1)
            for _ in range(d)
        ]
        spun_tree = DecoratedGraph(
            (HopfLinkSpec(JJ, n=n), *spun_whites),
            tuple(Edge(0, i + 1, i, 0) for i in range(d + 1)),
        )
        # boundary sum of D^n x S^{k+1} pieces and S^k x D^{n+1} pieces
        spun_projected_white = FiberDescriptor((1, d, d) + (0,) * (n - 1), 1)
        isolated = "vertices[0]: isolated black vertex"
        # each shape, built without error, and the first violation once its last edge is deleted
        shapes = [
            # one singular point over an even-dimensional source, k = 0 and k >= 1
            (
                single_black_tree(HopfLinkSpec(J, n=3)),
                "vertices[0]: black vertex has degree 2, expected 3 (one edge per component)",
            ),
            (
                single_black_tree(HopfLinkSpec(BilinearForm(zero_diagonal_model(1, 1).matrix, 1), n=4)),
                "vertices[0]: black vertex has degree 10, expected 11 (one edge per component)",
            ),
            (
                DecoratedGraph(
                    (HopfLinkSpec(JJ, n=n, k=1), projection_filler(n, 1, d)),
                    (Edge(0, 1, 0, 0),),
                ),
                isolated,
            ),
            # odd-dimensional source: spun decoration with one disk and d thickened
            # circles, and its projected version capped by a single white piece
            (spun_tree, "vertices[0]: black vertex has degree 4, expected 5 (one edge per component)"),
            (
                DecoratedGraph(
                    (HopfLinkSpec(JJ, n=n, k=1), spun_projected_white),
                    (Edge(0, 1, 0, 0),),
                ),
                isolated,
            ),
        ]
        for g, message in shapes:
            assert_rejected(lambda g=g: without_last_edge(g), message)


class TestCounts:
    def test_all_black_pair(self):
        counts = graph_counts(parallel_pair(HopfLinkSpec(J, n=3)))
        assert (counts.m, counts.s_black, counts.t, counts.g) == (3, 2, 4, 2)
        assert counts.t == 2 * counts.m - counts.s_black

    def test_tree(self):
        counts = graph_counts(single_black_tree(HopfLinkSpec(J, n=3)))
        assert (counts.t, counts.g) == (2, 0)

    def test_projected_pair_counts_handles_from_link_data(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), HopfLinkSpec(JJ, n=5, k=1)),
            (Edge(0, 1, 0, 0),),
        )
        counts = graph_counts(g)
        assert (counts.m, counts.g, counts.t) == (1, 0, 8)

    def test_invalid_graph_raises(self):
        # graph_counts needs no gate: every way of building a graph, a rebuilt one included, validates it
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert_rejected(
            lambda: DecoratedGraph(tree.vertices, tree.edges[:-1]),
            "vertices[0]: black vertex has degree 2, expected 3 (one edge per component)",
        )


class TestProjectedPair:
    def test_link_comes_first(self):
        link = HopfLinkSpec(JJ, n=5, k=1)
        filler = projection_filler(5, 1, 4)
        g = DecoratedGraph((filler, link), (Edge(1, 0, 0, 0),))
        assert projected_pair(g) == (link, filler)
        assert g.projected is g.projected

    def test_unprojected_and_invalid_graphs_raise(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        with pytest.raises(UnsupportedShapeError, match="k >= 1"):
            projected_pair(tree)
        # a projected graph without its one edge cannot be built, so projected_pair never sees it
        link = HopfLinkSpec(JJ, n=5, k=1)
        assert_rejected(
            lambda: DecoratedGraph((link, projection_filler(5, 1, 4)), ()),
            "vertices[0]: isolated black vertex",
        )


class TestGlobalFiber:
    def test_tree_is_sphere(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert reference_fiber(tree) == sphere(3)
        assert fiber_euler(tree) == sphere(3).euler == 0

    def test_all_black_pair_two_loops(self):
        # two loops worth of S^1 x S^{n-1} summands
        pair = parallel_pair(HopfLinkSpec(J, n=3))
        assert reference_fiber(pair).betti == (1, 2, 2, 1)
        assert fiber_euler(pair) == 0
        assert fiber_euler(parallel_pair(HopfLinkSpec(HF, n=4))) == -2  # betti (1, 2, 0, 2, 1)

    def test_even_dimension_tree(self):
        link = HopfLinkSpec(BilinearForm(zero_diagonal_model(1, 1).matrix, 1), n=4)
        assert fiber_euler(single_black_tree(link)) == sphere(4).euler == 2

    def test_projected_black_white_is_sphere(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4)),
            (Edge(0, 1, 0, 0),),
        )
        assert fiber_euler(g) == sphere(6).euler == 2

    def test_projected_two_black(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), HopfLinkSpec(JJ, n=5, k=1)),
            (Edge(0, 1, 0, 0),),
        )
        assert reference_fiber(g).betti == (1, 0, 4, 0, 4, 0, 1)
        assert fiber_euler(g) == 10

    def test_cylinder_whites_are_trivial(self):
        link = HopfLinkSpec(HF, n=4)
        vertices = (
            link,
            disk(4),
            disk(4),
            cylinder(4),
            link,
            disk(4),
            disk(4),
        )
        edges = (
            Edge(0, 1, 0, 0),
            Edge(0, 2, 1, 0),
            Edge(0, 3, 2, 0),
            Edge(4, 3, 0, 1),
            Edge(4, 5, 1, 0),
            Edge(4, 6, 2, 0),
        )
        assert fiber_euler(DecoratedGraph(vertices, edges)) == sphere(4).euler == 2

    def test_exotic_white_rejected(self):
        link = HopfLinkSpec(J, n=3)
        vertices = (
            link,
            disk(3),
            disk(3),
            FiberDescriptor((1, 1, 0, 0), 1),
        )
        edges = (Edge(0, 1, 0, 0), Edge(0, 2, 1, 0), Edge(0, 3, 2, 0))
        with pytest.raises(UnsupportedShapeError, match="^non-trivial white decoration: "):
            fiber_euler(DecoratedGraph(vertices, edges))

    def test_disconnected_rejected(self):
        t = single_black_tree(HopfLinkSpec(J, n=3))
        doubled = DecoratedGraph(
            t.vertices + tuple(t.vertices),
            t.edges + tuple(Edge(e.u + 4, e.v + 4, e.u_comp, e.v_comp) for e in t.edges),
        )
        with pytest.raises(UnsupportedShapeError, match="^fiber assembly needs a connected graph$"):
            fiber_euler(doubled)

    def test_euler_matches_betti_sum(self):
        for g in [
            single_black_tree(HopfLinkSpec(J, n=3)),
            parallel_pair(HopfLinkSpec(J, n=3)),
            parallel_pair(HopfLinkSpec(HF, n=4)),
        ]:
            assert fiber_euler(g) == reference_fiber(g).euler == inclusion_exclusion(g)


def decorated(n: int, k: int, d: int) -> HopfLinkSpec:
    """A rank-d zero-diagonal decoration of sign (-1)^n; the fiber's chi reads only its size."""
    sign = (-1) ** n
    return HopfLinkSpec(BilinearForm(IntMatrix.from_rows(
        [[0 if i == j else 1 if i < j else sign for j in range(d)] for i in range(d)]), sign), n, k)


def self_loop(link: HopfLinkSpec) -> DecoratedGraph:
    """A loop on components 1 and 2 of one black vertex, and a disk on each other component."""
    others = [0] + list(range(3, link.components))
    return DecoratedGraph(
        (link,) + (disk(link.n),) * len(others),
        (Edge(0, 0, 1, 2),) + tuple(Edge(0, i + 1, c, 0) for i, c in enumerate(others)),
    )


def cylinder_chain(link: HopfLinkSpec, length: int) -> DecoratedGraph:
    """``length`` black vertices in a row, each last component joined to the next one's first by a cylinder.

    Vertices: the black ones, then the cylinders, then one disk per free component.
    """
    n, c = link.n, link.components
    cylinders = [(b, c - 1, b + 1, 0) for b in range(length - 1)]
    free = [(b, comp) for b in range(length) for comp in range(c) if (b, comp) not in
            {(u, uc) for u, uc, _, _ in cylinders} | {(v, vc) for _, _, v, vc in cylinders}]
    edges = [Edge(u, length + i, uc, 0) for i, (u, uc, _, _) in enumerate(cylinders)]
    edges += [Edge(v, length + i, vc, 1) for i, (_, _, v, vc) in enumerate(cylinders)]
    edges += [Edge(b, length + len(cylinders) + i, comp, 0) for i, (b, comp) in enumerate(free)]
    vertices = (link,) * length + (cylinder(n),) * len(cylinders) + (disk(n),) * len(free)
    return DecoratedGraph(vertices, tuple(edges))


def sweep_shapes(n: int):
    """(name, graph) of every supported shape at this n, each k in 0..n-2 and each rank 1..6 it admits."""
    for d in range(1, 7):
        if n % 2 == 0 or d % 2 == 0:  # an unprojected skew decoration has even rank (odd degree)
            link = decorated(n, 0, d)
            yield f"tree d={d}", single_black_tree(link)
            yield f"pair d={d}", parallel_pair(link)
            if d >= 2:
                yield f"self-loop d={d}", self_loop(link)
            yield f"cylinder chain d={d}", cylinder_chain(link, 3)
        for k in range(1, n - 1):
            link = decorated(n, k, d)
            yield f"projected pair k={k} d={d}", DecoratedGraph((link, link), (Edge(0, 1, 0, 0),))
            yield f"capped k={k} d={d}", DecoratedGraph((link, projection_filler(n, k, d)), (Edge(0, 1, 0, 0),))


@pytest.mark.parametrize("n", range(3, 9))
def test_fiber_euler_matches_the_betti_descriptors(n):
    seen = set()
    for name, graph in sweep_shapes(n):
        seen.add(name.split(" ")[0])
        assert fiber_euler(graph) == reference_fiber(graph).euler == inclusion_exclusion(graph), name
    assert seen == {"tree", "pair", "self-loop", "cylinder", "projected", "capped"}


class TestSelfLoops:
    def test_self_loop_counts(self):
        # one black vertex with a self-loop on components 1, 2 and a disk on 0
        link = HopfLinkSpec(J, n=3)
        vertices = (link, disk(3))
        g = DecoratedGraph(vertices, (Edge(0, 0, 1, 2), Edge(0, 1, 0, 0)))
        # a loop on component 1 at both ends covers it twice and leaves component 2 uncovered
        assert_rejected(
            lambda: DecoratedGraph(vertices, (Edge(0, 0, 1, 1), Edge(0, 1, 0, 0))),
            "vertices[0]: component assignment [0, 1, 1] is not a bijection onto 0..2",
        )
        counts = graph_counts(g)
        assert (counts.m, counts.g, counts.t) == (2, 1, 2)
        assert reference_fiber(g).betti == (1, 1, 1, 1)
        assert fiber_euler(g) == 0
        assert fiber_euler(self_loop(HopfLinkSpec(HF, n=4))) == 0  # one S^1 x S^3 summand
