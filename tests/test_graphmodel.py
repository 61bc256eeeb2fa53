import dataclasses
import re

import pytest

from hopfcalc.forms import BilinearForm, H_MATRIX, direct_sum, skew, zero_diagonal_model
from hopfcalc.graphmodel import (
    DecoratedGraph,
    Edge,
    GraphValidationError,
    UnsupportedShapeError,
    assemble_global_fiber,
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
    sphere,
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
        # graph_counts needs no gate: every way of building a graph, replace included, validates it
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert_rejected(
            lambda: dataclasses.replace(tree, edges=tree.edges[:-1]),
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
        fiber = assemble_global_fiber(single_black_tree(HopfLinkSpec(J, n=3)))
        assert fiber == sphere(3)
        assert fiber.euler == 0

    def test_all_black_pair_two_loops(self):
        fiber = assemble_global_fiber(parallel_pair(HopfLinkSpec(J, n=3)))
        assert fiber.betti == (1, 2, 2, 1)  # two loops worth of S^1 x S^2 summands
        assert fiber.euler == 0

    def test_even_dimension_tree(self):
        link = HopfLinkSpec(BilinearForm(zero_diagonal_model(1, 1).matrix, 1), n=4)
        fiber = assemble_global_fiber(single_black_tree(link))
        assert fiber == sphere(4)

    def test_projected_black_white_is_sphere(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4)),
            (Edge(0, 1, 0, 0),),
        )
        assert assemble_global_fiber(g) == sphere(6)

    def test_projected_two_black(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), HopfLinkSpec(JJ, n=5, k=1)),
            (Edge(0, 1, 0, 0),),
        )
        fiber = assemble_global_fiber(g)
        assert fiber.betti == (1, 0, 4, 0, 4, 0, 1)

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
        fiber = assemble_global_fiber(DecoratedGraph(vertices, edges))
        assert fiber == sphere(4)

    def test_exotic_white_rejected(self):
        link = HopfLinkSpec(J, n=3)
        vertices = (
            link,
            disk(3),
            disk(3),
            FiberDescriptor((1, 1, 0, 0), 1),
        )
        edges = (Edge(0, 1, 0, 0), Edge(0, 2, 1, 0), Edge(0, 3, 2, 0))
        with pytest.raises(UnsupportedShapeError):
            assemble_global_fiber(DecoratedGraph(vertices, edges))

    def test_disconnected_rejected(self):
        t = single_black_tree(HopfLinkSpec(J, n=3))
        doubled = DecoratedGraph(
            t.vertices + tuple(t.vertices),
            t.edges + tuple(Edge(e.u + 4, e.v + 4, e.u_comp, e.v_comp) for e in t.edges),
        )
        with pytest.raises(UnsupportedShapeError):
            assemble_global_fiber(doubled)

    def test_euler_matches_betti_sum(self):
        for g in [
            single_black_tree(HopfLinkSpec(J, n=3)),
            parallel_pair(HopfLinkSpec(J, n=3)),
            parallel_pair(HopfLinkSpec(HF, n=4)),
        ]:
            fiber = assemble_global_fiber(g)
            assert fiber.euler == sum(
                b if i % 2 == 0 else -b for i, b in enumerate(fiber.betti)
            )


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
        fiber = assemble_global_fiber(g)
        assert fiber.betti == (1, 1, 1, 1)
