import pytest

from hopfcalc.forms import BilinearForm, H_MATRIX, direct_sum, skew, zero_diagonal_model
from hopfcalc.graphmodel import (
    BlackVertex,
    DecoratedGraph,
    Edge,
    GraphValidationError,
    UnsupportedShapeError,
    WhiteVertex,
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
    holed_disk,
    projection_filler,
    sphere,
)

J = skew([[0, 1], [-1, 0]])
HF = BilinearForm(H_MATRIX, 1)
JJ = direct_sum(J, J)


def single_black_tree(link: HopfLinkSpec) -> DecoratedGraph:
    """One black vertex, one white disk per link component."""
    n, d = link.n, link.d
    vertices = [BlackVertex(link)] + [WhiteVertex(disk(n)) for _ in range(d + 1)]
    edges = [Edge(0, i + 1, i, 0) for i in range(d + 1)]
    return DecoratedGraph(tuple(vertices), tuple(edges))


def parallel_pair(link: HopfLinkSpec) -> DecoratedGraph:
    """Two black vertices joined by one edge per component, matching indices."""
    d = link.d
    return DecoratedGraph(
        (BlackVertex(link), BlackVertex(link)),
        tuple(Edge(0, 1, i, i) for i in range(d + 1)),
    )


class TestValidate:
    def test_tree_ok(self):
        assert validate_graph(single_black_tree(HopfLinkSpec(J, n=3))).ok

    def test_missing_leaf(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        mutated = DecoratedGraph(tree.vertices, tree.edges[:-1])
        report = validate_graph(mutated)
        assert not report.ok
        assert any("degree 2" in v.message and v.locus == "vertices[0]" for v in report.violations)

    def test_skew_even_degree_rejected(self):
        # a 3x3 skew decoration gives 4 link components: even degree
        odd_skew = skew([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        tree = single_black_tree(HopfLinkSpec(odd_skew, n=3))
        report = validate_graph(tree)
        assert any("odd degree" in v.message for v in report.violations)

    def test_no_black_vertex(self):
        g = DecoratedGraph(
            (WhiteVertex(cylinder(3)),), (Edge(0, 0, 0, 1),)
        )
        assert any(v.message == "no black vertex" for v in validate_graph(g).violations)

    def test_component_assignment_must_be_bijection(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        edges = list(tree.edges)
        edges[1] = Edge(edges[1].u, edges[1].v, 0, 0)  # duplicates component 0
        report = validate_graph(DecoratedGraph(tree.vertices, tuple(edges)))
        assert any("not a bijection" in v.message for v in report.violations)

    def test_mixed_dimensions_rejected(self):
        g = DecoratedGraph(
            (BlackVertex(HopfLinkSpec(JJ, n=5, k=1)), BlackVertex(HopfLinkSpec(JJ, n=5, k=2))),
            (Edge(0, 1, 0, 0),),
        )
        assert any("mix dimensions" in v.message for v in validate_graph(g).violations)

    def test_edge_out_of_range(self):
        g = DecoratedGraph((BlackVertex(HopfLinkSpec(J, n=3)),), (Edge(0, 7, 0, 1), Edge(0, 0, 1, 2)))
        assert any("out of range" in v.message for v in validate_graph(g).violations)

    def test_canonical_shapes_accept_and_mutations_reject(self):
        n = 5
        d = 4
        spun_whites = [WhiteVertex(disk(n + 1))] + [
            # S^1 x D^n pieces capping the swept components
            WhiteVertex(FiberDescriptor.from_betti((1, 1) + (0,) * (n - 1), 1))
            for _ in range(d)
        ]
        spun_tree = DecoratedGraph(
            (BlackVertex(HopfLinkSpec(JJ, n=n)), *spun_whites),
            tuple(Edge(0, i + 1, i, 0) for i in range(d + 1)),
        )
        spun_projected_white = WhiteVertex(
            # boundary sum of D^n x S^{k+1} pieces and S^k x D^{n+1} pieces
            FiberDescriptor.from_betti((1, d, d) + (0,) * (n - 1), 1)
        )
        shapes = [
            # one singular point over an even-dimensional source, k = 0 and k >= 1
            single_black_tree(HopfLinkSpec(J, n=3)),
            single_black_tree(HopfLinkSpec(BilinearForm(zero_diagonal_model(1, 1).matrix, 1), n=4)),
            DecoratedGraph(
                (BlackVertex(HopfLinkSpec(JJ, n=n, k=1)), WhiteVertex(projection_filler(n, 1, d))),
                (Edge(0, 1, 0, 0),),
            ),
            # odd-dimensional source: spun decoration with one disk and d thickened
            # circles, and its projected version capped by a single white piece
            spun_tree,
            DecoratedGraph(
                (BlackVertex(HopfLinkSpec(JJ, n=n, k=1)), spun_projected_white),
                (Edge(0, 1, 0, 0),),
            ),
        ]
        for g in shapes:
            assert validate_graph(g).ok
            mutated = DecoratedGraph(g.vertices, g.edges[:-1])
            assert not validate_graph(mutated).ok


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
            (BlackVertex(HopfLinkSpec(JJ, n=5, k=1)), BlackVertex(HopfLinkSpec(JJ, n=5, k=1))),
            (Edge(0, 1, 0, 0),),
        )
        counts = graph_counts(g)
        assert (counts.m, counts.g, counts.t) == (1, 0, 8)

    def test_invalid_graph_raises(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        with pytest.raises(GraphValidationError):
            graph_counts(DecoratedGraph(tree.vertices, tree.edges[:-1]))


class TestProjectedPair:
    def test_link_comes_first(self):
        link = HopfLinkSpec(JJ, n=5, k=1)
        filler = projection_filler(5, 1, 4)
        g = DecoratedGraph((WhiteVertex(filler), BlackVertex(link)), (Edge(1, 0, 0, 0),))
        assert projected_pair(g) == (link, filler)
        assert g.projected is g.projected

    def test_unprojected_and_invalid_graphs_raise(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        with pytest.raises(UnsupportedShapeError, match="k >= 1"):
            projected_pair(tree)
        with pytest.raises(GraphValidationError):
            projected_pair(DecoratedGraph(tree.vertices, tree.edges[:-1]))


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
            (BlackVertex(HopfLinkSpec(JJ, n=5, k=1)), WhiteVertex(projection_filler(5, 1, 4))),
            (Edge(0, 1, 0, 0),),
        )
        assert assemble_global_fiber(g) == sphere(6)

    def test_projected_two_black(self):
        g = DecoratedGraph(
            (BlackVertex(HopfLinkSpec(JJ, n=5, k=1)), BlackVertex(HopfLinkSpec(JJ, n=5, k=1))),
            (Edge(0, 1, 0, 0),),
        )
        fiber = assemble_global_fiber(g)
        assert fiber.betti == (1, 0, 4, 0, 4, 0, 1)

    def test_cylinder_whites_are_trivial(self):
        link = HopfLinkSpec(HF, n=4)
        vertices = (
            BlackVertex(link),
            WhiteVertex(disk(4)),
            WhiteVertex(disk(4)),
            WhiteVertex(cylinder(4)),
            BlackVertex(link),
            WhiteVertex(disk(4)),
            WhiteVertex(disk(4)),
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
            BlackVertex(link),
            WhiteVertex(disk(3)),
            WhiteVertex(disk(3)),
            WhiteVertex(FiberDescriptor.from_betti((1, 1, 0, 0), 1)),
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
        g = DecoratedGraph(
            (BlackVertex(link), WhiteVertex(disk(3))),
            (Edge(0, 0, 1, 2), Edge(0, 1, 0, 0)),
        )
        assert validate_graph(g).ok
        counts = graph_counts(g)
        assert (counts.m, counts.g, counts.t) == (2, 1, 2)
        fiber = assemble_global_fiber(g)
        assert fiber.betti == (1, 1, 1, 1)
