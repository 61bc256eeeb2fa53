import random
import signal
from fractions import Fraction

import pytest

from hopfcalc.cli import parse_spec
from hopfcalc.exactlinalg import AlgorithmMismatchError, Congruence, Inertia, IntMatrix, inertia
from hopfcalc.fixtures import fixture_path
from hopfcalc.forms import (
    BilinearForm,
    H_MATRIX,
    direct_sum,
    skew,
    zero_diagonal_model,
)
from hopfcalc.graphmodel import (
    DecoratedGraph,
    Edge,
    UnsupportedShapeError,
    family_dimensions,
    fiber_euler,
)
from hopfcalc.hopflink import (
    HopfLinkSpec,
    cylinder,
    derived_linking_matrix,
    disk,
    projection_filler,
)
from hopfcalc.invariants import (
    EVEN_K0,
    EVEN_KPOS,
    ODD_K0,
    ODD_KPOS,
    CupFormAnalysis,
    PhiBounds,
    ProductFactor,
    analyze_cup_form,
    assemble_cup_form,
    assemble_cup_form_k,
    canonical_homology_ranks,
    cup_form_for_family,
    detect_canonical_family,
    euler_characteristic,
    euler_obstructs,
    invariant_report,
    phi_bounds,
    product_phi_bound,
)
from hopfcalc.sampling import random_tree, random_zero_diagonal_form

from golden_cases import REPORT_INPUTS
from test_cli import GRAPH_FIXTURES
from test_exactlinalg import zeros
from test_graphmodel import parallel_pair, single_black_tree

J = skew([[0, 1], [-1, 0]])
HF = BilinearForm(H_MATRIX, 1)
JJ = direct_sum(J, J)
ZM = BilinearForm(zero_diagonal_model(1, 1).matrix, 1)


def _out_of_cpu_time(signum, frame):
    raise TimeoutError("over the CPU-time budget")


# every family-level entry point reads (n, k) from family_dimensions
FAMILY_FUNCTIONS = {
    "family_dimensions": family_dimensions,
    "assemble_cup_form": assemble_cup_form,
    "cup_form_for_family": cup_form_for_family,
    "euler_characteristic": euler_characteristic,
    "detect_canonical_family": detect_canonical_family,
    "invariant_report": lambda graphs: invariant_report(graphs, True),
}


class TestFamilyDimensions:
    def test_shared_dimensions(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert family_dimensions([tree, parallel_pair(HopfLinkSpec(J, n=3))]) == (3, 0)
        bw = one_edge_graph(HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4))
        assert family_dimensions([bw]) == (5, 1)

    @pytest.mark.parametrize("name", FAMILY_FUNCTIONS)
    def test_mixed_family_rejected(self, name):
        # both forms are symmetric, so a check of the sign alone lets this family through
        family = [single_black_tree(HopfLinkSpec(HF, n=4)), single_black_tree(HopfLinkSpec(HF, n=6))]
        with pytest.raises(UnsupportedShapeError, match=r"^graphs in a family must share \(n, k\), got \[\(4, 0\), \(6, 0\)\]$"):
            FAMILY_FUNCTIONS[name](family)

    @pytest.mark.parametrize("name", FAMILY_FUNCTIONS)
    def test_empty_family_rejected(self, name):
        with pytest.raises(ValueError, match="^empty graph family$") as info:
            FAMILY_FUNCTIONS[name]([])
        assert type(info.value) is ValueError


class TestAssembleCupForm:
    def test_single_black_tree_equals_linking_matrix(self):
        tree = single_black_tree(HopfLinkSpec(HF, n=4))
        form = assemble_cup_form([tree])
        assert form.matrix == derived_linking_matrix(HF)
        assert form.epsilon == 1

    def test_parallel_pair_doubles(self):
        pair = parallel_pair(HopfLinkSpec(HF, n=4))
        form = assemble_cup_form([pair])
        assert form.matrix == derived_linking_matrix(HF).scale(2)

    def test_disjoint_edges_give_block_diagonal(self):
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
        form = assemble_cup_form([DecoratedGraph(vertices, edges)])
        lk = derived_linking_matrix(HF)
        expected = IntMatrix.block_diagonal([lk, lk])
        # edge order: components 0,1,2 at the first vertex, then 0,1,2 at the second
        assert form.matrix == expected

    def test_family_blocks(self):
        tree = single_black_tree(HopfLinkSpec(HF, n=4))
        form = assemble_cup_form([tree, tree])
        lk = derived_linking_matrix(HF)
        assert form.matrix == IntMatrix.block_diagonal([lk, lk])

    def test_rejects_projected_graphs(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4)),
            (Edge(0, 1, 0, 0),),
        )
        with pytest.raises(UnsupportedShapeError):
            assemble_cup_form([g])

    def test_self_loop_keeps_all_ones_kernel(self):
        g = DecoratedGraph(
            (HopfLinkSpec(J, n=3), disk(3)),
            (Edge(0, 0, 1, 2), Edge(0, 1, 0, 0)),
        )
        form = assemble_cup_form([g])
        assert form.epsilon == -1
        ones = IntMatrix.from_rows([[1], [1]])
        assert form.matrix @ ones == zeros(2, 1)


def one_edge_graph(first, second):
    """Projected graph: a black vertex decorated by ``first`` joined to a black ``second`` or a white fiber."""
    return DecoratedGraph((first, second), (Edge(0, 1, 0, 0),))


class TestAssembleCupFormProjected:
    def test_black_white_is_inverse(self):
        spec = HopfLinkSpec(ZM, n=4, k=1)
        graph = one_edge_graph(spec, projection_filler(4, 1, 10))
        assert analyze_cup_form(assemble_cup_form_k(graph), [graph]).sigma == 8

    def test_two_black_hyperbolic(self):
        spec = HopfLinkSpec(HF, n=4, k=1)
        graph = one_edge_graph(spec, spec)
        form = assemble_cup_form_k(graph)
        assert form.matrix.to_rows() == [[0, 2], [2, 0]]
        assert analyze_cup_form(form, [graph]).sigma == 0

    def test_black_white_hyperbolic(self):
        spec = HopfLinkSpec(HF, n=4, k=1)
        form = assemble_cup_form_k(one_edge_graph(spec, projection_filler(4, 1, 2)))
        assert form.matrix == H_MATRIX

    def test_requires_projection(self):
        # no one-edge graph is valid at k = 0 (a black vertex needs d + 1 >= 3 edge ends), so this is the tree
        with pytest.raises(UnsupportedShapeError, match="^projected shapes need k >= 1$"):
            assemble_cup_form_k(single_black_tree(HopfLinkSpec(HF, n=4)))

    def test_two_edges_rejected_by_one_rule(self):
        # black - cylinder - black: valid, but no projected shape has two edges
        link = HopfLinkSpec(JJ, n=5, k=1)
        g = DecoratedGraph(
            (link, cylinder(6), link),
            (Edge(0, 1, 0, 0), Edge(2, 1, 0, 1)),
        )
        with pytest.raises(UnsupportedShapeError, match="^projected graphs support exactly one edge$"):
            fiber_euler(g)
        with pytest.raises(UnsupportedShapeError, match="^projected graphs support exactly one edge$"):
            cup_form_for_family([g])

    def test_size_mismatch(self):
        g = one_edge_graph(HopfLinkSpec(HF, n=4, k=1), HopfLinkSpec(ZM, n=4, k=1))
        with pytest.raises(UnsupportedShapeError, match="^the two projected decorations must have equal size$"):
            assemble_cup_form_k(g)


class TestAnalyzeCupForm:
    def test_tree_kernel_is_all_ones(self):
        tree = single_black_tree(HopfLinkSpec(HF, n=4))
        analysis = analyze_cup_form(assemble_cup_form([tree]), [tree])
        assert analysis.kernel_dim == 1
        assert analysis.kernel_basis[0] == (Fraction(1),) * 3
        assert analysis.sigma == 0

    def test_signature_transfer(self):
        tree = single_black_tree(HopfLinkSpec(ZM, n=4))
        analysis = analyze_cup_form(assemble_cup_form([tree]), [tree])
        assert analysis.sigma == 8
        assert analysis.kernel_dim == 1
        assert analysis.inertia == Inertia(9, 1, 1)

    def test_skew_sigma_is_zero(self):
        # the projected black-white form is the inverse of J + J, a skew form with no kernel
        graph = one_edge_graph(HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4))
        analysis = analyze_cup_form(cup_form_for_family([graph]), [graph])
        assert analysis.sigma == 0
        assert analysis.inertia is None
        assert analysis.kernel_dim == 0

    def test_randomized_trees(self):
        rng = random.Random(41)
        for _ in range(30):
            eps = rng.choice([1, -1])
            form = random_zero_diagonal_form(rng, eps)
            n = 4 if eps == 1 else 3
            tree = single_black_tree(HopfLinkSpec(form, n=n))
            analysis = analyze_cup_form(assemble_cup_form([tree]), [tree])
            d1 = form.dim + 1
            assert analysis.kernel_dim == 1
            lead = analysis.kernel_basis[0][0]
            assert analysis.kernel_basis[0] == (lead,) * d1
            if eps == 1:
                base = inertia(form.matrix)
                assert analysis.inertia == Inertia(base.n_plus, base.n_minus, 1)
                assert analysis.sigma == base.sigma


def assert_matches_congruence(graphs, structural=True):
    """``analyze_cup_form`` gives the inertia and the kernel basis, in order, of the cup form's own congruence.

    A form read off the decorations is never eliminated; a fallback keeps the congruence on the form.
    """
    form = cup_form_for_family(graphs)
    analysis = analyze_cup_form(form, graphs)
    assert ("_congruence" in vars(form)) is not structural
    reference = Congruence(form.matrix, form.epsilon)
    assert analysis.kernel_basis == reference.kernel
    assert analysis.inertia == (reference.inertia if form.epsilon == 1 else None)
    return analysis


class TestStructuralCupForm:
    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    def test_every_graph_fixture(self, name):
        # the pair's three parallel edges close a cycle of arcs, so its form takes the fallback
        assert_matches_congruence(list(parse_spec(fixture_path(name)).graphs), name != "pair_allblack.json")

    def test_one_vertex_trees(self):
        rng = random.Random(60)
        for trial in range(60):
            assert assert_matches_congruence([random_tree(rng, (-1) ** trial, 1)]).kernel_dim == 1

    def test_trees_of_two_to_four_black_vertices(self):
        rng = random.Random(80)
        dims = set()
        for trial in range(80):
            dims.add(assert_matches_congruence([random_tree(rng, (-1) ** trial, rng.randint(2, 4))]).kernel_dim)
        assert dims == {1, 2, 3, 4}  # a cylinder between two black vertices separates their trees

    def test_two_graph_family_numbers_edges_across_the_family(self):
        rng = random.Random(2)
        for trial in range(20):
            graphs = [random_tree(rng, (-1) ** trial, rng.randint(1, 3)) for _ in range(2)]
            assert assert_matches_congruence(graphs).kernel_dim >= 2

    @pytest.mark.parametrize(
        "loop, other", [(Edge(0, 0, 1, 2), 0), (Edge(0, 0, 0, 1), 2)], ids=["repeated-arc", "self-arc"]
    )
    def test_loop_edge_takes_the_fallback(self, loop, other):
        # a loop on components 1 and 2 repeats the arc to component 0's edge; on 0 and 1 it is a self-arc
        for link in (HopfLinkSpec(HF, n=4), HopfLinkSpec(J, n=3)):
            graph = DecoratedGraph((link, disk(link.n)), (loop, Edge(0, 1, other, 0)))
            assert_matches_congruence([graph], structural=False)

    def test_two_black_projected_form_takes_the_fallback(self):
        spec = HopfLinkSpec(ZM, n=4, k=1)
        assert assert_matches_congruence([one_edge_graph(spec, spec)], structural=False).sigma == 8


class TestEuler:
    def test_low_dimension_tree(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert euler_characteristic([tree]) == -2

    def test_even_tree(self):
        tree = single_black_tree(HopfLinkSpec(ZM, n=4))
        assert euler_characteristic([tree]) == 14

    def test_all_black_pair(self):
        pair = parallel_pair(HopfLinkSpec(J, n=3))
        assert euler_characteristic([pair]) == -4

    def test_odd_families_give_minus_t(self):
        from hopfcalc.graphmodel import graph_counts

        pair = parallel_pair(HopfLinkSpec(J, n=3))
        for family in ([pair], [pair, pair]):
            t = sum(graph_counts(g).t for g in family)
            assert euler_characteristic(family) == -t

    def test_even_all_black_parity(self):
        from hopfcalc.graphmodel import graph_counts

        pair = parallel_pair(HopfLinkSpec(HF, n=4))
        chi = euler_characteristic([pair])
        s = graph_counts(pair).s_black
        assert chi % 2 == s % 2

    def test_mismatched_g_rejected(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        pair = parallel_pair(HopfLinkSpec(J, n=3))
        with pytest.raises(ValueError):
            euler_characteristic([tree, pair])

    def test_projected_black_white(self):
        g = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4)),
            (Edge(0, 1, 0, 0),),
        )
        # chi(S^4) * chi(S^6) + (-1)^5 * 4 = 4 - 4
        assert euler_characteristic([g]) == 0


class TestHomologyTables:
    def test_even_k0(self):
        ranks = canonical_homology_ranks(EVEN_K0, 4, 0, 3)
        assert ranks[4] == 5
        assert ranks[0] == ranks[8] == 1
        assert all(r == 0 for i, r in ranks.items() if i not in (0, 4, 8))

    def test_even_kpos(self):
        ranks = canonical_homology_ranks(EVEN_KPOS, 5, 1, 4)
        assert (ranks[4], ranks[5], ranks[6]) == (1, 4, 1)

    def test_odd_k0(self):
        ranks = canonical_homology_ranks(ODD_K0, 4, 0, 2)
        assert (ranks[4], ranks[5]) == (3, 3)
        assert len(ranks) == 10  # dimension 2n + 1 = 9

    def test_odd_kpos(self):
        ranks = canonical_homology_ranks(ODD_KPOS, 5, 2, 4)
        assert (ranks[3], ranks[5], ranks[6], ranks[8]) == (1, 4, 4, 1)

    def test_odd_dimension_tables_have_zero_euler(self):
        for family in (ODD_K0, ODD_KPOS):
            for n in (3, 4, 5):
                for d in (4, 6):
                    k = 0 if family == ODD_K0 else 1
                    ranks = canonical_homology_ranks(family, n, k, d)
                    chi = sum(r if i % 2 == 0 else -r for i, r in ranks.items())
                    assert chi == 0

    @pytest.mark.parametrize(
        "family,n,k,d",
        [
            (EVEN_K0, 2, 0, 3),  # n too small
            (EVEN_K0, 4, 1, 3),  # k must be 0
            (EVEN_KPOS, 4, 0, 5),  # k must be >= 1
            (EVEN_KPOS, 4, 3, 5),  # k > n - 2
            (EVEN_KPOS, 4, 1, 3),  # d too small
            (ODD_K0, 4, 0, 0),  # d too small
            (ODD_KPOS, 5, 4, 6),  # k > n - 2
        ],
    )
    def test_rejects_out_of_hypothesis(self, family, n, k, d):
        with pytest.raises(ValueError):
            canonical_homology_ranks(family, n, k, d)

    def test_n_bound_within_cpu_budget(self):
        # a table of 2n + 1 entries took 4.3 s of CPU time and 1.3 GB at n = 10**7
        previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
        signal.setitimer(signal.ITIMER_PROF, 1)
        try:
            with pytest.raises(ValueError, match="n: n <= 10000 required"):
                canonical_homology_ranks(EVEN_K0, 10**7, 0, 1)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def family_phi_bounds(graphs):
    """``phi_bounds`` with the chi, signature and canonical shape that ``invariant_report`` passes."""
    chi = euler_characteristic(graphs)
    sigma = analyze_cup_form(cup_form_for_family(graphs), graphs).sigma
    return phi_bounds(graphs, chi, sigma, detect_canonical_family(graphs))


class TestPhiBounds:
    def test_canonical_tree(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        bounds = family_phi_bounds([tree])
        assert (bounds.lower, bounds.upper) == (1, 1)

    def test_odd_target_family(self):
        pair = parallel_pair(HopfLinkSpec(J, n=3))
        bounds = family_phi_bounds([pair, pair])
        assert (bounds.lower, bounds.upper) == (1, 4)

    def test_even_target_even_s_no_certificate(self):
        pair = parallel_pair(HopfLinkSpec(HF, n=4))
        bounds = family_phi_bounds([pair])
        assert (bounds.lower, bounds.upper) == (0, 2)
        assert any("no obstruction certified" in note for note in bounds.notes)

    def test_even_target_signature_certificate(self):
        tree = single_black_tree(HopfLinkSpec(ZM, n=4))
        pair = [tree, tree]
        bounds = family_phi_bounds(pair)
        assert (bounds.lower, bounds.upper) == (1, 2)
        assert any("signature" in note for note in bounds.notes)

    @pytest.mark.parametrize(
        "sigma, canonical, expected",
        [(0, None, (0, 2)), (-8, None, (1, 2)), (0, (EVEN_K0, 2), (1, 1))],
    )
    def test_rule_reads_only_what_it_is_passed(self, sigma, canonical, expected):
        # even target, s = 2, even chi: the passed signature and canonical shape decide the lower bound
        pair = [parallel_pair(HopfLinkSpec(HF, n=4))]
        bounds = phi_bounds(pair, 6, sigma, canonical)
        assert (bounds.lower, bounds.upper) == expected
        assert sigma == 0 or bounds.notes == (f"nonzero signature {sigma} obstructs fibering over any sphere",)

    def test_odd_chi_over_even_sphere_obstructs(self):
        # no spec reaches this branch: every accepted decoration has even rank, so chi is even here
        tree = [single_black_tree(HopfLinkSpec(HF, n=4))]
        bounds = phi_bounds(tree, 3, 0, None)
        assert (bounds.lower, bounds.upper) == (1, 1)
        assert bounds.notes == ("even n-k: the glued manifold has odd Euler characteristic, no fibration",)

    @pytest.mark.parametrize(
        "chi, target, obstructed",
        [(0, 3, False), (-4, 3, True), (1, 3, True), (0, 4, False), (14, 4, False), (-3, 4, True), (1, 2, True)],
    )
    def test_euler_obstruction(self, chi, target, obstructed):
        assert euler_obstructs(chi, target) is obstructed

    def test_detect_canonical(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        assert detect_canonical_family([tree]) == (EVEN_K0, 2)
        bw = DecoratedGraph(
            (HopfLinkSpec(JJ, n=5, k=1), projection_filler(5, 1, 4)),
            (Edge(0, 1, 0, 0),),
        )
        assert detect_canonical_family([bw]) == (EVEN_KPOS, 4)
        pair = parallel_pair(HopfLinkSpec(J, n=3))
        assert detect_canonical_family([pair]) is None
        link = HopfLinkSpec(JJ, n=5, k=1)
        two_black = DecoratedGraph((link, link), (Edge(0, 1, 0, 0),))
        assert detect_canonical_family([two_black]) is None
        mismatched = DecoratedGraph(
            (link, projection_filler(5, 1, 5)), (Edge(0, 1, 0, 0),)
        )
        assert detect_canonical_family([mismatched]) is None
        # no 3x3 zero-diagonal decoration is unimodular, but the library accepts one
        triangle = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        small = HopfLinkSpec(BilinearForm(triangle, 1), n=4, k=1)
        capped = DecoratedGraph(
            (small, projection_filler(4, 1, 3)), (Edge(0, 1, 0, 0),)
        )
        assert fiber_euler(capped) == 0  # S^5
        assert detect_canonical_family([capped]) is None


class TestProductBounds:
    def test_two_spheres(self):
        bound = product_phi_bound([ProductFactor("S4"), ProductFactor("S4")])
        assert (bound.lower, bound.upper) == (1, 4)

    def test_single_connected_sum(self):
        bound = product_phi_bound([ProductFactor("connsum", 1)])
        assert (bound.lower, bound.upper, bound.euler) == (1, 4, 4)

    def test_mixed_product(self):
        bound = product_phi_bound(
            [ProductFactor("connsum", 1), ProductFactor("connsum", 2)]
        )
        assert (bound.lower, bound.upper, bound.euler) == (1, 24, 24)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_phi_bound([])


class TestInvariantReport:
    def test_even_tree_report(self):
        tree = single_black_tree(HopfLinkSpec(ZM, n=4))
        report = invariant_report([tree], True)
        assert report.chi == 14
        assert report.analysis.sigma == 8
        assert report.analysis.kernel_dim == 1
        assert report.homology_ranks is not None and report.homology_ranks[4] == 12
        assert (report.phi.lower, report.phi.upper) == (1, 1)
        assert any("does not fiber over any sphere" in v for v in report.verdicts)

    def test_inconsistent_report_is_internal_fault(self):
        assert PhiBounds(1, 1, ()).lower == 1
        with pytest.raises(AlgorithmMismatchError, match="out of order"):
            PhiBounds(2, 1, ())

    def test_nullity_disagreeing_with_kernel_is_internal_fault(self):
        report = invariant_report([single_black_tree(HopfLinkSpec(ZM, n=4))], False)
        ine = report.analysis.inertia
        assert ine is not None and ine.n_zero == report.analysis.kernel_dim == 1
        with pytest.raises(AlgorithmMismatchError, match="nullity"):
            CupFormAnalysis(Inertia(ine.n_plus, ine.n_minus, ine.n_zero + 1), report.analysis.kernel_basis)

    def test_odd_target_verdict_is_nonzero_chi(self):
        # over an odd sphere chi(S^{n-k}) = 0 leaves chi = (-1)^n t, with t >= 1 handles, so the first verdict
        # always finds the obstruction
        families = [spec.graphs for spec in map(parse_spec, REPORT_INPUTS.values()) if spec.graphs]
        rng = random.Random(39)
        families += [[random_tree(rng, -1, 1 + i % 4)] for i in range(25)]
        odd = 0
        for graphs in families:
            n, k = family_dimensions(graphs)
            if (n - k) % 2:
                odd += 1
                report = invariant_report(graphs, False)
                assert report.chi != 0
                assert report.verdicts[0] == (
                    f"chi = {report.chi} is nonzero: the manifold does not fiber over S^{n - k}")
        assert odd == 25 + 3  # the random skew trees, pair_allblack.json, proj_sig.json and tree_h.json

    def test_without_cobounding_flag(self):
        tree = single_black_tree(HopfLinkSpec(J, n=3))
        report = invariant_report([tree], False)
        assert report.phi is None
        assert any("cobounding not asserted" in note for note in report.notes)
