import random
import signal
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc import exactlinalg
from hopfcalc.exactlinalg import (
    IntMatrix,
    NotUnimodularError,
    inverse_unimodular,
    smith_normal_form,
)
from hopfcalc.forms import (
    BilinearForm,
    H_MATRIX,
    build_standard,
    direct_sum,
    skew,
    symmetric,
    zero_diagonal_model,
)
from hopfcalc.graphmodel import DecoratedGraph, Edge, fiber_euler
from hopfcalc.hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    admissibility_check,
    cylinder,
    derived_linking_matrix,
    disk,
    is_cylinder,
    presentation_oracle,
    projection_filler,
)
from hopfcalc.sampling import random_zero_diagonal_form

from test_cli import counted_calls
from test_exactlinalg import diagonal, zeros
from test_graphmodel import inclusion_exclusion, reference_pieces, single_black_tree

J = skew([[0, 1], [-1, 0]])
HF = BilinearForm(H_MATRIX, 1)


def oracle_corpus():
    """Small forms over which the oracle must reproduce the linking matrix."""
    # every 2x2 zero-diagonal unimodular symmetric form: off-diagonal entry -1, then 1
    forms = [symmetric([[0, b], [b, 0]]) for b in (-1, 1)]
    forms += [J, skew([[0, -1], [1, 0]])]
    forms += [direct_sum(J, J), direct_sum(J, skew([[0, -1], [1, 0]]))]
    # a skew rank-4 representative with entries up to 2
    forms.append(
        skew([[0, 2, 1, 1], [-2, 0, -2, 1], [-1, 2, 0, 1], [-1, -1, -1, 0]])
    )
    forms += [HF, build_standard(1, 1)]
    return forms


def reference_presentation(form, s):
    """Smith form of the unreduced filling presentation: the oracle's reference.

    Generators are mu_0..mu_d, then delta_i for the filled components; one
    relation per column.  Returns (invariant factors, free rank, linking
    vector or None), the free coordinate being the last row of U.
    """
    d = form.dim
    owners = [i for i in range(d + 1) if i != s]
    delta = {i: d + 1 + pos for pos, i in enumerate(owners)}
    gens = d + 1 + len(owners)
    relations = []
    for i in owners:
        rel = [0] * gens
        if i == 0:
            rel[delta[0]] = 1
            for j in range(1, d + 1):
                rel[j] = 1
        else:
            rel[i] = 1
            rel[delta[i]] = -1
        relations.append(rel)
    for i in owners:
        rel = [0] * gens
        if i == 0:
            rel[0] = 1
        else:
            rel[0] = 1 if s == 0 else 0
            for j in range(1, d + 1):
                rel[j] = form.matrix.at(i - 1, j - 1)
        relations.append(rel)
    snf = smith_normal_form(IntMatrix.from_rows([[rel[g] for rel in relations] for g in range(gens)]))
    factors = snf.invariant_factors()
    free_rank = gens - len(factors)
    if not (free_rank == 1 and all(f == 1 for f in factors)):
        return factors, free_rank, None
    proj = snf.u.row(len(factors))
    return factors, free_rank, (-sum(proj[1 : d + 1]),) + proj[1 : d + 1]


def random_decoration(rng, d, epsilon):
    """Zero-diagonal epsilon-symmetric d x d form, entries -2..2, often singular or of |det| > 1."""
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = rng.randint(-2, 2) if rng.random() < 0.7 else 0
            rows[i][j], rows[j][i] = x, epsilon * x
    return BilinearForm(IntMatrix.from_rows(rows), epsilon)


def _filling_relations(rows, s):
    """Relations of the unreduced filling presentation of component s, one dense row each.

    Generators are mu_0..mu_d, then delta_i for the filled components i != s
    in increasing i: the core relations (mu_i - delta_i, and
    delta_0 + mu_1 + ... + mu_d), then the decorated ones (mu_0 for i = 0,
    row i of A otherwise, plus mu_0 when s = 0).
    """
    d = len(rows)
    owners = [i for i in range(d + 1) if i != s]
    out = []
    for pos, i in enumerate(owners):
        core = [0] * (2 * d + 1)
        core[d + 1 + pos] = 1 if i == 0 else -1
        if i:
            core[i] = 1
        else:
            core[1 : d + 1] = [1] * d
        out.append(core)
    for i in owners:
        out.append([int(s == 0 or i == 0)] + (rows[i - 1] if i else [0] * d) + [0] * d)
    return out


def _dot(u, v):
    return sum(map(mul, u, v))


def relifted(mu, s):
    """Coordinates of component s from its values on mu_0..mu_d, the deltas set as the Tietze moves set them."""
    return mu + [mu[i] if i else -sum(mu[1:]) for i in range(len(mu)) if i != s]


def dense_rejects(rows, lk, s):
    """Whether the unreduced presentation of component s rejects column s of ``lk``, lifted by ``relifted``.

    mu_0 is 1 for s = 0 and 0 otherwise, mu_1..mu_d are lk[1:, s]; one dot
    product per relation, and the set-aside relation must take 1.  Row 0 of
    ``lk`` does not enter.
    """
    d = len(rows)
    lifted = relifted([int(s == 0)] + [lk[i][s] for i in range(1, d + 1)], s)
    y, aside = (lifted[: d + 1], [1] + [0] * d) if s == 0 else (lifted[1 : d + 1], rows[s - 1])
    return any(_dot(lifted, r) for r in _filling_relations(rows, s)) or _dot(y, aside) != 1


def row_zero_fails(lk, s):
    return lk[0][s] != -sum(row[s] for row in lk[1:])


def with_column(lk, s, column):
    """A copy of ``lk`` (a list of rows) with column s replaced."""
    return [row[:s] + [x] + row[s + 1 :] for row, x in zip(lk, column)]


def flagged(form, lk):
    """Components whose column of ``lk`` (a list of rows) the oracle rejects, in increasing order."""
    return [s for s, match in enumerate(presentation_oracle(form, IntMatrix.from_rows(lk))) if not match]


def _out_of_cpu_time(signum, frame):
    raise TimeoutError("over the CPU-time budget")


class TestDerivedLinkingMatrix:
    def test_hyperbolic(self):
        assert derived_linking_matrix(HF).to_rows() == [[2, -1, -1], [-1, 0, 1], [-1, 1, 0]]

    def test_skew(self):
        assert derived_linking_matrix(J).to_rows() == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]

    def test_e8_plus_h_row_sums(self):
        lk = derived_linking_matrix(build_standard(1, 1))
        assert lk.rows == 11
        assert all(sum(lk.row(i)) == 0 for i in range(11))

    def test_interior_block_is_inverse(self):
        for form in oracle_corpus():
            lk = derived_linking_matrix(form)
            inv = inverse_unimodular(form.matrix)
            for i in range(form.dim):
                for j in range(form.dim):
                    assert lk.at(i + 1, j + 1) == inv.at(i, j)

    def test_epsilon_symmetry(self):
        for form in oracle_corpus():
            lk = derived_linking_matrix(form)
            assert lk.transpose() == lk.scale(form.epsilon)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            derived_linking_matrix(symmetric([[0, 2], [2, 0]]))

    def test_row_sum_identity_randomized(self):
        rng = random.Random(31)
        for _ in range(60):
            form = random_zero_diagonal_form(rng, rng.choice([1, -1]))
            lk = derived_linking_matrix(form)
            assert all(sum(lk.row(i)) == 0 for i in range(lk.rows))


def _oracle_within_cpu_budget(form, seconds):
    previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        return presentation_oracle(form, derived_linking_matrix(form))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def _assert_all_match(form, matches):
    assert matches == (True,) * (form.dim + 1), form.matrix.to_rows()


class TestPresentationOracle:
    def test_hyperbolic_component_1(self):
        lk = derived_linking_matrix(HF).to_rows()
        assert [row[1] for row in lk] == [-1, 0, 1] and flagged(HF, lk) == []
        lk[1][1] = 1  # A (1, 1) = (1, 1) is not e_1
        assert flagged(HF, lk) == [1]

    def test_hyperbolic_preferred_component(self):
        lk = derived_linking_matrix(HF).to_rows()
        assert [row[0] for row in lk] == [2, -1, -1] and flagged(HF, lk) == []
        lk[0][0] = -2  # A (-1, -1) = -1 still holds, but row 0 must be 1 + 1
        assert flagged(HF, lk) == [0]

    def test_negated_column_is_rejected(self):
        lk = derived_linking_matrix(HF).to_rows()
        for s in range(3):
            assert flagged(HF, with_column(lk, s, [-row[s] for row in lk])) == [s]

    def test_non_unimodular_reports_torsion(self):
        form = symmetric([[0, 2], [2, 0]])
        with pytest.raises(NotUnimodularError):
            presentation_oracle(form, zeros(3, 3))
        # the reference presents Z + Z/2 for component 1: the torsion the oracle refuses to certify
        assert reference_presentation(form, 1) == ((1, 1, 1, 2), 1, None)

    def test_non_unimodular_raises_before_any_product(self, monkeypatch):
        calls = counted_calls(monkeypatch, ((IntMatrix, "__matmul__"),))
        with pytest.raises(NotUnimodularError, match="determinant 2$"):
            presentation_oracle(BilinearForm(diagonal([1, 2]), 1), zeros(3, 3))
        assert calls == Counter()

    @pytest.mark.parametrize("form", [HF, zero_diagonal_model(1, 1), zero_diagonal_model(3, 2)], ids=["d2", "d10", "d28"])
    def test_one_product_and_no_elimination(self, form, monkeypatch):
        lk = derived_linking_matrix(form)
        calls = counted_calls(monkeypatch, ((exactlinalg, "_symmetric_bareiss"), (exactlinalg, "_gauss_jordan")))
        shapes = []
        matmul = IntMatrix.__matmul__

        def recorded(left, right):
            shapes.append((left.rows, left.cols, right.rows, right.cols))
            return matmul(left, right)

        monkeypatch.setattr(IntMatrix, "__matmul__", recorded)
        _assert_all_match(form, presentation_oracle(form, lk))
        # the certified inverse answers columns 1..d; column 0 takes one d x d by d x 1 product
        assert calls == Counter()
        assert shapes == [(form.dim, form.dim, form.dim, 1)]

    def test_full_corpus_all_components(self):
        for form in oracle_corpus():
            _assert_all_match(form, presentation_oracle(form, derived_linking_matrix(form)))

    def test_one_result_per_component(self):
        for form in (HF, zero_diagonal_model(1, 1)):
            assert len(presentation_oracle(form, derived_linking_matrix(form))) == form.dim + 1

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_matches_reference_smith_form(self, epsilon):
        rng = random.Random(61 + epsilon)
        kinds = set()
        for _ in range(150):
            form = random_decoration(rng, rng.randint(1, 6), epsilon)
            d = form.dim
            kinds.add(form.is_unimodular())
            if not form.is_unimodular():
                with pytest.raises(NotUnimodularError):
                    presentation_oracle(form, zeros(d + 1, d + 1))
                continue
            lk = derived_linking_matrix(form).to_rows()
            for s in range(d + 1):
                factors, free_rank, vector = reference_presentation(form, s)
                # the reference's group is the "Z" the oracle reports
                assert free_rank == 1 and all(f == 1 for f in factors), (form.matrix.to_rows(), s)
                # of the reference's two generators, the oracle accepts the one in the printed column
                generators = (vector, tuple(-x for x in vector))
                accepted = [g for g in generators if flagged(form, with_column(lk, s, g)) == []]
                assert accepted == [tuple(row[s] for row in lk)], (form.matrix.to_rows(), s)
        assert kinds == {True, False}

    def test_d28_all_components_within_cpu_budget(self):
        # Smith-form transform growth made this take about 40 s of CPU time
        form = zero_diagonal_model(3, 2)
        _assert_all_match(form, _oracle_within_cpu_budget(form, 3))

    def test_d56_all_components_within_cpu_budget(self):
        # d + 1 separate solves took about 1.2 s of CPU time; one elimination for all takes under 0.1 s
        form = zero_diagonal_model(6, 4)
        _assert_all_match(form, _oracle_within_cpu_budget(form, 0.6))

    # each edit of column s flags s alone: perturb_entry adds 1 to each entry in turn, row 0 included,
    # and s = 0 is column 0
    @pytest.mark.parametrize("corrupt", ["double", "perturb_entry"])
    def test_corrupted_solve_is_caught(self, corrupt):
        form = zero_diagonal_model(1, 1)
        d = form.dim
        true = derived_linking_matrix(form).to_rows()
        for s in range(d + 1):
            column = [row[s] for row in true]
            if corrupt == "double":
                edits = [[2 * x for x in column]]
            else:
                edits = [[x + (j == i) for j, x in enumerate(column)] for i in range(d + 1)]
            for edited in edits:
                assert flagged(form, with_column(true, s, edited)) == [s], (s, edited)

    @pytest.mark.parametrize("first, second", [(1, 2), (3, 7), (2, 10), (0, 5)])
    def test_swapped_components_are_caught(self, first, second):
        form = zero_diagonal_model(1, 1)
        lk = derived_linking_matrix(form).to_rows()
        for row in lk:
            row[first], row[second] = row[second], row[first]
        assert flagged(form, lk) == [first, second]

    # one relation class broken at a time, in column 3 alone: row 0 off by one
    # (the core relation delta_0 + mu_1 + ... + mu_d, which the lift by
    # ``relifted`` satisfies), column 3 plus column 5 (row 5 of A takes 1, a
    # decorated row), twice column 3 (row 3 of A, set aside, takes 2)
    @pytest.mark.parametrize("relation", ["core", "decorated", "set_aside"])
    def test_each_relation_class_is_checked(self, relation):
        form = zero_diagonal_model(1, 1)
        rows, components, s = form.matrix.to_rows(), range(form.dim + 1), 3
        lk = derived_linking_matrix(form).to_rows()
        if relation == "core":
            lk[0][s] += 1
        for row in lk:
            row[s] += {"core": 0, "decorated": row[5], "set_aside": row[s]}[relation]
        assert [t for t in components if dense_rejects(rows, lk, t)] == ([] if relation == "core" else [s])
        assert [t for t in components if row_zero_fails(lk, t)] == ([s] if relation == "core" else [])
        assert flagged(form, lk) == [s]

    def test_dense_reference_passes_the_true_coordinates(self):
        for form in oracle_corpus():
            rows, lk = form.matrix.to_rows(), derived_linking_matrix(form).to_rows()
            assert not any(dense_rejects(rows, lk, s) or row_zero_fails(lk, s) for s in range(form.dim + 1))

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([1, -1]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["entry", "scale", "add", "swap"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.integers(-2, 2),
            ),
            max_size=4,
        ),
    )
    def test_oracle_flags_what_the_dense_presentation_rejects(self, seed, epsilon, edits):
        form = random_zero_diagonal_form(random.Random(seed), epsilon)
        rows, d = form.matrix.to_rows(), form.dim
        lk = derived_linking_matrix(form).to_rows()
        for kind, s, position, k in edits:
            s, t = s % (d + 1), position % (d + 1)
            if kind == "entry":  # row t of column s, row 0 included
                lk[t][s] += k or 1
            for row in lk:
                if kind == "scale":
                    row[s] *= k
                elif kind == "add":  # keeps row 0 at minus the sum of the rest
                    row[s] += k * row[t]
                elif kind == "swap":
                    row[s], row[t] = row[t], row[s]
        expected = [s for s in range(d + 1) if dense_rejects(rows, lk, s) or row_zero_fails(lk, s)]
        assert flagged(form, lk) == expected


class TestAdmissibility:
    def test_directly_fibered_in_low_dimension(self):
        report = admissibility_check(HopfLinkSpec(J, n=3))
        assert report.admissible and report.directly_fibered

    def test_determinant_two_inadmissible(self):
        spec = HopfLinkSpec(symmetric([[0, 2], [2, 0]]), n=4)
        report = admissibility_check(spec)
        assert not report.unimodular and not report.admissible

    def test_odd_skew_rank_inadmissible(self):
        spec = HopfLinkSpec(skew([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), n=3)
        report = admissibility_check(spec)
        assert not report.skew_rank_even and not report.admissible
        assert report.determinant == 0

    def test_high_dimension_offers_constructions(self):
        spec = HopfLinkSpec(BilinearForm(zero_diagonal_model(1, 1).matrix, 1), n=4, theta=28)
        report = admissibility_check(spec)
        assert report.admissible and not report.directly_fibered
        joined = " ".join(report.notes)
        assert "21 components" in joined  # doubling: 2d + 1 with d = 10
        assert "theta = 28" in joined


class TestHopfLinkSpec:
    def test_epsilon_must_match_parity(self):
        with pytest.raises(ValueError):
            HopfLinkSpec(HF, n=3)  # odd n needs a skew decoration
        with pytest.raises(ValueError):
            HopfLinkSpec(J, n=4)

    def test_zero_diagonal_required(self):
        with pytest.raises(ValueError):
            HopfLinkSpec(BilinearForm(H_MATRIX, 1).__class__(symmetric([[2]]).matrix, 1), n=4)

    def test_projection_bound(self):
        with pytest.raises(ValueError):
            HopfLinkSpec(J, n=3, k=3)
        with pytest.raises(ValueError, match="k: need 0 <= k <= n - 2, got 2"):
            HopfLinkSpec(J, n=3, k=2)  # k = n - 1

    def test_component_count(self):
        assert HopfLinkSpec(J, n=3).components == 3
        assert HopfLinkSpec(J, n=3, k=1).components == 1


class TestProjection:
    """Each black piece's chi, from its Betti descriptor, is what ``fiber_euler``'s inclusion-exclusion reads."""

    def test_unprojected(self):
        link = HopfLinkSpec(J, n=3)
        fiber, boundary = reference_pieces(link)
        assert fiber.betti == (1, 0, 2, 0)  # a 3-disk with two holes
        assert fiber.euler == 1 + link.d == 3
        assert boundary.betti == (3, 0, 3)  # three disjoint 2-spheres
        tree = single_black_tree(link)
        assert fiber_euler(tree) == inclusion_exclusion(tree) == fiber.euler + 3 * disk(3).euler - boundary.euler

    def test_single_projection(self):
        link = HopfLinkSpec(J, n=3, k=1)
        fiber, boundary = reference_pieces(link)
        assert boundary.betti == (1, 2, 2, 1)
        assert (fiber.euler, boundary.euler, fiber.boundary_components) == (3, 0, 1)
        filler = projection_filler(3, 1, 2)
        capped = DecoratedGraph((link, filler), (Edge(0, 1, 0, 0),))
        pair = DecoratedGraph((link, link), (Edge(0, 1, 0, 0),))
        assert fiber_euler(capped) == fiber.euler + filler.euler - boundary.euler == 2
        assert fiber_euler(pair) == 2 * fiber.euler - boundary.euler == 6

    def test_single_component_projection(self):
        # d = 1: the link is one S^3 x S^1 factor, of chi 0
        link = HopfLinkSpec(symmetric([[0]]), n=4, k=1)
        fiber, boundary = reference_pieces(link)
        assert boundary.betti == (1, 1, 0, 1, 1)
        pair = DecoratedGraph((link, link), (Edge(0, 1, 0, 0),))
        assert fiber_euler(pair) == 2 * fiber.euler - boundary.euler == 0

    def test_unprojected_fiber_euler_balances_gluing(self):
        # capping the d+1 boundary spheres of the holed disk with disks gives S^n,
        # so chi(fiber) + (d+1) * chi(D^n) - (d+1) * chi(S^{n-1}) = chi(S^n)
        for n, form in [(3, J), (4, HF)]:
            d = form.dim
            link = HopfLinkSpec(form, n=n)
            fiber, _ = reference_pieces(link)
            glue = (d + 1) * (1 + (-1) ** (n - 1))
            assert fiber.euler + (d + 1) - glue == 1 + (-1) ** n == fiber_euler(single_black_tree(link))


class TestDescriptors:
    def test_dim_and_euler_derive_from_betti(self):
        fiber = FiberDescriptor((1, 2, 0, 4), 1)
        assert (fiber.dim, fiber.euler) == (3, -5)
        assert fiber == FiberDescriptor((1, 2, 0, 4), 1)
        with pytest.raises(ValueError):
            FiberDescriptor((0, 1), 0)

    def test_helpers(self):
        assert disk(3).euler == 1
        assert cylinder(4).boundary_components == 2
        assert projection_filler(5, 1, 4).betti == (1, 4, 0, 0, 0, 0, 0)

    def test_cylinder_over_the_zero_sphere_has_two_components(self):
        # S^0 x [0, 1] is two intervals; S^{d-1} x [0, 1] has the Betti numbers of S^{d-1}
        assert cylinder(1).betti == (2, 0)
        assert cylinder(4).betti == (1, 0, 0, 1, 0)
        assert (disk(3).betti, projection_filler(2, 3, 5).betti) == ((1, 0, 0, 0), (1, 0, 0, 5, 0, 0))

    @pytest.mark.parametrize("dim, betti", [(0, (2,)), (-1, ())])
    def test_no_cylinder_below_dimension_one(self, dim, betti):
        # S^{dim-1} x [0, 1] is empty at dim = 0, where betti[dim - 1] would wrap to b_0 and count it twice
        with pytest.raises(ValueError, match="dimension >= 1"):
            cylinder(dim)
        assert not is_cylinder(FiberDescriptor(betti, 2))
        assert is_cylinder(FiberDescriptor((2, 0), 2)) and is_cylinder(cylinder(4))
