import random
import signal
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc import hopflink
from hopfcalc.exactlinalg import (
    AlgorithmMismatchError,
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
from hopfcalc.hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    admissibility_check,
    cylinder,
    derived_linking_matrix,
    disk,
    holed_disk,
    oracle_matches_column,
    presentation_oracle,
    project_link_descriptor,
    projection_filler,
    spin_link_descriptor,
    sphere,
)
from hopfcalc.sampling import random_zero_diagonal_form, small_symmetric_zero_diagonal_unimodular

J = skew([[0, 1], [-1, 0]])
HF = BilinearForm(H_MATRIX, 1)


def oracle_corpus():
    """Small forms over which the oracle must reproduce the linking matrix."""
    forms = list(small_symmetric_zero_diagonal_unimodular())
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


def dense_failing_components(rows, coordinates):
    """The certificate as a dense check, one dot product per relation: the reference for the sparse one."""
    d = len(rows)
    failed = []
    for s, lifted in enumerate(coordinates):
        y, aside = (lifted[: d + 1], [1] + [0] * d) if s == 0 else (lifted[1 : d + 1], rows[s - 1])
        if any(_dot(lifted, r) for r in _filling_relations(rows, s)) or _dot(y, aside) != 1:
            failed.append(s)
    return failed


def relifted(mu, s):
    """Coordinates of component s from its values on mu_0..mu_d, the deltas set as the Tietze moves set them."""
    return mu + [mu[i] if i else -sum(mu[1:]) for i in range(len(mu)) if i != s]


TRUE_COORDINATES = hopflink._coordinates


def corrupted_coordinates(monkeypatch, corrupt):
    """Patch the oracle's coordinate source so that ``corrupt`` edits the lifted coordinates first."""
    def patched(inv):
        coordinates = TRUE_COORDINATES(inv)
        corrupt(coordinates)
        return coordinates

    monkeypatch.setattr(hopflink, "_coordinates", patched)


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
        return presentation_oracle(form)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def _assert_matches_linking_matrix(form, results):
    lk = derived_linking_matrix(form)
    assert len(results) == form.dim + 1
    for s, result in enumerate(results):
        assert result.component == s
        assert oracle_matches_column(result, tuple(lk.at(j, s) for j in range(form.dim + 1))), (form.matrix.to_rows(), s)


class TestPresentationOracle:
    def test_hyperbolic_component_1(self):
        lk = derived_linking_matrix(HF)
        result = presentation_oracle(HF)[1]
        assert oracle_matches_column(result, tuple(lk.at(j, 1) for j in range(3)))

    def test_hyperbolic_preferred_component(self):
        lk = derived_linking_matrix(HF)
        result = presentation_oracle(HF)[0]
        assert oracle_matches_column(result, tuple(lk.at(j, 0) for j in range(3)))

    def test_non_unimodular_reports_torsion(self):
        form = symmetric([[0, 2], [2, 0]])
        with pytest.raises(NotUnimodularError):
            presentation_oracle(form)
        # the reference presents Z + Z/2 for component 1: the torsion the oracle refuses to certify
        assert reference_presentation(form, 1) == ((1, 1, 1, 2), 1, None)

    def test_full_corpus_all_components(self):
        for form in oracle_corpus():
            _assert_matches_linking_matrix(form, presentation_oracle(form))

    def test_one_result_per_component(self):
        for form in (HF, zero_diagonal_model(1, 1)):
            assert [r.component for r in presentation_oracle(form)] == list(range(form.dim + 1))

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_matches_reference_smith_form(self, epsilon):
        rng = random.Random(61 + epsilon)
        kinds = set()
        for _ in range(150):
            form = random_decoration(rng, rng.randint(1, 6), epsilon)
            kinds.add(form.is_unimodular())
            if not form.is_unimodular():
                with pytest.raises(NotUnimodularError):
                    presentation_oracle(form)
                continue
            for s, result in enumerate(presentation_oracle(form)):
                factors, free_rank, vector = reference_presentation(form, s)
                # the reference's group is the "Z" the oracle reports
                assert free_rank == 1 and all(f == 1 for f in factors), (form.matrix.to_rows(), s)
                assert result.component == s
                assert result.linking_vector in (vector, tuple(-x for x in vector)), (form.matrix.to_rows(), s)
        assert kinds == {True, False}

    def test_d28_all_components_within_cpu_budget(self):
        # Smith-form transform growth made this take about 40 s of CPU time
        form = zero_diagonal_model(3, 2)
        _assert_matches_linking_matrix(form, _oracle_within_cpu_budget(form, 3))

    def test_d56_all_components_within_cpu_budget(self):
        # d + 1 separate solves took about 1.2 s of CPU time; one elimination for all takes under 0.1 s
        form = zero_diagonal_model(6, 4)
        _assert_matches_linking_matrix(form, _oracle_within_cpu_budget(form, 0.6))

    @pytest.mark.parametrize("corrupt", ["double", "perturb_entry"])
    def test_corrupted_solve_is_caught(self, monkeypatch, corrupt):
        form = zero_diagonal_model(1, 1)
        d = form.dim
        for s in range(d + 1):

            def edit(coordinates, s=s):
                x = coordinates[s]
                coordinates[s] = [2 * v for v in x] if corrupt == "double" else x[:d] + [x[d] + 1] + x[d + 1 :]

            corrupted_coordinates(monkeypatch, edit)
            with pytest.raises(AlgorithmMismatchError, match=f"certificate failed for component {s}$"):
                presentation_oracle(form)

    @pytest.mark.parametrize("first, second", [(1, 2), (3, 7), (2, 10)])
    def test_swapped_components_are_caught(self, monkeypatch, first, second):
        def swap(coordinates):
            coordinates[first], coordinates[second] = coordinates[second], coordinates[first]

        corrupted_coordinates(monkeypatch, swap)
        with pytest.raises(AlgorithmMismatchError, match=f"certificate failed for component {first}$"):
            presentation_oracle(zero_diagonal_model(1, 1))

    # one relation class broken at a time, the other two still satisfied:
    # a delta off its meridian (core), y_3 + y_5 (row 5 of A takes 1, a
    # decorated row), 2 y_3 (row 3 of A, set aside, takes 2)
    @pytest.mark.parametrize("relation", ["core", "decorated", "set_aside"])
    def test_each_relation_class_is_checked(self, monkeypatch, relation):
        form = zero_diagonal_model(1, 1)
        d = form.dim
        s = 3

        def edit(coordinates):
            x, other = coordinates[s], coordinates[5]
            if relation == "core":
                x[d + 1 + 4] += 1
            elif relation == "decorated":
                coordinates[s] = relifted([a + b for a, b in zip(x[: d + 1], other[: d + 1])], s)
            else:
                coordinates[s] = relifted([2 * a for a in x[: d + 1]], s)
            failed = dense_failing_components(form.matrix.to_rows(), coordinates)
            assert failed == [s]

        corrupted_coordinates(monkeypatch, edit)
        with pytest.raises(AlgorithmMismatchError, match=f"certificate failed for component {s}$"):
            presentation_oracle(form)

    def test_dense_reference_passes_the_true_coordinates(self):
        for form in oracle_corpus():
            rows = form.matrix.to_rows()
            assert dense_failing_components(rows, hopflink._coordinates(form.inverse)) == []

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
    def test_sparse_certificate_flags_what_the_dense_one_flags(self, seed, epsilon, edits):
        form = random_zero_diagonal_form(random.Random(seed), epsilon)
        rows, d = form.matrix.to_rows(), form.dim
        coordinates = hopflink._coordinates(form.inverse)
        for kind, s, position, k in edits:
            s, t = s % (d + 1), position % (d + 1)
            x = coordinates[s]
            if kind == "entry":  # a meridian or a delta
                x[position % len(x)] += k or 1
            elif kind == "scale":
                coordinates[s] = relifted([k * v for v in x[: d + 1]], s)
            elif kind == "add":  # the result keeps every core relation
                coordinates[s] = relifted([a + k * b for a, b in zip(x[: d + 1], coordinates[t][: d + 1])], s)
            else:
                coordinates[s], coordinates[t] = coordinates[t], x
        dense = dense_failing_components(rows, coordinates)
        assert hopflink._failing_components(form.matrix, coordinates) == dense


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
    def test_unprojected(self):
        fiber, link = project_link_descriptor(HopfLinkSpec(J, n=3))
        assert fiber == holed_disk(3, 2)
        assert fiber.euler == 3
        assert link.betti == (3, 0, 3)  # three disjoint 2-spheres

    def test_single_projection(self):
        fiber, link = project_link_descriptor(HopfLinkSpec(J, n=3, k=1))
        assert link.betti == (1, 2, 2, 1)
        assert link.euler == 0
        assert fiber.boundary_components == 1

    def test_single_component_projection(self):
        # d = 1: the link is one S^3 x S^1 factor
        spec = HopfLinkSpec(symmetric([[0]]), n=4, k=1)
        _, link = project_link_descriptor(spec)
        assert link.betti == (1, 1, 0, 1, 1)

    def test_unprojected_fiber_euler_balances_gluing(self):
        # capping the d+1 boundary spheres of the holed disk with disks gives S^n,
        # so chi(fiber) + (d+1) * chi(D^n) - (d+1) * chi(S^{n-1}) = chi(S^n)
        for n, form in [(3, J), (4, HF)]:
            d = form.dim
            fiber, _ = project_link_descriptor(HopfLinkSpec(form, n=n))
            glue = (d + 1) * (1 + (-1) ** (n - 1))
            assert fiber.euler + (d + 1) - glue == 1 + (-1) ** n


class TestSpinning:
    def test_components(self):
        _, comps = spin_link_descriptor(HopfLinkSpec(skew([[0]]), n=3), 0)
        assert comps[0] == sphere(3)
        assert len(comps) == 2
        assert comps[1].betti == (1, 1, 1, 1)  # S^1 x S^2

    def test_fiber_euler_is_one(self):
        for n, form in [(3, J), (4, BilinearForm(zero_diagonal_model(1, 1).matrix, 1))]:
            fiber, _ = spin_link_descriptor(HopfLinkSpec(form, n=n), 0)
            assert fiber.euler == 1

    def test_fiber_boundary_matches_components(self):
        spec = HopfLinkSpec(J, n=3)
        fiber, comps = spin_link_descriptor(spec, 1)
        assert fiber.boundary_components == len(comps) == 3

    def test_iterated(self):
        spec = HopfLinkSpec(J, n=3)
        fiber, comps = spin_link_descriptor(spec, 0, times=2)
        assert comps[0] == sphere(4)
        # (S^1)^2 x S^2 has Betti (1, 2, 2, 2, 1)
        assert comps[1].betti == (1, 2, 2, 2, 1)
        assert fiber.euler == 1

    def test_spun_index_range(self):
        with pytest.raises(ValueError):
            spin_link_descriptor(HopfLinkSpec(J, n=3), 5)

    def test_projected_specs_not_spinnable(self):
        with pytest.raises(ValueError):
            spin_link_descriptor(HopfLinkSpec(J, n=3, k=1), 0)


class TestDescriptors:
    def test_euler_cross_check(self):
        with pytest.raises(ValueError):
            FiberDescriptor(betti=(1, 1), dim=1, boundary_components=0, euler=5)

    def test_helpers(self):
        assert disk(3).euler == 1
        assert cylinder(4).boundary_components == 2
        assert sphere(4).euler == 2
        assert projection_filler(5, 1, 4).betti == (1, 4, 0, 0, 0, 0, 0)
