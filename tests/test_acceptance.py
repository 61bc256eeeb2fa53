"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Every assertion is exact (tolerance zero).
"""

import random
import time

import pytest

from hopfcalc.cli import main
from hopfcalc.exactlinalg import (
    Inertia,
    det_bareiss,
    inertia,
    inertia_charpoly,
    inertia_ldlt,
    nullspace_rational,
)
from hopfcalc.fixtures import fixture_names, fixture_path
from hopfcalc.forms import (
    BilinearForm,
    E8_MATRIX,
    H_MATRIX,
    build_standard,
    classify_indefinite,
    direct_sum,
    skew,
    symmetric,
    zero_diagonal_model,
)
from hopfcalc.graphmodel import DecoratedGraph, Edge, graph_counts
from hopfcalc.hopflink import (
    HopfLinkSpec,
    derived_linking_matrix,
    presentation_oracle,
)
from hopfcalc.invariants import (
    EVEN_K0,
    EVEN_KPOS,
    ODD_K0,
    ODD_KPOS,
    ProductFactor,
    analyze_cup_form,
    assemble_cup_form,
    canonical_homology_ranks,
    product_phi_bound,
)
from hopfcalc.sampling import (
    random_congruence,
    random_symmetric,
    random_zero_diagonal_form,
)

from test_graphmodel import parallel_pair, single_black_tree

J = skew([[0, 1], [-1, 0]])


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_c01_ground_truth():
    start = time.monotonic()
    assert det_bareiss(E8_MATRIX) == 1
    assert inertia(E8_MATRIX) == Inertia(8, 0, 0)
    assert det_bareiss(H_MATRIX) == -1
    assert inertia(H_MATRIX) == Inertia(1, 1, 0)
    e8h = build_standard(1, 1)
    assert classify_indefinite(e8h) == (1, 1)
    klass_ok = e8h.is_even() and e8h.is_unimodular()
    assert klass_ok
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"E8/H ground truth and classification in {elapsed:.3f}s")


def test_c02_oracle_equivalence():
    start = time.monotonic()
    corpus: list[BilinearForm] = []
    # every 2x2 zero-diagonal unimodular symmetric form: off-diagonal entry -1, then 1
    corpus += [symmetric([[0, b], [b, 0]]) for b in (-1, 1)]
    corpus += [J, skew([[0, -1], [1, 0]])]
    corpus += [
        direct_sum(J, J),
        direct_sum(J, skew([[0, -1], [1, 0]])),
        skew([[0, 2, 1, 1], [-2, 0, -2, 1], [-1, 2, 0, 1], [-1, -1, -1, 0]]),
    ]
    corpus += [BilinearForm(H_MATRIX, 1), build_standard(1, 1)]
    checks = 0
    for form in corpus:
        for s, match in enumerate(presentation_oracle(form, derived_linking_matrix(form))):
            assert match, (form.matrix.to_rows(), s)
            checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"oracle matched the linking matrix on {checks} columns in {elapsed:.2f}s")


def test_c03_row_sum_identity():
    rng = random.Random(2024)
    for trial in range(100):
        eps = 1 if trial % 2 == 0 else -1
        form = random_zero_diagonal_form(rng, eps)
        lk = derived_linking_matrix(form)
        assert all(sum(lk.row(i)) == 0 for i in range(lk.rows)), form.matrix.to_rows()
    _report(3, "linking-matrix rows sum to zero on 100 randomized forms (both signs)")


def test_c04_kernel_theorem():
    rng = random.Random(97)
    for trial in range(50):
        eps = 1 if trial % 2 == 0 else -1
        form = random_zero_diagonal_form(rng, eps)
        n = 4 if eps == 1 else 3
        tree = single_black_tree(HopfLinkSpec(form, n=n))
        cup = assemble_cup_form([tree])
        basis = nullspace_rational(cup.matrix)
        assert len(basis) == 1
        assert basis[0] == (basis[0][0],) * (form.dim + 1)
    _report(4, "cup-form kernel is exactly the all-ones line on 50 randomized trees")


def test_c05_signature():
    model = zero_diagonal_model(1, 1)
    tree = single_black_tree(HopfLinkSpec(model, n=4))
    analysis = analyze_cup_form(assemble_cup_form([tree]), [tree])
    assert analysis.sigma == 8
    for p, q in [(1, 1), (1, 2), (2, 1)]:
        m = zero_diagonal_model(p, q)
        assert m.matrix.has_zero_diagonal()
        assert m.det() in (1, -1)
        assert m.is_even()
        assert inertia(m.matrix).sigma == 8 * p
    _report(5, "signature 8 for the rank-10 zero-diagonal tree; model postconditions hold")


def _all_black_complete4(link: HopfLinkSpec) -> DecoratedGraph:
    """Complete graph on four black vertices, each of degree 3."""
    edges = []
    used = {i: 0 for i in range(4)}
    for u in range(4):
        for v in range(u + 1, 4):
            edges.append(Edge(u, v, used[u], used[v]))
            used[u] += 1
            used[v] += 1
    return DecoratedGraph(tuple(link for _ in range(4)), tuple(edges))


def test_c06_euler_characteristic():
    from hopfcalc.invariants import euler_characteristic

    tree = single_black_tree(HopfLinkSpec(J, n=3))
    assert euler_characteristic([tree]) == -2

    odd_families = [
        [parallel_pair(HopfLinkSpec(J, n=3))],
        [parallel_pair(HopfLinkSpec(J, n=3)), parallel_pair(HopfLinkSpec(J, n=3))],
        [_all_black_complete4(HopfLinkSpec(J, n=3))],
    ]
    for family in odd_families:
        t = sum(graph_counts(g).t for g in family)
        assert euler_characteristic(family) == -t

    hf = BilinearForm(H_MATRIX, 1)
    hh = direct_sum(hf, hf)
    even_families = [
        [parallel_pair(HopfLinkSpec(hf, n=4))],
        [parallel_pair(HopfLinkSpec(hh, n=4))],
        [parallel_pair(HopfLinkSpec(hf, n=4)), parallel_pair(HopfLinkSpec(hf, n=4))],
        [_all_black_complete4(HopfLinkSpec(hf, n=4))],
    ]
    for family in even_families:
        chi = euler_characteristic(family)
        s = sum(graph_counts(g).s_black for g in family)
        assert chi % 2 == s % 2
    _report(6, "chi = -2 on the basic tree, -t on odd families, parity s mod 2 on even ones")


def test_c07_dual_inertia():
    rng = random.Random(777)
    for _ in range(200):
        a = random_symmetric(rng, rng.randint(1, 10), bound=9)
        assert inertia_ldlt(a) == inertia_charpoly(a)
    _report(7, "elimination and characteristic-polynomial inertia agree on 200 matrices")


def test_c08_classification_congruence_invariance():
    rng = random.Random(55)
    seeds = [(0, 1), (0, 2), (1, 1), (-1, 1), (1, 2)]
    for p, q in seeds:
        seed = build_standard(p, q)
        assert seed.dim <= 12
        for _ in range(20):
            assert classify_indefinite(random_congruence(rng, seed)) == (p, q)
    _report(8, "classification fixed under 20 random congruences per seed (ranks <= 12)")


def test_c09_product_bounds():
    b = product_phi_bound([ProductFactor("S4"), ProductFactor("S4")])
    assert (b.lower, b.upper) == (1, 4)
    b = product_phi_bound([ProductFactor("connsum", 1)])
    assert (b.lower, b.upper, b.euler) == (1, 4, 4)
    b = product_phi_bound([ProductFactor("connsum", 1), ProductFactor("connsum", 2)])
    assert (b.lower, b.upper, b.euler) == (1, 24, 24)
    _report(9, "product bounds (1,4), (1,4) chi 4, (1,24) chi 24")


def test_c10_homology_tables():
    swept = 0
    for n in range(3, 7):
        for k in range(0, n - 1):
            for d in range(4, 9):
                if k == 0:
                    ranks = canonical_homology_ranks(EVEN_K0, n, 0, d)
                    assert ranks[n] == d + 2
                    assert ranks[0] == ranks[2 * n] == 1
                    assert all(
                        r == 0 for i, r in ranks.items() if i not in (0, n, 2 * n)
                    )
                    ranks = canonical_homology_ranks(ODD_K0, n, 0, d)
                    assert ranks[n] == ranks[n + 1] == d + 1
                    assert ranks[0] == ranks[2 * n + 1] == 1
                    assert all(
                        r == 0
                        for i, r in ranks.items()
                        if i not in (0, n, n + 1, 2 * n + 1)
                    )
                else:
                    ranks = canonical_homology_ranks(EVEN_KPOS, n, k, d)
                    assert ranks[n] == d and ranks[n - k] == ranks[n + k] == 1
                    assert ranks[0] == ranks[2 * n] == 1
                    assert all(
                        r == 0
                        for i, r in ranks.items()
                        if i not in (0, n - k, n, n + k, 2 * n)
                    )
                    ranks = canonical_homology_ranks(ODD_KPOS, n, k, d)
                    assert ranks[n] == ranks[n + 1] == d
                    assert ranks[n - k] == ranks[n + k + 1] == 1
                    assert ranks[0] == ranks[2 * n + 1] == 1
                    assert all(
                        r == 0
                        for i, r in ranks.items()
                        if i not in (0, n - k, n, n + 1, n + k + 1, 2 * n + 1)
                    )
                swept += 1
    for family, n, k, d in [
        (EVEN_K0, 2, 0, 4),
        (EVEN_K0, 4, 1, 4),
        (EVEN_KPOS, 4, 0, 4),
        (EVEN_KPOS, 4, 3, 4),
        (EVEN_KPOS, 4, 1, 3),
        (ODD_K0, 4, 0, 0),
        (ODD_KPOS, 4, 1, 2),
        (ODD_KPOS, 6, 5, 6),
    ]:
        with pytest.raises(ValueError):
            canonical_homology_ranks(family, n, k, d)
    _report(10, f"canonical rank tables verified over {swept} parameter triples, rejects hold")


def test_c11_cli_determinism_and_oracle(capsys):
    for name in fixture_names():
        for fmt in ("text", "json"):
            outputs = []
            for _ in range(2):
                assert main(["report", fixture_path(name), "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out.encode())
            assert outputs[0] == outputs[1]
        assert main(["oracle", fixture_path(name)]) == 0
        capsys.readouterr()
    _report(11, f"byte-identical reports and oracle exit 0 on {len(fixture_names())} fixtures")
