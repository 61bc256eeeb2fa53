"""Seeded random generators for property checks.

Used by the test suite and by the ``selftest`` CLI subcommand.  Everything
takes an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .exactlinalg import IntMatrix, congruence_apply
from .forms import BilinearForm, H_MATRIX, direct_sum, skew, zero_diagonal_model
from .graphmodel import DecoratedGraph, Edge
from .hopflink import HopfLinkSpec, cylinder, disk


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """Random determinant +-1 matrix: a product of 4n + 8 shears, swaps and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n + 8):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(n):
                m[i][t] += c * m[j][t]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m)


def random_congruence(rng: random.Random, form: BilinearForm) -> BilinearForm:
    """Congruence-transform a form by a random unimodular matrix."""
    m = random_unimodular(rng, form.dim)
    return BilinearForm(congruence_apply(m, form.matrix), form.epsilon)


def hyperbolic_seed(blocks: int) -> BilinearForm:
    return direct_sum(*([BilinearForm(H_MATRIX, 1)] * blocks))


def skew_seed(blocks: int) -> BilinearForm:
    j = skew([[0, 1], [-1, 0]])
    return direct_sum(*([j] * blocks))


def random_zero_diagonal_form(rng: random.Random, epsilon: int) -> BilinearForm:
    """Random unimodular zero-diagonal form of the requested symmetry sign.

    Starts from a direct sum of one to three hyperbolic (or, for a skew form,
    skew) blocks, or the zero-diagonal model of an E8-plus-hyperbolic form,
    and takes 6 dim random steps through diagonal-preserving congruences:
    swaps and sign flips always preserve the zero diagonal; for symmetric
    forms a shear along (i, j) preserves it exactly when the (i, j) entry
    vanishes, so shears are restricted accordingly.  Skew forms keep a zero
    diagonal under every congruence.
    """
    if epsilon == 1:
        seeds = [hyperbolic_seed(b) for b in range(1, 4)]
        seeds.append(zero_diagonal_model(1, 1))
    else:
        seeds = [skew_seed(b) for b in range(1, 4)]
    form = rng.choice(seeds)
    n = form.dim
    a = form.matrix.to_rows()

    def apply_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]

    def apply_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        for r in a:
            r[i] = -r[i]

    def apply_shear(i: int, j: int, c: int) -> None:
        for t in range(n):
            a[i][t] += c * a[j][t]
        for r in a:
            r[i] += c * r[j]

    for _ in range(6 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if op == 0:
            apply_swap(i, j)
        elif op == 1:
            apply_negate(i)
        else:
            c = rng.choice([-1, 1])
            if epsilon == -1 or a[i][j] == 0:
                apply_shear(i, j, c)
    return BilinearForm(IntMatrix.from_rows(a), epsilon)


def random_tree(rng: random.Random, epsilon: int, blacks: int) -> DecoratedGraph:
    """Up to 4 randomly decorated black vertices (n = 4, or 3 when skew), each joined to an earlier one by an edge
    or through a cylinder, and disks on their other components; components and edges come in random order."""
    n = 4 if epsilon == 1 else 3
    vertices: list = [HopfLinkSpec(random_zero_diagonal_form(rng, epsilon), n) for _ in range(blacks)]
    free = [rng.sample(range(v.components), v.components) for v in vertices]  # the unused components
    edges = []  # (u, v, u_comp, v_comp)
    for b in range(1, blacks):
        a = rng.randrange(b)
        if rng.randrange(2):  # through a cylinder
            edges.append((a, len(vertices), free[a].pop(), 0))
            a, vertices, free = len(vertices), vertices + [cylinder(n)], free + [[1]]
        edges.append((a, b, free[a].pop(), free[b].pop()))
    leaves = [(b, c) for b in range(blacks) for c in free[b]]
    edges += [(b, len(vertices) + i, c, 0) for i, (b, c) in enumerate(leaves)]
    rng.shuffle(edges)
    return DecoratedGraph(tuple(vertices + [disk(n)] * len(leaves)), tuple(Edge(*e) for e in edges))


def random_symmetric(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = v
    return IntMatrix.from_rows(rows)


def random_square(rng: random.Random, n: int, bound: int = 5) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])

