import json
import math
import os
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc import cli, exactlinalg, forms, graphmodel, hopflink, invariants
from hopfcalc.cli import build_report, parse_spec_data
from hopfcalc.exactlinalg import (
    AlgorithmMismatchError,
    DimensionError,
    Inertia,
    IntMatrix,
    NotUnimodularError,
    SymmetryError,
    charpoly,
    congruence_apply,
    det_bareiss,
    inertia,
    inertia_charpoly,
    inertia_ldlt,
    inverse_unimodular,
    nullspace_rational,
    smith_normal_form,
)
from hopfcalc.forms import E8_MATRIX, H_MATRIX, build_standard, zero_diagonal_model
from hopfcalc.hopflink import derived_linking_matrix
from hopfcalc.sampling import (
    hyperbolic_seed,
    random_congruence,
    random_square,
    random_symmetric,
    random_unimodular,
    skew_seed,
)
from golden_cases import SPECS
from test_cli import one_vertex_tree


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def diagonal(values) -> IntMatrix:
    n = len(values)
    return IntMatrix(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))


def det_cofactor(a: IntMatrix) -> int:
    """Independent determinant oracle by cofactor expansion; small sizes only."""
    n = a.rows
    if n == 0:
        return 1
    if n == 1:
        return a.at(0, 0)
    total = 0
    for j in range(n):
        if a.at(0, j) == 0:
            continue
        minor = IntMatrix.from_rows(
            [[a.at(i, c) for c in range(n) if c != j] for i in range(1, n)]
        )
        total += (-1) ** j * a.at(0, j) * det_cofactor(minor)
    return total


small_square = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

any_shape = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0],
        max_size=mn[0],
    )
)


def _out_of_cpu_time(signum, frame):
    raise TimeoutError("over the CPU-time budget")


def _matrices(rows, cols):
    return st.lists(st.integers(min_value=-9, max_value=9), min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: IntMatrix(rows, cols, tuple(flat))
    )


# conformable factors (A, B); any of the three sizes may be 0
matmul_pairs = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).flatmap(
    lambda rkc: st.tuples(_matrices(rkc[0], rkc[1]), _matrices(rkc[1], rkc[2]))
)


def epsilon_rows(flat, n, epsilon):
    """The epsilon-symmetric n x n rows whose upper triangle is read from the row-major ``flat``."""
    return [[flat[i * n + j] if i <= j else epsilon * flat[j * n + i] for j in range(n)] for i in range(n)]


@st.composite
def symmetric_matrices(draw, epsilons=(1, -1)):
    """(A, epsilon): epsilon-symmetric A up to 8x8; zero-diagonal, rank-deficient and zero ones drawn explicitly.

    A skew A has zero diagonal, so every pivot is 2x2.  A ``direct_sum``
    matrix is a general block plus a zero-diagonal block, so the elimination
    meets a zero live diagonal after 1x1 pivots.  A ``zero_tail`` matrix is
    a general block plus a zero block, so the elimination ends with zero rows
    still live.  A symmetric ``zero_schur`` matrix has first row ``d (1, g)``
    and diagonal ``d g_i**2``, so after the 1x1 pivot ``d`` every live
    diagonal entry is zero: 2x2 pivots follow at scale ``d`` with nonzero
    entries in the other live rows.  A skew one is ``u v^T - v u^T``, so
    after the first 2x2 pivot every live entry is zero.
    """
    n = draw(st.integers(min_value=0, max_value=8))
    epsilon = draw(st.sampled_from(epsilons))
    kinds = ["general", "zero_diagonal", "direct_sum", "duplicated", "zero", "zero_tail", "zero_schur"]
    kind = draw(st.sampled_from(kinds))
    flat = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n * n, max_size=n * n))
    rows = epsilon_rows(flat, n, epsilon)
    if epsilon == -1:
        for i in range(n):
            rows[i][i] = 0
    if kind in ("zero_diagonal", "direct_sum"):
        split = 0 if kind == "zero_diagonal" else draw(st.integers(0, n))
        for i in range(n):
            for j in range(n):
                if i == j >= split or min(i, j) < split <= max(i, j):
                    rows[i][j] = 0
    elif kind == "duplicated" and n >= 2:
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[dst] = list(rows[src])
        for row in rows:
            row[dst] = row[src]
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    elif kind == "zero_tail":
        split = draw(st.integers(0, n))
        rows = [[x if max(i, j) < split else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "zero_schur" and n >= 1 and epsilon == 1:
        d = draw(st.sampled_from([-3, -2, 2, 3, 4]))
        g = [1] + draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        for i in range(n):
            rows[0][i] = rows[i][0] = d * g[i]
            rows[i][i] = d * g[i] * g[i]
    elif kind == "zero_schur":
        u, v = flat[:n], flat[-n:]
        rows = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
    return IntMatrix(n, n, tuple(x for row in rows for x in row)), epsilon


# ---------------------------------------------------------------------------
# reference kernels: the full-width symmetric elimination and the per-entry
# product that the kernels in exactlinalg must reproduce exactly, and the
# reduced echelon form and determinant over Q that fix what the fraction-free
# Gauss-Jordan elimination must return


def fraction_rref(rows):
    """Pivot columns and reduced row echelon form of ``rows``, by Gauss-Jordan elimination over ``Fraction``."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        m = [row if i == r else [x - row[col] * y for x, y in zip(row, m[r])] for i, row in enumerate(m)]
        pivots.append(col)
    return pivots, m


def fraction_det(rows):
    """Determinant of a square matrix over ``Fraction``: the pivots' product, negated for each row swap."""
    m, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for col in range(len(m)):
        sel = next((i for i in range(col, len(m)) if m[i][col]), None)
        if sel is None:
            return 0
        if sel != col:
            m[col], m[sel], det = m[sel], m[col], -det
        det *= m[col][col]
        m[col + 1 :] = [[x - row[col] / m[col][col] * y for x, y in zip(row, m[col])] for row in m[col + 1 :]]
    return det


def check_gauss_jordan(rows):
    """``_gauss_jordan`` against ``fraction_rref`` and, with every row a pivot row, ``fraction_det``.

    The rows over ``scale`` are the reduced row echelon form.  When every row
    holds a pivot, the row swaps permute only pivot rows, so ``sign * scale``
    is the determinant of the pivot columns.
    """
    m = [list(row) for row in rows]
    pivots, scale, sign = exactlinalg._gauss_jordan(m)
    assert (pivots, [[Fraction(x, scale) for x in row] for row in m]) == fraction_rref(rows)
    if len(pivots) == len(rows):
        assert sign * scale == fraction_det([[row[c] for c in pivots] for row in rows])


def reference_symmetric_bareiss(a, epsilon):
    """Epsilon-symmetric Bareiss on every entry of the rows of [A | I].

    The 1x1 pivot is the live diagonal entry of least absolute value, the
    first live row on a tie; with every live diagonal entry zero, the 2x2
    pivot is the entry of least absolute value in the first live row with a
    nonzero live entry, again the first on a tie.
    """
    n = a.rows
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a.to_rows())]
    live = list(range(n))
    order, blocks = [], []
    scale = 1
    while live:
        p = min((i for i in live if m[i][i]), key=lambda i: abs(m[i][i]), default=None)
        if p is not None:
            live.remove(p)
            pivot_row, d = m[p], m[p][p]
            for i in live:
                row, f = m[i], m[i][p]
                m[i] = [(x * d - f * y) // scale for x, y in zip(row, pivot_row)]
            order.append(p)
            blocks.append([[scale * d]])
            scale = d
            continue
        p = next((i for i in live if any(m[i][j] for j in live)), None)
        if p is None:
            break
        q = min((j for j in live if m[p][j]), key=lambda j: abs(m[p][j]))
        live.remove(p)
        live.remove(q)
        row_p, row_q, b = m[p], m[q], m[p][q]
        b2, s2 = b * b, scale * scale
        for i in live:
            row, fp, fq = m[i], m[i][p], m[i][q]
            m[i] = [(b2 * x - b * (fq * y + epsilon * fp * z)) // s2 for x, y, z in zip(row, row_p, row_q)]
        order += [p, q]
        blocks.append([[0, scale * b], [epsilon * scale * b, 0]])
        scale = b2 // scale
    order += live
    blocks += [[[0]] for _ in live]
    return order, [m[i][n:] for i in order], blocks


def reference_product(a, b):
    cols = [b.entries[j :: b.cols] for j in range(b.cols)]
    return tuple(sum(x * y for x, y in zip(a.row(i), col)) for i in range(a.rows) for col in cols)


@st.composite
def elimination_rows(draw):
    """Rows for ``_gauss_jordan``: any shape, dependent rows and columns, or the callers' augmented shapes.

    ``general`` draws an m x n matrix, then may zero a column (a free column
    before the pivots when it is the first), repeat a column (a free column
    after a pivot) and replace a row by a combination of two others (rank
    deficiency).  ``inverse`` is ``[A | I]`` and ``oracle`` is the oracle's
    ``[a_i | e_i | -1]``, each for a square A that may be singular.
    """
    kind = draw(st.sampled_from(["general", "inverse", "oracle"]))
    m = draw(st.integers(min_value=1, max_value=7))
    n = m if kind != "general" else draw(st.integers(min_value=1, max_value=8))
    entries = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if kind == "general":
        if draw(st.booleans()):
            zero = draw(st.integers(0, n - 1))
            for row in rows:
                row[zero] = 0
        if n >= 2 and draw(st.booleans()):
            src, dst = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            c = draw(st.integers(-3, 3))
            for row in rows:
                row[dst] = c * row[src]
    if m >= 3 and draw(st.booleans()):
        i, j, t = draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=3, unique=True))
        c = draw(st.integers(-3, 3))
        rows[t] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if kind == "inverse":
        rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    elif kind == "oracle":
        rows = [row + [int(i == j) for j in range(n)] + [-1] for i, row in enumerate(rows)]
    return rows


@st.composite
def wide_products(draw):
    """Conformable (A, B) with 0- to 300-bit entries, dimensions on both sides of the packed-path cutoff.

    ``extreme`` fills A and B with their largest magnitude under row and
    column signs, so every product entry is +-k max|A| max|B|, the bound the
    slot width is taken from.
    """
    r, k, c = (draw(st.integers(0, 2 * exactlinalg._PACKED_MIN_DIM)) for _ in range(3))
    a_bits, b_bits = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    if draw(st.booleans()):
        row_signs = draw(st.lists(st.sampled_from([1, -1]), min_size=r, max_size=r))
        col_signs = draw(st.lists(st.sampled_from([1, -1]), min_size=c, max_size=c))
        a_max, b_max = (1 << a_bits) - 1, (1 << b_bits) - 1
        a = IntMatrix(r, k, tuple(s * a_max for s in row_signs for _ in range(k)))
        b = IntMatrix(k, c, tuple(col_signs[j] * b_max for _ in range(k) for j in range(c)))
        return a, b
    a_entries = st.integers(min_value=-(1 << a_bits), max_value=1 << a_bits)
    b_entries = st.integers(min_value=-(1 << b_bits), max_value=1 << b_bits)
    a = draw(st.lists(a_entries, min_size=r * k, max_size=r * k))
    b = draw(st.lists(b_entries, min_size=k * c, max_size=k * c))
    return IntMatrix(r, k, tuple(a)), IntMatrix(k, c, tuple(b))


class TestKernelsMatchReferences:
    @settings(deadline=None, max_examples=300)
    @given(elimination_rows())
    def test_gauss_jordan(self, rows):
        check_gauss_jordan(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0, 1, 2], [0, 0, 3, 4]],  # free columns before the pivots
            [[1, 2, 3, 4], [2, 4, 6, 9]],  # a free column between pivots
            [[2, 1], [4, 2], [6, 3]],  # rank 1, more rows than columns
            [[0, 0], [0, 0]],
            [[2, 3, 1, 0], [5, 7, 0, 1]],  # [A | I] with pivots 2 and 1
        ],
    )
    def test_gauss_jordan_examples(self, rows):
        check_gauss_jordan(rows)

    @settings(deadline=None, max_examples=300)
    @given(symmetric_matrices())
    def test_symmetric_bareiss(self, pair):
        a, epsilon = pair
        assert exactlinalg._symmetric_bareiss(a, epsilon) == reference_symmetric_bareiss(a, epsilon)

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 0, 0], [0, 0, 3], [0, 3, 0]],  # a 2x2 pivot at scale 2
            [[4, 2, 2, 2], [2, 1, 2, 0], [2, 2, 1, 3], [2, 0, 3, 1]],  # 1x1 pivot 4, then 2x2 with row 3 live
            [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 5, 0], [0, 0, 0, 0]],  # 1x1, 2x2 at scale 5, a live zero row
            [[4, 2, 0, 0], [2, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # a trailing zero block
            zero_diagonal_model(1, 1).matrix.to_rows(),
        ],
    )
    def test_symmetric_bareiss_examples(self, rows):
        a = IntMatrix.from_rows(rows)
        assert exactlinalg._symmetric_bareiss(a, 1) == reference_symmetric_bareiss(a, 1)
        assert inertia_ldlt(a) == inertia_charpoly(a)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 3], [-3, 0]],
            [[0, 0, 2], [0, 0, 0], [-2, 0, 0]],  # a 2x2 pivot past a zero row, which stays live
            [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]],  # the second 2x2 pivot at scale 1
            [[0, 2, 0, 4], [-2, 0, 6, 0], [0, -6, 0, 8], [-4, 0, -8, 0]],  # singular: 2x2 pivot, then a zero block
        ],
    )
    def test_skew_bareiss_examples(self, rows):
        a = IntMatrix.from_rows(rows)
        assert exactlinalg._symmetric_bareiss(a, -1) == reference_symmetric_bareiss(a, -1)

    @settings(deadline=None, max_examples=300)
    @given(wide_products())
    def test_product(self, pair):
        a, b = pair
        expected = IntMatrix(a.rows, b.cols, reference_product(a, b))
        assert a @ b == expected
        if a.rows and a.cols and b.cols:
            assert exactlinalg._packed_product(a, b) == expected.entries

    @pytest.mark.parametrize("k", [exactlinalg._PACKED_MIN_DIM - 1, exactlinalg._PACKED_MIN_DIM])
    @pytest.mark.parametrize(
        "a_max, b_max",
        [(64, 63), (64, 64), (127, 1), (1, 128), ((1 << 60) - 1, 1), (1 << 60, 1), ((1 << 300) - 1, 1 << 300)],
    )
    def test_product_at_slot_width_edges(self, k, a_max, b_max):
        # an entry below 2**e and its bias 2**e fill a slot of e + 1 bits: k * 64 * 63 < 2**15 fills two
        # bytes and k * (2**60 - 1) < 2**63 eight, the widest struct code; 8 * 64 * 64 and 8 * 2**60 need wider
        signs = (1, -1, 0)
        a = IntMatrix(k, k, tuple((-1) ** i * a_max for i in range(k) for _ in range(k)))
        b = IntMatrix(k, k, tuple(signs[j % 3] * b_max for _ in range(k) for j in range(k)))
        expected = tuple((-1) ** i * signs[j % 3] * k * a_max * b_max for i in range(k) for j in range(k))
        assert (a @ b).entries == expected
        assert exactlinalg._packed_product(a, b) == expected

    @pytest.mark.parametrize("a_max, packed", [((1 << 60) - 1, True), (1 << 60, False), (10**100, False)])
    def test_product_kernel_chosen_by_slot_width(self, monkeypatch, a_max, packed):
        # 8 * (2**60 - 1) < 2**63 fills an eight-byte slot, the widest the elimination packs too; 8 * 2**60 and
        # 100-digit entries need wider ones, so their products take the dot products; both kernels agree either way
        rng = random.Random(a_max)
        k = exactlinalg._PACKED_MIN_DIM
        a = IntMatrix(k, k, (a_max,) + tuple(rng.randint(-a_max, a_max) for _ in range(k * k - 1)))
        b = IntMatrix(k, k, tuple(rng.choice((-1, 0, 1)) for _ in range(k * k)))
        expected = reference_product(a, b)
        assert exactlinalg._packed_product(a, b) == expected
        calls, packed_product = [], exactlinalg._packed_product
        monkeypatch.setattr(exactlinalg, "_packed_product", lambda *args: calls.append(args) or packed_product(*args))
        assert (a @ b).entries == expected
        assert len(calls) == packed

    @pytest.mark.parametrize("shape", [(0, 9, 3), (3, 9, 0), (0, 0, 0), (2, 0, 3), (3, 9, 2), (9, 9, 9)])
    def test_product_of_empty_and_zero_shapes(self, shape):
        r, k, c = shape
        assert zeros(r, k) @ zeros(k, c) == zeros(r, c)
        assert zeros(r, k) @ IntMatrix(k, c, tuple(range(k * c))) == zeros(r, c)


GUARD_ROWS = 8  # the size of the guard tests' matrices; they force packed rows at any size
SWEEP = 800  # matrices per slot width in the pinned sweep
PACKED_ROWS = exactlinalg._PACKED_ROWS_MIN_DIM


@st.composite
def big_entry_symmetric_matrices(draw, rows=(1, 24), epsilons=(1, -1)):
    """(A, epsilon): epsilon-symmetric A with ``rows`` rows (inclusive bounds) and 1- to 300-bit entries.

    ``zero_diagonal`` and ``hyperbolic`` (a sum of ``[[0, b], [epsilon b, 0]]``
    blocks, every pivot 2x2) start with 2x2 pivots, as every skew A does;
    ``sparse`` meets zero live diagonals and zero rows later.  ``duplicated``
    repeats a row and its column, and ``zero_tail`` ends in a zero block, so
    A is singular, with a kernel of dimension two or more in ``zero_tail``.
    """
    n = draw(st.integers(*rows))
    epsilon = draw(st.sampled_from(epsilons))
    kind = draw(st.sampled_from(["general", "zero_diagonal", "hyperbolic", "sparse", "duplicated", "zero_tail"]))
    bits = draw(st.sampled_from([1, 2, 4, 16, 300]))
    flat = draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=n * n, max_size=n * n))
    if kind == "sparse":
        flat = [x if i % 3 == 0 else 0 for i, x in enumerate(flat)]
    rows = epsilon_rows(flat, n, epsilon)
    split = draw(st.integers(0, max(n - 2, 0))) if kind == "zero_tail" else n
    for i in range(n):
        for j in range(n):
            if (
                i == j and (kind == "zero_diagonal" or epsilon == -1)
                or kind == "hyperbolic" and (i // 2 != j // 2 or i == j)
                or max(i, j) >= split
            ):
                rows[i][j] = 0
    if kind == "duplicated" and n >= 2:
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[dst] = list(rows[src])
        for row in rows:
            row[dst] = row[src]
    return IntMatrix(n, n, tuple(x for row in rows for x in row)), epsilon


def counted_formats(mp):
    """Count the row formats ``_symmetric_bareiss`` builds, by class name, under the MonkeyPatch ``mp``."""
    made = Counter()

    def counting(fmt):
        init = fmt.__init__
        return lambda self, *args: made.update([fmt.__name__]) or init(self, *args)

    for fmt in (exactlinalg._ListRows, exactlinalg._PackedRows):
        mp.setattr(fmt, "__init__", counting(fmt))
    return made


def force_packed_rows(mp, packed=True):
    """Make ``_symmetric_bareiss`` run on packed rows (or on lists) whatever the size and entries."""
    mp.setattr(exactlinalg, "_PACKED_ROWS_MIN_DIM", 1 if packed else math.inf)
    mp.setattr(exactlinalg, "_PACKED_ROWS_MAX_WIDTH", math.inf)


def eliminate_on(packed, a, epsilon):
    """``_symmetric_bareiss(a, epsilon)`` on packed rows or on lists, checked to have run on that format."""
    with pytest.MonkeyPatch.context() as mp:
        force_packed_rows(mp, packed)
        made = counted_formats(mp)
        result = exactlinalg._symmetric_bareiss(a, epsilon)
    assert made == {"_PackedRows" if packed else "_ListRows": 1}
    return result


def pinned_slots(monkeypatch, width=1):
    """Force packed rows, pin their first layout to ``width``-byte slots and record each widening by its cause.

    A widening is ``"redo"`` when ``keep`` found a quotient digit outside the
    guard interval and ``"bound"`` when a 2x2 step's bound asked for it before
    the step.  One-byte slots guard [-4, 4) and two-byte slots [-64, 64).
    """
    assert (exactlinalg._Slots(1, 1).e, exactlinalg._Slots(2, 1).e) == (2, 6)
    force_packed_rows(monkeypatch)
    monkeypatch.setattr(exactlinalg._Slots, "for_entries", classmethod(lambda cls, entries, n: cls(width, n)))
    widened, keep = exactlinalg._Slots.widened, exactlinalg._PackedRows.keep
    calls = []

    def counted(self, packed):
        calls.append("bound")
        return widened(self, packed)

    def kept(self, new):
        if keep(self, new):
            return True
        calls[-1] = "redo"
        return False

    monkeypatch.setattr(exactlinalg._Slots, "widened", counted)
    monkeypatch.setattr(exactlinalg._PackedRows, "keep", kept)
    return calls


class TestPackedKernels:
    """The packed rows against the reference kernel, at the guard's edges and past the first width."""

    @settings(deadline=None, max_examples=150)
    @given(big_entry_symmetric_matrices())
    def test_symmetric_bareiss(self, pair):
        # each row format on the same input, whatever the dispatch would choose
        a, epsilon = pair
        expected = reference_symmetric_bareiss(a, epsilon)
        assert eliminate_on(True, a, epsilon) == expected
        assert eliminate_on(False, a, epsilon) == expected

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_guard_accepts_exactly_the_guard_interval(self, width):
        slots = exactlinalg._Slots(width, 5)
        top = 1 << slots.e
        for slot in (0, 2, 4):
            for value, inside in ((top - 1, True), (-(top - 1), True), (-top, True), (top, False), (-top - 1, False)):
                row = [top - 1, -top, 0, 1, -1]
                row[slot] = value
                packed = sum(x << (slots.bits * j) for j, x in enumerate(row))
                assert (slots.biased([0, packed]) is not None) == inside, (slot, value)
                if inside:
                    assert slots.unpack(slots.pack(row)) == row

    @pytest.mark.parametrize("a, c, g, widenings", [(2, 0, 1, 0), (1, -2, 1, 0), (0, 3, -1, 0), (2, 0, -1, 1)])
    def test_symmetric_bareiss_at_guard_edge(self, monkeypatch, a, c, g, widenings):
        # [[1, a], [a, c]] + diag(g, 1, ...): after the pivot 1, row 1's diagonal is t = c - a**2, and |t| >= 3
        # loses to every |g| = 1, so the second pivot is g, which leaves g t on row 1's diagonal: -4 and -3
        # are inside one-byte slots' guard [-4, 4) and 4 is not, so its 1x1 step is redone; t is the last pivot
        calls = pinned_slots(monkeypatch)
        rows = [[0] * GUARD_ROWS for _ in range(GUARD_ROWS)]
        rows[0][:2], rows[1][:2] = [1, a], [a, c]
        for i in range(2, GUARD_ROWS):
            rows[i][i] = g if i == 2 else 1
        m = IntMatrix.from_rows(rows)
        order, x, blocks = exactlinalg._symmetric_bareiss(m, 1)
        assert (order, x, blocks) == reference_symmetric_bareiss(m, 1)
        assert order == [0, 2, *range(3, GUARD_ROWS), 1]
        assert (blocks[1], blocks[-1]) == ([[g]], [[c - a * a]])  # g at scale 1, then t at scale g = +-1
        assert calls == ["redo"] * widenings

    def test_two_by_two_pivot_first_checks_its_wider_bound(self, monkeypatch):
        # two-byte slots: b = -64 and 16 are in [-64, 64), but b**2 * 16 = 2**16 would carry
        # into the next slot and read back as a guard-passing 1 there.  The bound b**2 2**6 >= 2**15 widens
        # first, and the step's 16 b**2 = 2**16, past four-byte slots' guard of 2**14, is then redone at eight
        calls = pinned_slots(monkeypatch, width=2)
        for epsilon in (1, -1):
            rows = [[0] * GUARD_ROWS for _ in range(GUARD_ROWS)]
            rows[0][1], rows[1][0] = -64, -64 * epsilon
            rows[2][3], rows[3][2] = 16, 16 * epsilon
            a = IntMatrix.from_rows(rows)
            calls.clear()
            assert exactlinalg._symmetric_bareiss(a, epsilon) == reference_symmetric_bareiss(a, epsilon)
            assert calls == ["bound", "redo"]

    @pytest.mark.parametrize("b, f, widenings", [(-20, 2, 0), (-16, 8, 1), (-20, 3, 1)])
    def test_two_by_two_bound_at_its_edge(self, monkeypatch, b, f, widenings):
        # two-byte slots, scale 1: the pivot b of rows 0 and 1 with the multiplier f in row 2 gives the bound
        # (b**2 + 2 |b| f) 2**6 against 2**15, that is 480 (just below), 512 (at) and 520 against 512.  The
        # step leaves -b f in row 2: 40 and 60 inside the guard [-64, 64), so the last widening is the
        # bound's alone, and 128 past it
        calls = pinned_slots(monkeypatch, width=2)
        for epsilon in (1, -1):
            rows = [[0] * GUARD_ROWS for _ in range(GUARD_ROWS)]
            rows[0][1], rows[1][0] = b, epsilon * b
            rows[1][2], rows[2][1] = f, epsilon * f
            a = IntMatrix.from_rows(rows)
            calls.clear()
            assert exactlinalg._symmetric_bareiss(a, epsilon) == reference_symmetric_bareiss(a, epsilon)
            assert calls == ["bound"] * widenings

    def test_scale_past_the_guard_needs_no_widening(self, monkeypatch):
        # a 2x2 pivot b = -12 makes the scale b**2 = 144, past two-byte slots' guard of 64, while every
        # digit stays inside it: rows 2 and 3, tied to rows 0 and 1 by ones, come out with coefficients
        # of 12, and the next pivot is the 1x1 pivot 24 (symmetric) or the 2x2 pivot 12 (skew).  The 1x1
        # step's pivot row holds 24 + 144 in column 2 and its dividend -12 * 144 there, both past the
        # guard, yet the quotient -12 reads back exactly, so neither step widens.  The elimination itself
        # takes the tie 1 in row 0 before b, the least entry first, so both steps are driven here, on
        # packed rows and on lists
        calls = pinned_slots(monkeypatch, width=2)
        for epsilon in (1, -1):
            rows = [[0] * GUARD_ROWS for _ in range(GUARD_ROWS)]
            rows[0][1], rows[1][0] = -12, -12 * epsilon
            rows[2][0], rows[0][2] = 1, epsilon
            rows[2][1], rows[1][2] = 1, epsilon
            rows[3][1], rows[1][3] = 1, epsilon
            a = IntMatrix.from_rows(rows)
            assert reference_symmetric_bareiss(a, epsilon)[2][0] == [[0, epsilon], [1, 0]]  # the tie, not b
            packed, lists = exactlinalg._PackedRows(a, exactlinalg._Slots(2, GUARD_ROWS)), exactlinalg._ListRows(a)
            calls.clear()
            for live in (packed, lists):
                live.pivot2(0, 1, 0, 1, -12, 1, epsilon)
            assert [packed.row(t) for t in range(2)] == lists.rows[:2]
            live_block = [[24, 12], [12, 0]] if epsilon == 1 else [[0, 12], [-12, 0]]
            assert [row[2:4] for row in lists.rows[:2]] == live_block
            assert calls == []
            for live in (packed, lists):
                if epsilon == 1:
                    live.pivot(0, 2, 24, 144)
                else:
                    live.pivot2(0, 1, 2, 3, 12, 144, epsilon)
            assert [packed.row(t) for t in range(len(lists.rows))] == lists.rows
            assert calls == []

    def test_overflow_mid_elimination_redoes_one_step(self, monkeypatch):
        calls = pinned_slots(monkeypatch)
        a = zero_diagonal_model(1, 1).matrix
        assert exactlinalg._symmetric_bareiss(a, 1) == reference_symmetric_bareiss(a, 1)
        assert calls == ["redo"]
        calls.clear()
        # entries in {-1, 0, 1} keep the first 2x2 step's bound, at scale 1, below one-byte slots' 2**7:
        # (1 + 2) 2**2 = 12, so what widens is a redo
        rng, rows = random.Random(0), [[0] * GUARD_ROWS for _ in range(GUARD_ROWS)]
        for i in range(GUARD_ROWS):
            for j in range(i + 1, GUARD_ROWS):
                rows[i][j] = rng.choice([-1, 0, 1])
                rows[j][i] = -rows[i][j]
        skew = IntMatrix.from_rows(rows)
        assert exactlinalg._symmetric_bareiss(skew, -1) == reference_symmetric_bareiss(skew, -1)
        assert calls == ["redo"]

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_sweep_at_pinned_widths(self, monkeypatch, width):
        # small epsilon-symmetric matrices, general, zero-diagonal or sparse, with entries inside the guard
        # interval (at most 200), against the reference; some of them widen
        calls = pinned_slots(monkeypatch, width)
        rng, top = random.Random(width), min(200, (1 << exactlinalg._Slots(width, 1).e) - 1)
        for _ in range(SWEEP):
            n, epsilon, size = rng.randint(2, 6), rng.choice((1, -1)), rng.randint(1, top)
            kind = rng.choice(("general", "zero_diagonal", "sparse"))
            flat = [0 if kind == "sparse" and rng.random() < 0.6 else rng.randint(-size, size) for _ in range(n * n)]
            rows = epsilon_rows(flat, n, epsilon)
            for i in range(n):
                if epsilon == -1 or kind == "zero_diagonal":
                    rows[i][i] = 0
            a = IntMatrix.from_rows(rows)
            assert exactlinalg._symmetric_bareiss(a, epsilon) == reference_symmetric_bareiss(a, epsilon), rows
        assert calls

    def test_300_bit_entries(self):
        rng = random.Random(300)
        for n in (GUARD_ROWS, GUARD_ROWS + 3):
            rows = [[rng.randint(-(1 << 300), 1 << 300) for _ in range(n)] for _ in range(n)]
            for epsilon in (1, -1):
                flat = [x for row in rows for x in row]
                a = IntMatrix(n, n, tuple(x * (i != j) for i, row in enumerate(epsilon_rows(flat, n, epsilon))
                                          for j, x in enumerate(row)))
                assert eliminate_on(True, a, epsilon) == reference_symmetric_bareiss(a, epsilon)

    def test_det_of_non_unimodular_matrix_with_large_intermediates(self):
        rng = random.Random(12)
        a = IntMatrix(12, 12, tuple(rng.randint(-(1 << 20), 1 << 20) for _ in range(144)))
        det = fraction_det(a.to_rows())
        assert det != 0 and abs(det.numerator).bit_length() > 200
        assert det_bareiss(a) == det
        singular = IntMatrix.from_rows(a.to_rows()[:-1] + [[x - y for x, y in zip(a.row(0), a.row(1))]])
        assert det_bareiss(singular) == 0

    @pytest.mark.parametrize(
        "n, top, packed",
        [
            (PACKED_ROWS - 1, 3, False),
            (PACKED_ROWS, 3, True),
            (20, (1 << 14) - 1, True),  # 14-bit entries: eight-byte slots
            (20, 1 << 14, False),  # 15-bit entries need sixteen
            (20, (1 << 40) - 1, False),
        ],
    )
    def test_sizes_at_the_packed_cutoff(self, monkeypatch, n, top, packed):
        made = counted_formats(monkeypatch)
        rng = random.Random(n)
        for _ in range(5):
            flat = [rng.randint(-top, top) for _ in range(n * n)]
            flat[n - 1] = top
            for epsilon in (1, -1):
                rows = epsilon_rows(flat, n, epsilon)
                if epsilon == -1:
                    for i in range(n):
                        rows[i][i] = 0
                a = IntMatrix.from_rows(rows)
                assert exactlinalg._symmetric_bareiss(a, epsilon) == reference_symmetric_bareiss(a, epsilon)
        assert made == {"_PackedRows" if packed else "_ListRows": 10}


class TestIntMatrix:
    @pytest.mark.parametrize("bad", [1.5, True, Fraction(1), "1"])
    def test_from_rows_rejects_non_int_entries(self, bad):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[0, bad], [bad, 0]])

    @settings(deadline=None, max_examples=80)
    @given(matmul_pairs)
    def test_matmul_matches_triple_loop(self, pair):
        a, b = pair
        flat = []
        for i in range(a.rows):
            for j in range(b.cols):
                total = 0
                for t in range(a.cols):
                    total += a.at(i, t) * b.at(t, j)
                flat.append(total)
        assert a @ b == IntMatrix(a.rows, b.cols, tuple(flat))


def _value_instances():
    """One new instance of every ``exactlinalg.Frozen`` class, built from fresh but equal fields on every call."""
    h = IntMatrix.from_rows([[0, 1], [1, 0]])
    form = forms.BilinearForm(h, 1)
    link = hopflink.HopfLinkSpec(form, n=4)
    edges = tuple(graphmodel.Edge(0, c + 1, c, 0) for c in range(3))
    analysis = invariants.CupFormAnalysis(Inertia(1, 1, 1), ((Fraction(1), Fraction(-1)),))
    return [
        h,
        Inertia(1, 1, 1),
        exactlinalg.SmithForm(IntMatrix.identity(2), diagonal([1, 1]), h),
        form,
        forms.FormClass("even", "indefinite", True, 1, 0),
        graphmodel.Edge(0, 1, 0, 0, "twist"),
        graphmodel.DecoratedGraph((link, *[hopflink.disk(4)] * 3), edges),
        graphmodel.GraphCounts(3, 1, 0, 2),
        hopflink.disk(4),
        link,
        hopflink.AdmissibilityReport(-1, True, True, True, False, ("a note",)),
        analysis,
        invariants.PhiBounds(0, 1, ("a note",)),
        invariants.ProductFactor("connsum", 2),
        invariants.ProductBound(1, 4, 6, ("a note",)),
        invariants.InvariantReport(form, analysis, 4, None, None, ("a note",), ("a verdict",)),
        cli.SpecFile(False, (), (invariants.ProductFactor("S4"),), {"factors": [{"kind": "S4"}]}, "a.json"),
    ]


class TestValueClasses:
    def test_every_value_class_is_listed(self):
        assert {type(v) for v in _value_instances()} == set(exactlinalg.Frozen.__subclasses__())
        assert len(_value_instances()) == 17

    @pytest.mark.parametrize("index", range(17), ids=[type(v).__name__ for v in _value_instances()])
    def test_equality_hashing_and_immutability(self, index):
        value, twin = _value_instances()[index], _value_instances()[index]
        assert value is not twin and value == twin and not value != twin
        if isinstance(value, cli.SpecFile):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):  # its data is the decoded document
                hash(value)
        else:
            assert hash(value) == hash(twin)
        assert all(value != other for other in _value_instances() if type(other) is not type(value))
        fields = type(value)._fields
        assert value != tuple(getattr(value, f) for f in fields)
        assert repr(value).startswith(f"{type(value).__name__}({fields[0]}={getattr(value, fields[0])!r}, ")
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == twin

    def test_spec_file_equality_ignores_source_and_repr_omits_data(self):
        spec = _value_instances()[-1]
        elsewhere = cli.SpecFile(spec.assume_cobounding, spec.graphs, spec.factors, dict(spec.data), "b.json")
        assert spec == elsewhere and spec.source != elsewhere.source
        assert spec != cli.SpecFile(spec.assume_cobounding, spec.graphs, spec.factors, {}, spec.source)
        assert repr(spec) == "SpecFile(assume_cobounding=False, graphs=(), factors=(ProductFactor(kind='S4', r=0),), " \
                             "source='a.json')"

    def test_cached_facts_survive_the_frozen_fields(self):
        graph = _value_instances()[6]
        assert graph.counts is graph.counts and graph.vertices[0].linking_matrix is graph.vertices[0].linking_matrix
        assert graph.vertices[0].form.inverse == IntMatrix.from_rows([[0, 1], [1, 0]])


class TestDeterminant:
    def test_identity(self):
        assert det_bareiss(IntMatrix.identity(3)) == 1

    def test_e8(self):
        assert det_bareiss(E8_MATRIX) == 1

    def test_hyperbolic(self):
        assert det_bareiss(H_MATRIX) == -1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det_bareiss(zeros(2, 3))

    @settings(deadline=None, max_examples=60)
    @given(small_square)
    def test_matches_cofactor_oracle(self, rows):
        a = IntMatrix.from_rows(rows)
        assert det_bareiss(a) == det_cofactor(a)

    def test_bordered_forms_match_cofactor_oracle(self):
        # zero-diagonal forms bordered by a component linking every other once:
        # [[0]], H, [[0, 2], [2, 0]] and the 4-vertex path
        bordered = [
            [[0, 1], [1, 0]],
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [[0, 1, 1], [1, 0, 2], [1, 2, 0]],
            [[0, 1, 1, 1, 1], [1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [1, 0, 1, 0, 1], [1, 0, 0, 1, 0]],
        ]
        for rows in bordered:
            a = IntMatrix.from_rows(rows)
            assert det_bareiss(a) == det_cofactor(a)

    def test_matches_smith_diagonal(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 8)
            a = random_square(rng, n)
            prod = 1
            for x in smith_normal_form(a).diagonal():
                prod *= x
            assert abs(det_bareiss(a)) == abs(prod)


class TestSmithNormalForm:
    def test_hyperbolic(self):
        assert smith_normal_form(H_MATRIX).diagonal() == (1, 1)

    def test_1x1(self):
        assert smith_normal_form(IntMatrix.from_rows([[2]])).diagonal() == (2,)

    def test_already_chain(self):
        assert smith_normal_form(diagonal([2, 4])).diagonal() == (2, 4)

    def test_postconditions_random(self):
        rng = random.Random(5)
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
            )
            form = smith_normal_form(a)
            assert form.u @ a @ form.v == form.d
            assert det_bareiss(form.u) in (1, -1)
            assert det_bareiss(form.v) in (1, -1)
            diag = form.diagonal()
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if x == 0:
                    assert y == 0
                elif y != 0:
                    assert y % x == 0
            # off-diagonal entries are zero
            for i in range(form.d.rows):
                for j in range(form.d.cols):
                    if i != j:
                        assert form.d.at(i, j) == 0

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4], [0, 2, 10]])
        assert smith_normal_form(a) == smith_normal_form(a)


class TestInverse:
    def test_hyperbolic_is_involution(self):
        assert inverse_unimodular(H_MATRIX) == H_MATRIX

    def test_identity(self):
        assert inverse_unimodular(IntMatrix.identity(4)) == IntMatrix.identity(4)

    def test_e8(self):
        inv = inverse_unimodular(E8_MATRIX)
        assert E8_MATRIX @ inv == IntMatrix.identity(8)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            inverse_unimodular(diagonal([1, 2]))

    @pytest.mark.parametrize("slot", [0, 37, -1])
    def test_corrupted_packed_product_is_caught(self, monkeypatch, slot):
        # add 1 to entry (slot // 10, slot % 10) of A A^-1, the last one for -1, where the check reads it: in a
        # packed row
        a = zero_diagonal_model(1, 1).matrix
        product = exactlinalg._packed_product_rows
        calls = []

        def corrupted(a, b):
            slots, rows = product(a, b)
            rows[slot // b.cols] += 1 << slots.bits * (slot % b.cols)
            calls.append((a.cols, b.cols))
            return slots, rows

        monkeypatch.setattr(exactlinalg, "_packed_product_rows", corrupted)
        with pytest.raises(AlgorithmMismatchError, match="inverse verification failed"):
            inverse_unimodular(a)
        assert calls == [(10, 10)]  # the A A^-1 = I check ran on the packed path

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_packed_check_accepts_exactly_the_inverse(self, data):
        # A^-1 + E for a unimodular A, with E zero, random, or A^-1 F for an F that cancels in a packed
        # row of w-bit slots: 2**w at (i, j) and -1 at (i, j + 1); entries of E up to 2**70
        n = data.draw(st.integers(1, 2 * exactlinalg._PACKED_MIN_DIM))
        a = random_unimodular(random.Random(data.draw(st.integers(0, 2**32))), n)
        inv = inverse_unimodular(a)
        kind = data.draw(st.sampled_from(["zero", "random", "carry"]))
        e = [0] * (n * n)
        if kind == "random":
            bits = data.draw(st.sampled_from([1, 8, 63, 70]))
            for _ in range(data.draw(st.integers(1, 3))):
                e[data.draw(st.integers(0, n * n - 1))] = data.draw(st.integers(-(1 << bits), 1 << bits))
        elif kind == "carry" and n >= 2:
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 2))
            f = [0] * (n * n)
            f[i * n + j], f[i * n + j + 1] = 1 << data.draw(st.sampled_from([8, 16, 32, 56])), -1
            e = list(reference_product(inv, IntMatrix(n, n, tuple(f))))
        assert max(map(abs, e)) <= 1 << 70  # A^-1 has entries of 7 bits at most
        candidate = IntMatrix(n, n, tuple(x + y for x, y in zip(inv.entries, e)))
        exact = reference_product(a, candidate) == IntMatrix.identity(n).entries
        assert exact == (kind == "zero" or not any(e))
        try:
            assert exactlinalg._checked_inverse(a, candidate) is candidate and exact
        except AlgorithmMismatchError:
            assert not exact

    def test_random_unimodular_corpus(self):
        rng = random.Random(2)
        for _ in range(25):
            a = random_unimodular(rng, rng.randint(1, 7))
            assert a @ inverse_unimodular(a) == IntMatrix.identity(a.rows)

    @pytest.mark.parametrize("p, q", [(3, 4), (4, 4)])
    def test_zero_diagonal_model_within_cpu_budget(self, p, q):
        # coefficient growth in the inverse shows here as minutes of CPU time
        a = zero_diagonal_model(p, q).matrix
        previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
        signal.setitimer(signal.ITIMER_PROF, 5)
        try:
            inv = inverse_unimodular(a)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        assert a @ inv == IntMatrix.identity(a.rows)


class TestNullspace:
    def test_nonsingular_empty(self):
        assert nullspace_rational(E8_MATRIX) == ()

    def test_zero_matrix(self):
        basis = nullspace_rational(zeros(2, 2))
        assert len(basis) == 2

    def test_bordered_hyperbolic(self):
        # derived linking matrix of the hyperbolic decoration
        a = IntMatrix.from_rows([[2, -1, -1], [-1, 0, 1], [-1, 1, 0]])
        basis = nullspace_rational(a)
        assert basis == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_normalization_and_clearing(self):
        a = IntMatrix.from_rows([[2, 4], [1, 2]])
        (vec,) = nullspace_rational(a)
        assert vec == (Fraction(1), Fraction(-1, 2))

    def test_dimension_matches_nullity(self):
        rng = random.Random(9)
        for _ in range(40):
            a = random_symmetric(rng, rng.randint(1, 7), bound=3)
            assert len(nullspace_rational(a)) == inertia(a).n_zero

    @settings(deadline=None, max_examples=100)
    @given(any_shape, st.booleans())
    def test_any_shape_matches_smith_rank(self, rows, singular):
        if singular and len(rows) > 1:
            rows = rows[:-1] + [[-x for x in rows[0]]]
        a = IntMatrix.from_rows(rows)
        basis = nullspace_rational(a)
        for vec in basis:
            assert next(x for x in vec if x) == 1
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows)
        assert len(basis) == a.cols - smith_normal_form(a).rank

    def test_corrupted_elimination_is_caught(self, monkeypatch):
        elimination = exactlinalg._gauss_jordan

        def corrupted(m):
            result = elimination(m)
            m[0][-1] += 1
            return result

        monkeypatch.setattr(exactlinalg, "_gauss_jordan", corrupted)
        a = IntMatrix.from_rows([[2, -1, -1], [-1, 0, 1], [-1, 1, 0]])
        with pytest.raises(AlgorithmMismatchError, match="kernel verification failed"):
            nullspace_rational(a)

    def test_zero_vector_is_caught(self, monkeypatch):
        # a zero scale makes each free column's vector zero, which A v = 0 alone would pass
        elimination = exactlinalg._gauss_jordan

        def corrupted(m):
            pivots, _, sign = elimination(m)
            return pivots, 0, sign

        monkeypatch.setattr(exactlinalg, "_gauss_jordan", corrupted)
        with pytest.raises(AlgorithmMismatchError, match="kernel verification failed: a zero vector"):
            nullspace_rational(zeros(2, 2))


def corrupt_elimination(monkeypatch, corrupt):
    """Make ``_symmetric_bareiss`` add 1 to X's last row or to D's first entry, or zero X's first row."""
    elimination = exactlinalg._symmetric_bareiss

    def corrupted(m, epsilon):
        order, x, blocks = elimination(m, epsilon)
        if corrupt == "transform_row":
            x[-1] = [v + 1 for v in x[-1]]
        elif corrupt == "d_entry":
            blocks[0][0][0] += 1
        else:
            x[0] = [0] * len(x[0])
        return order, x, blocks

    monkeypatch.setattr(exactlinalg, "_symmetric_bareiss", corrupted)


class TestInertia:
    def test_hyperbolic(self):
        assert inertia(H_MATRIX) == Inertia(1, 1, 0)

    def test_e8(self):
        assert inertia(E8_MATRIX) == Inertia(8, 0, 0)

    def test_zero(self):
        assert inertia(zeros(3, 3)) == Inertia(0, 0, 3)

    def test_requires_symmetry(self):
        with pytest.raises(SymmetryError):
            inertia(IntMatrix.from_rows([[0, 1], [-1, 0]]))

    def test_zero_diagonal_pivot(self):
        # forces the 2x2 pivot path
        a = IntMatrix.from_rows([[0, 3], [3, 0]])
        assert inertia_ldlt(a) == Inertia(1, 1, 0)

    def test_two_by_two_pivot_after_one_by_one(self):
        # the 2x2 pivot meets scale 2, so its block in D is [[0, 12], [12, 0]]
        a = IntMatrix.from_rows([[2, 0, 0], [0, 0, 3], [0, 3, 0]])
        assert inertia_ldlt(a) == Inertia(2, 1, 0)

    @settings(deadline=None, max_examples=200)
    @given(symmetric_matrices(epsilons=(1,)))
    def test_algorithms_agree(self, pair):
        a, _ = pair
        assert inertia_ldlt(a) == inertia_charpoly(a)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # the decoration is unimodular: its determinant, det D / det(X)**2, is no longer an integer
            ("transform_row", r"det\(X\)\*\*2 does not divide det D"),
            # its zero diagonal makes D's first block [[0, c], [c, 0]], and a nonzero corner breaks that shape
            ("d_entry", r"D has a block not 1x1"),
            # X A X^T == D still holds for A = 0, but X is not invertible
            ("singular_transform", "triangular"),
        ],
        ids=["transform_row", "d_entry", "singular_transform"],
    )
    def test_corrupted_certificate_is_caught(self, monkeypatch, corrupt, message):
        corrupt_elimination(monkeypatch, corrupt)
        a = zeros(3, 3) if corrupt == "singular_transform" else zero_diagonal_model(1, 1).matrix
        with pytest.raises(AlgorithmMismatchError, match=message):
            inertia_ldlt(a)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # every row of a linking matrix sums to 0, so adding 1 to a row of X leaves X A X^T = D; here
            # it zeroes X's last row, -1 everywhere, and only the shape of X is left to catch it
            ("transform_row", "triangular"),
            ("d_entry", r"X A X\^T != D"),
        ],
        ids=["transform_row", "d_entry"],
    )
    def test_corrupted_certificate_of_singular_form_is_caught(self, monkeypatch, corrupt, message):
        # the linking matrix of a decoration is singular, so its certificate is X A X^T = D and the shape of X
        a = derived_linking_matrix(zero_diagonal_model(1, 1))
        corrupt_elimination(monkeypatch, corrupt)
        with pytest.raises(AlgorithmMismatchError, match=message):
            inertia_ldlt(a)

    @pytest.mark.parametrize("form", ["zero_diagonal_model(20, 20)", "skew96"])
    def test_pivots_keep_the_lcm_of_d_narrow(self, form):
        # the lcm of D's entries scales the inverse's product; pivoting on the first nonzero entry made it
        # 390 and 70 bits wide here
        if form == "skew96":
            a, epsilon = random_congruence(random.Random(96), skew_seed(48)).matrix, -1
        else:
            a, epsilon = zero_diagonal_model(20, 20).matrix, 1
        congruence = exactlinalg.Congruence(a, epsilon)
        assert math.lcm(*(v for b in congruence.blocks for row in b for v in row if v)).bit_length() <= 16
        assert congruence.det in (1, -1) and a @ congruence.inverse == IntMatrix.identity(a.rows)

    def test_report_at_d56_within_cpu_budget(self):
        # the characteristic polynomial took most of this report's 3.7 s of CPU time
        data = one_vertex_tree(zero_diagonal_model(6, 4).matrix, 4)
        previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
        signal.setitimer(signal.ITIMER_PROF, 2)
        try:
            doc = build_report(parse_spec_data(data))
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        assert doc["inertia"] == {"n_plus": 52, "n_minus": 4, "n_zero": 1}
        assert doc["sigma"] == 48

    def test_sylvester_rational_congruence(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = random_symmetric(rng, n, bound=4)
            base = inertia(a)
            while True:
                m = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
                # M A M^T and (cM) A (cM)^T differ by c^2 > 0, which preserves inertia
                c = math.lcm(*(x.denominator for row in m for x in row))
                scaled = IntMatrix.from_rows([[int(x * c) for x in row] for row in m])
                if det_bareiss(scaled) != 0:
                    break
            assert inertia(congruence_apply(scaled, a)) == base


@st.composite
def unimodular_forms(draw):
    """(A, epsilon): a sum of hyperbolic or skew planes under a random unimodular congruence, 2 to 14 rows."""
    epsilon = draw(st.sampled_from([1, -1]))
    seed = (hyperbolic_seed if epsilon == 1 else skew_seed)(draw(st.integers(1, 7)))
    return random_congruence(random.Random(draw(st.integers(0, 2**32))), seed).matrix, epsilon


class TestEpsilonCongruence:
    """One ``Congruence`` per form against the references: ``det_bareiss``, ``nullspace_rational``, ``inverse_unimodular``."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(symmetric_matrices(), big_entry_symmetric_matrices(rows=(8, 12)), unimodular_forms()))
    def test_facts_match_the_references(self, pair):
        a, epsilon = pair
        congruence = exactlinalg.Congruence(a, epsilon)
        assert congruence.det == det_bareiss(a)
        assert congruence.kernel == nullspace_rational(a)
        if congruence.det in (1, -1):
            assert congruence.inverse == inverse_unimodular(a)
        else:
            with pytest.raises(NotUnimodularError):
                congruence.inverse
        if epsilon == 1:
            assert congruence.inertia.n_zero == len(congruence.kernel)

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_corrupted_zero_block_row_is_caught(self, monkeypatch, epsilon):
        elimination = exactlinalg._symmetric_bareiss

        def corrupted(m, epsilon):
            order, x, blocks = elimination(m, epsilon)
            t = sum(len(b) for b in blocks[: blocks.index([[0]])])  # the row of X at D's first zero block
            x[t][order[0]] += 1  # below the diagonal, so X stays triangular
            return order, x, blocks

        monkeypatch.setattr(exactlinalg, "_symmetric_bareiss", corrupted)
        # the derived linking matrix of a hyperbolic or skew plane: kernel (1, 1, 1)
        rows = [[2, -1, -1], [-1, 0, 1], [-1, 1, 0]] if epsilon == 1 else [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
        with pytest.raises(AlgorithmMismatchError, match=r"X A X\^T != D"):
            exactlinalg.Congruence(IntMatrix.from_rows(rows), epsilon).kernel

    @staticmethod
    def eliminate_to(monkeypatch, x, blocks):
        """Make ``_symmetric_bareiss`` return pivot order [0, 1, ...], ``x`` and ``blocks``."""
        monkeypatch.setattr(exactlinalg, "_symmetric_bareiss", lambda m, epsilon: (list(range(len(x))), x, blocks))

    def test_determinant_division_is_exact(self, monkeypatch):
        # det D / det(X)**2 = -3 / 4 is no integer: floor division read it as -1, the true determinant
        self.eliminate_to(monkeypatch, [[-2, 0], [0, 1]], [[[3]], [[-1]]])
        with pytest.raises(AlgorithmMismatchError, match=r"det\(X\)\*\*2 does not divide det D"):
            exactlinalg.Congruence(diagonal([1, -1]), 1).det
        self.eliminate_to(monkeypatch, [[-2, 0], [0, 1]], [[[3]], [[0]]])
        assert exactlinalg.Congruence(diagonal([1, -1]), 1).det == 0

    def test_inverse_must_divide_exactly(self, monkeypatch):
        # det = (2 * -2) / (-2)**2 = -1 exactly and X A X^T = [[4, 2], [2, 0]] != D, but X^T D^-1 X is
        # [[3/2, 1/2], [1/2, -1/2]], whose floor is A^-1: only the exact division catches it
        self.eliminate_to(monkeypatch, [[-2, 0], [-1, 1]], [[[2]], [[-2]]])
        a = diagonal([1, -1])
        assert exactlinalg.Congruence(a, 1).det == -1
        for fact in ("inverse", "inertia"):
            with pytest.raises(AlgorithmMismatchError, match=r"X\^T D\^-1 X is not an integer matrix"):
                getattr(exactlinalg.Congruence(a, 1), fact)

    @pytest.mark.parametrize(
        "corner, d, det",
        [
            # the 2x2 case above plus I_8: rows 0 and 1 of lcm X^T D^-1 X, (3, 1, 0, ...) and (1, -1, 0, ...),
            # each leave a remainder when divided by the lcm 2 as one packed integer
            ([[-2, 0], [-1, 1]], [2, -2], -1),
            # X = diag(1, 2, ...), D = diag(2, 2, 1, ...): row 0 is (1, 0, ...), whose quotient 0 passes the
            # check of its digits; only the remainder catches it
            ([[1, 0], [0, 2]], [2, 2], 1),
            # X = [[3, 0], [2, 1]], D = diag(3, 3, 1, ...): rows 0 and 1 are (13, 2, 0, ...) and (2, 1, 0, ...).
            # Slots of w bits, w even, have 2**w = 1 mod 3, so 13 + 2 * 2**w and 2 + 2**w divide by 3 with no
            # remainder; only the check of the quotient's digits catches it
            ([[3, 0], [2, 1]], [3, 3], 1),
        ],
        ids=["remainders", "remainder_in_slot_0", "digits"],
    )
    def test_inverse_must_divide_exactly_on_packed_rows(self, monkeypatch, corner, d, det):
        n = 10
        assert n >= exactlinalg._PACKED_MIN_DIM
        x = [row + [0] * 8 for row in corner] + [[int(i == j) for j in range(n)] for i in range(2, n)]
        self.eliminate_to(monkeypatch, x, [[[v]] for v in d] + [[[1]]] * 8)
        a = diagonal([det] + [1] * 9)
        assert exactlinalg.Congruence(a, 1).det == det
        for fact in ("inverse", "inertia"):
            with pytest.raises(AlgorithmMismatchError, match=r"X\^T D\^-1 X is not an integer matrix"):
                getattr(exactlinalg.Congruence(a, 1), fact)

    @pytest.mark.parametrize("source", ["golden scrambled_d40", "random congruence"])
    def test_inverse_divided_by_an_lcm_past_64_bits(self, source):
        # the certificate's slots are wider than 8 bytes here; the golden spec's decoration is a scrambled
        # zero-diagonal model at d = 40
        if source == "random congruence":
            a = random_congruence(random.Random(1), zero_diagonal_model(4, 4)).matrix
        else:
            with open(os.path.join(SPECS, "scrambled_d40.json"), encoding="utf-8") as fh:
                a = IntMatrix.from_rows(json.load(fh)["graphs"][0]["vertices"][0]["matrix"])
        congruence = exactlinalg.Congruence(a, 1)
        assert math.lcm(*(v for b in congruence.blocks for row in b for v in row if v)).bit_length() > 64
        assert congruence.inverse == inverse_unimodular(a)

    def test_inverse_of_non_unimodular_form_runs_no_product(self, monkeypatch):
        congruence = exactlinalg.Congruence(diagonal([1, 2]), 1)
        calls = Counter()
        for home, name in ((exactlinalg, "congruence_apply"), (IntMatrix, "__matmul__")):
            original = getattr(home, name)
            monkeypatch.setattr(home, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
        with pytest.raises(NotUnimodularError, match="determinant 2"):
            congruence.inverse
        assert calls == Counter()

    def test_corrupted_kernel_normalisation_is_caught(self, monkeypatch):
        elimination = exactlinalg._gauss_jordan

        def corrupted(m):
            result = elimination(m)
            m[0][-1] += 1  # column 0 of A, once the columns are reversed back
            return result

        monkeypatch.setattr(exactlinalg, "_gauss_jordan", corrupted)
        a = IntMatrix.block_diagonal([H_MATRIX, zeros(2, 2)])  # a two-dimensional kernel
        with pytest.raises(AlgorithmMismatchError, match="kernel verification failed"):
            exactlinalg.Congruence(a, 1).kernel

    def test_zeroed_kernel_vector_is_caught(self, monkeypatch):
        elimination = exactlinalg._gauss_jordan

        def corrupted(m):
            result = elimination(m)
            m[0] = [0] * len(m[0])  # the last kernel vector, once the rows are reversed back
            return result

        monkeypatch.setattr(exactlinalg, "_gauss_jordan", corrupted)
        a = IntMatrix.block_diagonal([H_MATRIX, zeros(2, 2)])
        with pytest.raises(AlgorithmMismatchError, match="kernel verification failed: a zero vector"):
            exactlinalg.Congruence(a, 1).kernel


class TestCharpoly:
    def test_hyperbolic(self):
        assert charpoly(H_MATRIX) == (1, 0, -1)

    def test_diagonal(self):
        assert charpoly(diagonal([2, 3])) == (1, -5, 6)

    @settings(deadline=None, max_examples=40)
    @given(small_square)
    def test_constant_term_is_det(self, rows):
        a = IntMatrix.from_rows(rows)
        n = a.rows
        assert charpoly(a)[-1] == (-1) ** n * det_bareiss(a)


class TestCongruence:
    def test_identity(self):
        assert congruence_apply(IntMatrix.identity(8), E8_MATRIX) == E8_MATRIX

    def test_self_congruence_recovers_form(self):
        # for symmetric unimodular A: A A^{-1} A^T = A
        a = build_standard(1, 1).matrix
        inv = inverse_unimodular(a)
        assert congruence_apply(a, inv) == a

    def test_isotropic_change_of_basis(self):
        model = zero_diagonal_model(1, 1)
        assert model.matrix.has_zero_diagonal()
        assert model.dim == 10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            congruence_apply(IntMatrix.identity(2), E8_MATRIX)
