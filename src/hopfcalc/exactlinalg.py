"""Exact dense linear algebra over the integers and rationals.

Every computation in this package is exact: entries are Python ints
(arbitrary precision) or ``fractions.Fraction``.  No floating point enters
anywhere.  The operations provided here are the substrate for everything
else: determinants, integer inverses of unimodular matrices and rational
nullspaces, all read from one fraction-free Gauss-Jordan elimination; Smith
normal form with transforms, the tests' reference for the oracle's
presentations, kept while ``perfbench/tracer.py`` patches it; and the
inertia of symmetric matrices from a fraction-free symmetric elimination
certified by a verified congruence.
The inertia from the characteristic polynomial is the independent check
that ``selftest`` and the tests run.

The kernels stay exact and spend their Python bytecode on live entries
only.  A product with every dimension large enough packs each row of the
right factor into one integer (Kronecker substitution), so the inner loop
runs in CPython's big-integer code.  The eliminations update only the
entries that can still change: Gauss-Jordan skips the columns left of the
pivot and scales them once at the end, and the symmetric elimination keeps
each live row's live columns and its transform on the processed pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class SymmetryError(ValueError):
    """A symmetric (or declared-epsilon-symmetric) matrix was required."""


class NotUnimodularError(ValueError):
    """An operation required determinant +-1."""


class AlgorithmMismatchError(RuntimeError):
    """Two independent algorithms disagreed.  Always a bug; never swallowed."""


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        """Matrix from a list of rows; every entry must be an ``int`` (not a ``bool``)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            flat.extend(r)
        for x in flat:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"integer entry required, got {x!r}")
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return cls(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def block_diagonal(cls, blocks: Iterable["IntMatrix"]) -> "IntMatrix":
        blocks = list(blocks)
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        flat = [0] * (rows * cols)
        start = 0  # flat index of the block's top-left entry
        for b in blocks:
            for i in range(b.rows):
                flat[start + i * cols : start + i * cols + b.cols] = b.row(i)
            start += b.rows * cols + b.cols
        return cls(rows, cols, tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(chain.from_iterable(self.entries[j :: self.cols] for j in range(self.cols))),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if min(self.rows, self.cols, other.cols) < _PACKED_MIN_DIM:
            cols = [other.entries[j :: other.cols] for j in range(other.cols)]
            entries = tuple(sum(map(mul, self.row(i), col)) for i in range(self.rows) for col in cols)
        else:
            entries = _packed_product(self, other)
        return IntMatrix(self.rows, other.cols, entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def trace(self) -> int:
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        return sum(self.at(i, i) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        n = self.cols
        return self.is_square and all(self.entries[i * n : i * n + n] == self.entries[i::n] for i in range(n))

    def is_skew_symmetric(self) -> bool:
        # x == -x only for x == 0, so this also asks for a zero diagonal
        return self.is_square and self.transpose().entries == tuple(-x for x in self.entries)

    def has_zero_diagonal(self) -> bool:
        return self.is_square and not any(self.entries[:: self.cols + 1])

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


# A packed product beats the per-entry dot products once every dimension
# is this large.  Packing the right factor costs about as much as one row
# of dot products per four to eight rows, so one or a few rows stay on dot
# products.  Python 3.11, x86-64, small entries: 14 against 6 us at 2x2x2,
# 88 against 82 us at 8x8x8, 1.7 against 5.4 ms at 40x40x40, and 0.39
# against 0.14 ms for the kernel check's 1x41 by 41x41.
_PACKED_MIN_DIM = 8


def _packed_product(a: IntMatrix, b: IntMatrix) -> tuple[int, ...]:
    """Entries of ``a @ b`` by Kronecker substitution, so the inner loop runs in C.

    Row t of ``b`` becomes one integer with entry j in the w-bit slot j.  Row
    i of the product is then the one integer sum over t of ``a[i][t]`` times
    packed row t.  Every product entry has absolute value at most
    ``k * max|a| * max|b|`` < 2**(w - 1), so with 2**(w - 1) added to every
    slot each slot holds its entry plus that offset, with no carry between
    slots, and reads back exactly from the integer's bytes.
    """
    k, n = a.cols, b.cols
    amax, bmax = max(map(abs, a.entries)), max(map(abs, b.entries))
    if not amax or not bmax:
        return (0,) * (a.rows * n)
    # slot bytes: 8 * width bits exceed the bound's bit length, so the bound is
    # below half; |b| is at most the bound, so each x + half below fits a slot
    width = (k * amax * bmax).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    packed = [
        int.from_bytes(b"".join([(x + half).to_bytes(width, "little") for x in b.row(t)]), "little") - offset
        for t in range(k)
    ]
    size = width * n
    out: list[int] = []
    for i in range(a.rows):
        data = (sum(map(mul, a.row(i), packed)) + offset).to_bytes(size, "little")
        out += [int.from_bytes(data[s : s + width], "little") - half for s in range(0, size, width)]
    return tuple(out)


# ---------------------------------------------------------------------------
# inertia and Smith form containers


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    def __post_init__(self) -> None:
        if min(self.n_plus, self.n_minus, self.n_zero) < 0:
            raise ValueError("inertia counts must be nonnegative")

    @property
    def sigma(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V = D with U, V unimodular and D diagonal, nonnegative, d1 | d2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols)))

    def invariant_factors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries (the torsion-and-one factors of the cokernel)."""
        return tuple(x for x in self.diagonal() if x != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())


# ---------------------------------------------------------------------------
# fraction-free elimination: determinant, inverse, kernel


def _gauss_jordan(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the rows ``m``, in place.

    Bareiss (1968) elimination with the update applied to every non-pivot
    row, above the pivot as well as below, so every division is exact.  At
    the end each pivot row holds ``scale`` in its pivot column and every
    other row holds 0 there: ``m / scale`` is the reduced row echelon form,
    and ``scale`` is the last pivot.  Returns (pivot columns, scale, sign of
    the row permutation).

    The pivot row is 0 left of its pivot column, so a step only multiplies
    the columns left of it by ``p / scale``.  Each step therefore updates
    ``row[col:]`` only, and each column left behind is multiplied once at the
    end by the product of those factors, ``final scale / its scale then``;
    every entry comes out as the full update would leave it.
    """
    pivots: list[int] = []
    scale = sign = 1
    frozen: list[int] = []  # frozen[c]: the scale when the loop moved past column c
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break  # no pivot is left, and the remaining columns are at the final scale
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is not None:
            if sel != r:
                m[r], m[sel] = m[sel], m[r]
                sign = -sign
            tail = m[r][col:]
            p = tail[0]
            for i, row in enumerate(m):
                if i != r:
                    f = row[col]
                    row[col:] = [(x * p - f * y) // scale for x, y in zip(row[col:], tail)]
            pivots.append(col)
            scale = p
        frozen.append(scale)
    for col, then in enumerate(frozen):
        if then != scale:
            for row in m:
                if row[col]:
                    row[col] = row[col] * scale // then
    return pivots, scale, sign


def det_bareiss(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise DimensionError("determinant of non-square matrix")
    pivots, scale, sign = _gauss_jordan(a.to_rows())
    return sign * scale if len(pivots) == a.rows else 0


def _det_and_inverse(a: IntMatrix) -> tuple[int, IntMatrix | None]:
    """Determinant and, when it is +-1, the verified integer inverse, from one elimination on [A | I]."""
    if not a.is_square:
        raise DimensionError("inverse of non-square matrix")
    n = a.rows
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a.to_rows())]
    pivots, scale, sign = _gauss_jordan(m)
    det = sign * scale if pivots == list(range(n)) else 0
    if det not in (1, -1):
        return det, None
    inv = IntMatrix.from_rows([[scale * x for x in row[n:]] for row in m])  # 1 / scale == scale
    if a @ inv != IntMatrix.identity(n):
        raise AlgorithmMismatchError("inverse verification failed")
    return det, inv


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1, by elimination on [A | I]."""
    det, inv = _det_and_inverse(a)
    if inv is None:
        raise NotUnimodularError(f"matrix has determinant {det}")
    return inv


def nullspace_rational(a: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right nullspace over Q, verified by one integer product.

    Each basis vector is normalized so its first nonzero coordinate is 1;
    vectors are ordered by their free column.  Use ``clear_denominators`` for
    the primitive integer form of a vector.
    """
    m = a.to_rows()
    pivots, scale, _ = _gauss_jordan(m)
    basis = []
    for free in (c for c in range(a.cols) if c not in pivots):
        vec = [0] * a.cols
        vec[free] = scale
        for row, pc in zip(m, pivots):
            vec[pc] = -row[free]
        lead = next(x for x in vec if x)
        basis.append(tuple(Fraction(x, lead) for x in vec))
    ints = IntMatrix(len(basis), a.cols, tuple(x for v in basis for x in clear_denominators(v)))
    if ints @ a.transpose() != IntMatrix.zeros(len(basis), a.rows):
        raise AlgorithmMismatchError("kernel verification failed")
    return tuple(basis)


def clear_denominators(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Primitive integer vector proportional to ``vec``, first nonzero entry positive."""
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with transforms: U @ A @ V = D.

    Pivot selection: smallest nonzero absolute value, ties broken by row-major
    position, so output is deterministic for a fixed input.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i: int, j: int, c: int) -> None:  # row_i += c * row_j
        di, dj = d[i], d[j]
        for t in range(n):
            di[t] += c * dj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] += c * uj[t]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_add(i: int, j: int, c: int) -> None:  # col_i += c * col_j
        for r in range(m):
            d[r][i] += c * d[r][j]
        for r in range(n):
            v[r][i] += c * v[r][j]

    def col_swap(i: int, j: int) -> None:
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def pivot_at(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        best = pivot_at(t)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t] != 0:
                        # remainder is smaller than the pivot; promote it
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(n):
                if j != t and d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            break
        # divisibility chain: pivot must divide every remaining entry
        p = d[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            t += 1
        else:
            row_add(t, offender, 1)

    for i in range(min(m, n)):
        if d[i][i] < 0:
            for t2 in range(n):
                d[i][t2] = -d[i][t2]
            for t2 in range(m):
                u[i][t2] = -u[i][t2]

    return SmithForm(u=IntMatrix.from_rows(u) if m else IntMatrix(0, 0, ()),
                     d=IntMatrix.from_rows(d) if m else IntMatrix(0, n, ()),
                     v=IntMatrix.from_rows(v) if n else IntMatrix(n, n, ()))


# ---------------------------------------------------------------------------
# characteristic polynomial and inertia


def charpoly(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(x I - A), highest degree first, computed fraction-free.

    Uses the trace recursion with exact integer division at every step, so
    intermediate values never leave the integers.
    """
    if not a.is_square:
        raise DimensionError("characteristic polynomial of non-square matrix")
    n = a.rows
    coeffs = [1]
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ mk
        tr = am.trace()
        q, rem = divmod(-tr, k)
        if rem:
            raise AlgorithmMismatchError("trace recursion produced a non-integer coefficient")
        coeffs.append(q)
        if k < n:
            mk = am + IntMatrix.identity(n).scale(q)
    return tuple(coeffs)


def _require_symmetric(a: IntMatrix) -> None:
    if not a.is_square:
        raise DimensionError("inertia of non-square matrix")
    if not a.is_symmetric():
        raise SymmetryError("inertia requires a symmetric matrix")


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def inertia_charpoly(a: IntMatrix) -> Inertia:
    """Inertia via sign variations of the exact characteristic polynomial.

    All eigenvalues of a symmetric matrix are real, so the sign-variation
    count is exact for both the positive and the negative spectrum.
    """
    _require_symmetric(a)
    coeffs = list(charpoly(a))
    n_zero = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    deg = len(coeffs) - 1
    n_plus = _sign_changes(coeffs)
    neg = [c if (deg - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    n_minus = _sign_changes(neg)
    if n_plus + n_minus != deg:
        raise AlgorithmMismatchError("sign variation counts do not exhaust the spectrum")
    return Inertia(n_plus, n_minus, n_zero)


def _symmetric_bareiss(a: IntMatrix) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
    """Fraction-free symmetric elimination of ``A`` on the rows of ``[A | I]``.

    Each step pivots on a nonzero live diagonal entry or, when every live
    diagonal entry is zero, on a 2x2 block ``[[0, b], [b, 0]]`` (Bunch and
    Kaufman 1977).  The live block is ``scale`` times the Schur complement,
    so every division is exact as in Bareiss (1968): by ``scale`` after a
    1x1 pivot ``d`` (new scale ``d``) and by ``scale**2`` after a 2x2 pivot
    ``b`` (new scale ``b**2 / scale``).  Returns (pivot order, X, D): row t
    of X is the transform row of ``order[t]``, and ``X A X^T`` should equal
    the block diagonal matrix with the blocks D.

    Only live entries are stored.  A live row is 0 in every eliminated
    column, and its transform row is 0 on every unprocessed row but its own,
    where it is ``scale``; so a live row keeps its entries in the live
    columns and its transform coefficients on the processed pivots, in pivot
    order.  A 1x1 pivot ``p`` appends ``-f`` to a row with ``f`` in column p;
    a 2x2 pivot ``(p, q)`` appends ``-b f_q / scale`` and ``-b f_p / scale``.
    """
    live = list(range(a.rows))
    rows = a.to_rows()  # rows[t]: row live[t] over the live columns
    coefs: list[list[int]] = [[] for _ in live]  # coefs[t]: over the processed pivots
    order: list[int] = []
    blocks: list[list[list[int]]] = []
    done: list[list[int]] = []  # the transform row of order[t], over order[: len(row)]
    scale = 1
    while live:
        k = next((t for t, row in enumerate(rows) if row[t]), None)
        if k is not None:
            pivot_row, pivot_coefs = rows.pop(k), coefs.pop(k)
            d = pivot_row.pop(k)
            for row, coef in zip(rows, coefs):
                f = row.pop(k)
                row[:] = [(x * d - f * y) // scale for x, y in zip(row, pivot_row)]
                coef[:] = [(x * d - f * y) // scale for x, y in zip(coef, pivot_coefs)]
                coef.append(-f)
            order.append(live.pop(k))
            done.append(pivot_coefs + [scale])
            blocks.append([[scale * d]])  # the transform row of p has scale at p
            scale = d
            continue
        pair = next(((t, u) for t, row in enumerate(rows) for u in range(t + 1, len(row)) if row[u]), None)
        if pair is None:
            break
        k, l = pair
        row_q, coef_q = rows.pop(l), coefs.pop(l)
        row_p, coef_p = rows.pop(k), coefs.pop(k)
        b = row_p[l]
        for row in (row_p, row_q):
            del row[l], row[k]
        b2, s2 = b * b, scale * scale
        for row, coef in zip(rows, coefs):
            fq, fp = row.pop(l), row.pop(k)
            row[:] = [(b2 * x - b * (fq * y + fp * z)) // s2 for x, y, z in zip(row, row_p, row_q)]
            coef[:] = [(b2 * x - b * (fq * y + fp * z)) // s2 for x, y, z in zip(coef, coef_p, coef_q)]
            coef += [-b * fq // scale, -b * fp // scale]
        order += [live.pop(k), live.pop(l - 1)]
        done += [coef_p + [scale], coef_q + [0, scale]]
        blocks.append([[0, scale * b], [scale * b, 0]])
        scale = b2 // scale
    order += live
    done += [coef + [0] * t + [scale] for t, coef in enumerate(coefs)]
    blocks += [[[0]] for _ in live]
    x = []
    for row in done:
        out = [0] * a.rows
        for i, c in zip(order, row):
            out[i] = c
        x.append(out)
    return order, x, blocks


def inertia_ldlt(a: IntMatrix) -> Inertia:
    """Inertia by fraction-free symmetric elimination, certified by congruence.

    ``_symmetric_bareiss`` gives an integer X and a block diagonal D of 1x1
    and 2x2 blocks.  The inertia is read from D only after two exact checks:
    ``X A X^T == D``, and X is triangular in pivot order with a nonzero
    diagonal, so X is invertible over Q.  By Sylvester's law of inertia A and
    D then have the same inertia.
    """
    _require_symmetric(a)
    n = a.rows
    order, x, blocks = _symmetric_bareiss(a)
    xm = IntMatrix.from_rows(x)
    d = IntMatrix.block_diagonal(IntMatrix(len(block), len(block), tuple(chain(*block))) for block in blocks)
    if (xm.rows, xm.cols) != (n, n) or congruence_apply(xm, a) != d:
        raise AlgorithmMismatchError("inertia certificate failed: X A X^T != D")
    if sorted(order) != list(range(n)) or not all(
        x[t][order[t]] and not any(x[t][j] for j in order[t + 1 :]) for t in range(n)
    ):
        raise AlgorithmMismatchError("inertia certificate failed: X is not triangular with nonzero diagonal")
    signs: list[int] = []
    for block in blocks:
        if len(block) == 1:
            signs.append(block[0][0])
        elif len(block) == 2 and block[0][0] * block[1][1] < block[0][1] * block[1][0]:
            signs += [1, -1]  # a 2x2 block of negative determinant has inertia (1, 1, 0)
        else:
            raise AlgorithmMismatchError("inertia certificate failed: D has a block that is not 1x1 or indefinite 2x2")
    return Inertia(sum(s > 0 for s in signs), sum(s < 0 for s in signs), sum(s == 0 for s in signs))


def inertia(a: IntMatrix) -> Inertia:
    """Exact inertia from the certified elimination ``inertia_ldlt``.

    ``inertia_charpoly`` is the independent check, run by ``selftest`` and
    the tests.
    """
    return inertia_ldlt(a)


# ---------------------------------------------------------------------------
# congruence


def congruence_apply(m: IntMatrix, a: IntMatrix) -> IntMatrix:
    """M @ A @ M^T for square M and A of equal size."""
    if not m.is_square or not a.is_square or m.rows != a.rows:
        raise DimensionError(
            f"congruence needs square matrices of equal size, got {m.rows}x{m.cols} and {a.rows}x{a.cols}"
        )
    return m @ a @ m.transpose()
