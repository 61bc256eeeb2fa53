"""Exact dense linear algebra over the integers and rationals.

Every computation in this package is exact: entries are Python ints
(arbitrary precision) or ``fractions.Fraction``.  No floating point enters
anywhere.  Each epsilon-symmetric form is eliminated once: a fraction-free
symmetric elimination with 1x1 and 2x2 pivots gives a congruence
X A X^T = D (``Congruence``), and the determinant, the integer inverse, the
inertia and the rational kernel are all read from it, each behind an exact
check: A A^-1 = I for the inverse, X A X^T = D with X invertible before the
inertia or the kernel, and A v = 0 for every kernel vector.  The
references are kept for the selftest, the tests and ``perfbench/tracer.py``:
fraction-free Gauss-Jordan elimination behind ``det_bareiss``,
``inverse_unimodular`` and ``nullspace_rational``, Smith normal form with
transforms for the oracle's presentations, and the inertia from the
characteristic polynomial.

The kernels stay exact and spend their Python bytecode on live entries
only.  A product with every dimension large enough packs each row of the
right factor into one integer (Kronecker substitution), so the inner loop
runs in CPython's big-integer code.  The eliminations update only the
entries that can still change: Gauss-Jordan skips the columns left of the
pivot and scales them once at the end, and the symmetric elimination keeps
each live row's live columns and its transform on the processed pivots.
From ``_PACKED_MIN_DIM`` rows on the symmetric elimination packs too: each
working row is one integer of signed digits in byte-aligned slots
(``_Slots``), and a step updates a row with a few big-integer operations.
The slots leave no room for a carry: with every digit below 2**e in
absolute value, a 1x1 pivot's update needs 2e + 3 bits of slot and a 2x2
pivot's 3e + 3.  After each step one add, one AND and one sign test check
every new digit against 2**e; when one is outside, that step's unchanged
input rows are repacked at twice the slot width and the step alone is
redone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import mul, or_
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
            rows, cols = map(self.row, range(self.rows)), [other.entries[j :: other.cols] for j in range(other.cols)]
            entries = tuple(sum(map(mul, row, col)) for row in rows for col in cols)
        else:
            entries = _packed_product(self, other)
        return IntMatrix(self.rows, other.cols, entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries)))

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
# products.  Python 3.11, x86-64, small entries: 10 against 4 us at 2x2x2,
# 41 against 48 us at 8x8x8, 0.8 against 5.1 ms at 40x40x40, and 0.32
# against 0.10 ms for the kernel check's 1x41 by 41x41.
_PACKED_MIN_DIM = 8


def _packed_product(a: IntMatrix, b: IntMatrix) -> tuple[int, ...]:
    """Entries of ``a @ b`` by Kronecker substitution, so the inner loop runs in C.

    Row t of ``b`` becomes one integer with entry j in slot j (``_Slots``).
    Row i of the product is then the one integer sum over t of ``a[i][t]``
    times packed row t.  Every entry of ``b`` and of the product has absolute
    value at most ``k * max|a| * max|b|`` < 2**e, so with 2**e added to every
    slot of e + 1 bits or more each slot holds its entry plus that bias, with
    no carry between slots, and reads back exactly.
    """
    k, n = a.cols, b.cols
    amax, bmax = max(map(abs, a.entries)), max(map(abs, b.entries))
    if not amax or not bmax:
        return (0,) * (a.rows * n)
    e = (k * amax * bmax).bit_length()
    width = (e + 8) // 8
    slots = _Slots(next((w for w in _STRUCT_CODES if w >= width), width), n, e)  # struct reads the narrow slots
    _, packed = slots.pack_rows(b.row(t) for t in range(k))
    return tuple(chain.from_iterable(slots.unpack(sum(map(mul, a.row(i), packed)) + slots.biases) for i in range(a.rows)))


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Slots:
    """Layout of a packed elimination row: ``n`` signed digits in ``width``-byte slots of one integer.

    A row x_0 .. x_{n-1} is the integer P = sum x_j 2**(w j), with w = 8 *
    width bits per slot and width a power of two.  Between steps every digit
    lies in the guard interval [-2**e, 2**e), e = (w - 3) // 2.  A 1x1-pivot
    update ``x p - f y`` of such digits is then at most 2**(2e + 1) < 2**(w - 1)
    in absolute value in every slot, unreduced, and so is its exact quotient.
    An integer has one set of digits of that size, so the packed quotient
    holds each entry in its own slot, with no carry between slots.  The
    biased form P + ``biases`` holds x_j + 2**e in slot j: ``digits`` reads a
    slot with one shift and one mask, and ``biased`` tests every digit of a
    step's quotients against the guard interval with one add, one AND against
    ``high`` (the bits above e of every slot) and one sign test.
    """

    def __init__(self, width: int, n: int, e: int | None = None) -> None:
        """``e`` narrows the guard interval below the default, as a 2x2 step's check does."""
        self.width, self.n, self.bits = width, n, 8 * width
        self.e = (self.bits - 3) // 2 if e is None else e
        self.bias = 1 << self.e
        self.mask = (1 << self.bits) - 1
        self.biases = int.from_bytes(self.bias.to_bytes(width, "little") * n, "little")
        self.high = int.from_bytes((self.mask + 1 - 2 * self.bias).to_bytes(width, "little") * n, "little")

    @classmethod
    def for_entries(cls, entries: Iterable[int], n: int) -> "_Slots":
        """The narrowest layout whose guard interval holds ``x p - f y`` for any four of ``entries``."""
        e = 2 * max(map(abs, entries)).bit_length() + 1  # |x p - f y| <= 2 max|x|**2
        width = 1
        while (8 * width - 3) // 2 < e:
            width *= 2
        return cls(width, n)

    def widened(self, packed: list[int]) -> tuple["_Slots", list[int], list[int]]:
        """Twice the slot width, and the biased rows ``packed`` repacked in it, biased and not."""
        wide = _Slots(2 * self.width, self.n)
        return (wide, *wide.pack_rows([self.unpack(g) for g in packed]))

    def pack_rows(self, rows: Iterable[Sequence[int]]) -> tuple[list[int], list[int]]:
        """The rows packed, biased and not."""
        biased = [self.pack(row) for row in rows]
        return biased, [g - self.biases for g in biased]

    def pack(self, row: Sequence[int]) -> int:
        """The biased packed form of ``row``, whose digits must lie in the guard interval."""
        code = _STRUCT_CODES.get(self.width)
        if code:
            data = struct.pack(f"<{len(row)}{code}", *[x + self.bias for x in row])
        else:
            data = b"".join([(x + self.bias).to_bytes(self.width, "little") for x in row])
        return int.from_bytes(data, "little")

    def unpack(self, g: int) -> list[int]:
        """The digits of the biased packed row ``g``."""
        data = g.to_bytes(self.width * self.n, "little")
        code = _STRUCT_CODES.get(self.width)
        if code:
            return [x - self.bias for x in struct.unpack(f"<{self.n}{code}", data)]
        step = self.width
        return [int.from_bytes(data[s : s + step], "little") - self.bias for s in range(0, len(data), step)]

    def biased(self, rows: list[int]) -> list[int] | None:
        """The biased forms of ``rows``, or None when a digit leaves the guard interval."""
        out = [x + self.biases for x in rows]
        acc = reduce(or_, out, 0)  # negative if any row is, and with a high bit wherever any row has one
        return None if acc < 0 or acc & self.high else out

    def digits(self, packed: list[int], j: int) -> list[int]:
        """Digit j of each biased packed row."""
        shift, mask, bias = self.bits * j, self.mask, self.bias
        return [((g >> shift) & mask) - bias for g in packed]


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
# fraction-free Gauss-Jordan elimination: the reference determinant, inverse and kernel


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


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1, by elimination on [A | I]."""
    if not a.is_square:
        raise DimensionError("inverse of non-square matrix")
    n = a.rows
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a.to_rows())]
    pivots, scale, sign = _gauss_jordan(m)
    det = sign * scale if pivots == list(range(n)) else 0
    if det not in (1, -1):
        raise NotUnimodularError(f"matrix has determinant {det}")
    return _checked_inverse(a, IntMatrix(n, n, tuple(scale * x for row in m for x in row[n:])))  # 1 / scale == scale


def _checked_inverse(a: IntMatrix, inv: IntMatrix) -> IntMatrix:
    if a @ inv != IntMatrix.identity(a.rows):
        raise AlgorithmMismatchError("inverse verification failed")
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
        basis.append(vec)
    return _checked_kernel(a, basis)


def _checked_kernel(a: IntMatrix, vecs: list[list[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """``vecs`` each divided by its first nonzero entry, once ``A v = 0`` is verified for every one."""
    basis = [tuple(Fraction(x, next(y for y in vec if y)) for x in vec) for vec in vecs]
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


def _symmetric_bareiss(a: IntMatrix, epsilon: int) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
    """Fraction-free elimination of the epsilon-symmetric ``A`` on the rows of ``[A | I]``.

    Each step pivots on a nonzero live diagonal entry or, when every live
    diagonal entry is zero (always, for a skew A), on a 2x2 block
    ``[[0, b], [epsilon b, 0]]`` (Bunch and Kaufman 1977; Bunch 1982 for the
    skew blocks).  The live block is ``scale`` times the Schur complement,
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
    a 2x2 pivot ``(p, q)`` updates ``b**2 x - b (f_q y + epsilon f_p z)``
    over ``scale**2`` and appends ``-b f_q / scale`` and
    ``-epsilon b f_p / scale``.  From ``_PACKED_MIN_DIM`` rows on the steps
    run on packed rows (``_packed_symmetric_bareiss``).
    """
    if a.rows >= _PACKED_MIN_DIM:
        return _packed_symmetric_bareiss(a, epsilon)
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
            fq, fp = row.pop(l), epsilon * row.pop(k)
            row[:] = [(b2 * x - b * (fq * y + fp * z)) // s2 for x, y, z in zip(row, row_p, row_q)]
            coef[:] = [(b2 * x - b * (fq * y + fp * z)) // s2 for x, y, z in zip(coef, coef_p, coef_q)]
            coef += [-b * fq // scale, -b * fp // scale]
        order += [live.pop(k), live.pop(l - 1)]
        done += [coef_p + [scale], coef_q + [0, scale]]
        blocks.append([[0, scale * b], [epsilon * scale * b, 0]])
        scale = b2 // scale
    order += live
    done += [coef + [0] * t + [scale] for t, coef in enumerate(coefs)]
    blocks += [[[0]] for _ in live]
    x = [[0] * a.rows for _ in done]
    for out, row in zip(x, done):
        for i, c in zip(order, row):
            out[i] = c
    return order, x, blocks


def _packed_symmetric_bareiss(a: IntMatrix, epsilon: int) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
    """``_symmetric_bareiss`` with each live row one integer (``_Slots``), so a row update runs in C.

    A live row keeps its entry in column c while c is live and its transform
    coefficient on c once c is a pivot, so it fills n slots.  A step adds
    ``scale`` to the pivot rows' own slots, so the packed update leaves ``-f``
    (1x1) or ``-b f_q / scale`` and ``-epsilon b f_p / scale`` (2x2) in the
    pivot slots of every other row.  With the digits and ``scale`` at most
    2**e in absolute value, a 1x1 update ``x d - f y`` is at most 2**(2e + 1)
    in every slot, as in ``_Slots``, and a 2x2 update
    ``b**2 x - b (f_q y + epsilon f_p z)`` below 3 * 2**(3e), which needs
    3e + 3 bits of slot.  So a step first widens when ``scale`` is outside
    the guard interval, and a 2x2 step when a digit or ``scale`` is outside
    the narrower interval 3e + 3 bits allow.  A step whose quotient leaves
    the guard interval is redone on its unchanged input rows at twice the
    slot width.
    """
    n = a.rows
    slots = _Slots.for_entries(a.entries, n)
    biased, rows = slots.pack_rows(a.row(i) for i in range(n))
    live = list(range(n))
    order: list[int] = []
    x: list[list[int]] = []
    blocks: list[list[list[int]]] = []
    scale = 1

    def transform(g: int, own: list[tuple[int, int]]) -> list[int]:
        """Row of X from a packed row: its coefficients on the pivots so far, then ``own``."""
        digits = slots.unpack(g)
        out = [0] * n
        for c in order:
            out[c] = digits[c]
        for c, v in own:
            out[c] = v
        return out

    while live:
        while abs(scale) > slots.bias:
            slots, biased, rows = slots.widened(biased)
        k = next((t for t, i in enumerate(live) if slots.digits([biased[t]], i)[0]), None)
        if k is not None:
            p = live[k]
            (d,) = slots.digits([biased[k]], p)
            while True:
                others, fs = rows[:k] + rows[k + 1 :], slots.digits(biased[:k] + biased[k + 1 :], p)
                t = rows[k] + (scale << slots.bits * p)
                new = [(y * d - f * t) // scale for y, f in zip(others, fs)]
                new_biased = slots.biased(new)
                if new_biased is not None:
                    break
                slots, biased, rows = slots.widened(biased)
            x.append(transform(biased[k], [(p, scale)]))
            blocks.append([[scale * d]])  # the transform row of p has scale at p
            order.append(live.pop(k))
            rows, biased, scale = new, new_biased, d
            continue
        pair = None
        for k, g in enumerate(biased):
            row = slots.unpack(g)
            l = next((l for l in range(k + 1, len(live)) if row[live[l]]), None)
            if l is not None:
                pair = k, l
                break
        if pair is None:
            break
        k, l = pair
        p, q = live[k], live[l]
        narrow = _Slots(slots.width, n, (slots.bits - 3) // 3)
        if abs(scale) > narrow.bias or narrow.biased(rows) is None:
            slots, biased, rows = slots.widened(biased)
        (b,) = slots.digits([biased[k]], q)
        b2, s2 = b * b, scale * scale
        while True:
            kept = [t for t in range(len(live)) if t not in pair]
            others, kept_biased = [rows[t] for t in kept], [biased[t] for t in kept]
            fps, fqs = slots.digits(kept_biased, p), slots.digits(kept_biased, q)
            y, z = rows[k] + (scale << slots.bits * p), rows[l] + (scale << slots.bits * q)
            new = [(b2 * w - b * (fq * y + epsilon * fp * z)) // s2 for w, fp, fq in zip(others, fps, fqs)]
            new_biased = slots.biased(new)
            if new_biased is not None:
                break
            slots, biased, rows = slots.widened(biased)
        x += [transform(biased[k], [(p, scale), (q, 0)]), transform(biased[l], [(p, 0), (q, scale)])]
        blocks.append([[0, scale * b], [epsilon * scale * b, 0]])
        order += [live.pop(k), live.pop(l - 1)]
        rows, biased, scale = new, new_biased, b2 // scale
    x += [transform(g, [(i, scale)]) for g, i in zip(biased, live)]
    order += live
    blocks += [[[0]] for _ in live]
    return order, x, blocks


class Congruence:
    """``X A X^T = D`` for an epsilon-symmetric A from one ``_symmetric_bareiss``, and four facts read from it.

    X is triangular in pivot order with a nonzero diagonal, and D is block
    diagonal, of 1x1 blocks and 2x2 blocks ``[[0, c], [epsilon c, 0]]``.  The
    determinant is det D / det(X)**2 and the inverse ``X^T D^-1 X``, verified
    by ``A A^-1 = I``.  The inertia (Sylvester's law) and the kernel are read
    only once ``X A X^T = D`` and those shapes are verified.  X is then
    invertible, so rank A = rank D and the rows t of X at D's zero blocks are
    independent and as many as the nullity; ``X_t A X^T = 0`` gives
    ``X_t A = 0``, and ``A = epsilon A^T`` gives ``A X_t^T = 0``.
    """

    def __init__(self, a: IntMatrix, epsilon: int) -> None:
        self.a, self.epsilon = a, epsilon
        self.order, self.x, self.blocks = _symmetric_bareiss(a, epsilon)

    @cached_property
    def det(self) -> int:
        det_d = math.prod(b[0][0] if len(b) == 1 else b[0][0] * b[1][1] - b[0][1] * b[1][0] for b in self.blocks)
        # det X is the product of its diagonal, up to the sign of the pivot order
        return det_d // math.prod(row[i] for row, i in zip(self.x, self.order)) ** 2 if det_d else 0

    @cached_property
    def inverse(self) -> IntMatrix:
        """``X^T D^-1 X`` as one integer product over the lcm of D's entries; raises NotUnimodularError unless det = +-1."""
        if self.det not in (1, -1):
            raise NotUnimodularError(f"matrix has determinant {self.det}")
        n, x = self.a.rows, self.x
        lcm = math.lcm(*(v for b in self.blocks for row in b for v in row if v))
        scaled: list[list[int]] = []  # the rows of lcm D^-1 X
        for b in self.blocks:
            t = len(scaled)
            if len(b) == 1:
                scaled.append([lcm // b[0][0] * v for v in x[t]])
            else:  # [[0, c], [c', 0]]^-1 = [[0, 1 / c'], [1 / c, 0]]
                scaled += [[lcm // b[1][0] * v for v in x[t + 1]], [lcm // b[0][1] * v for v in x[t]]]
        product = IntMatrix(n, n, tuple(chain.from_iterable(zip(*x)))) @ IntMatrix(n, n, tuple(chain(*scaled)))
        return _checked_inverse(self.a, IntMatrix(n, n, tuple(v // lcm for v in product.entries)))

    @cached_property
    def _certified_blocks(self) -> list[list[list[int]]]:
        """D's blocks, once ``X A X^T = D`` holds exactly and X and D have the shapes the reading needs."""
        n, order, x, blocks = self.a.rows, self.order, self.x, self.blocks
        xm = IntMatrix(len(x), n, tuple(chain.from_iterable(x)))
        d = IntMatrix.block_diagonal(IntMatrix(len(b), len(b), tuple(chain(*b))) for b in blocks)
        if (xm.rows, xm.cols) != (n, n) or congruence_apply(xm, self.a) != d:
            raise AlgorithmMismatchError("congruence certificate failed: X A X^T != D")
        if sorted(order) != list(range(n)) or not all(
            x[t][order[t]] and not any(x[t][j] for j in order[t + 1 :]) for t in range(n)
        ):
            raise AlgorithmMismatchError("congruence certificate failed: X is not triangular with nonzero diagonal")
        if not all(len(b) == 1 or len(b) == 2 and b[0][0] == b[1][1] == 0 != b[0][1] for b in blocks):
            raise AlgorithmMismatchError("congruence certificate failed: D has a block not 1x1 or [[0, c], [epsilon c, 0]]")
        return blocks

    @cached_property
    def inertia(self) -> Inertia:
        if self.epsilon != 1:
            raise SymmetryError("inertia requires a symmetric matrix")
        # a 1x1 block has its own sign; [[0, c], [c, 0]] has inertia (1, 1, 0)
        signs = [s for b in self._certified_blocks for s in ([b[0][0]] if len(b) == 1 else [1, -1])]
        return Inertia(sum(s > 0 for s in signs), sum(s < 0 for s in signs), sum(s == 0 for s in signs))

    @cached_property
    def kernel(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis ``nullspace_rational`` returns, from the rows of X at D's zero blocks, verified by ``A v = 0``.

        Brought to reduced echelon form with its columns reversed, the basis
        is the identity on the free columns of A, ordered by free column.
        """
        rows = [row for row, b in zip(self.x, (b for b in self._certified_blocks for _ in b)) if b == [[0]]]
        if len(rows) > 1:
            m = [row[::-1] for row in rows]
            _gauss_jordan(m)
            rows = [row[::-1] for row in reversed(m)]
        return _checked_kernel(self.a, rows)


def inertia_ldlt(a: IntMatrix) -> Inertia:
    """Inertia by fraction-free symmetric elimination, certified by congruence (``Congruence.inertia``)."""
    _require_symmetric(a)
    return Congruence(a, 1).inertia


def inertia(a: IntMatrix) -> Inertia:
    """Exact inertia, ``inertia_ldlt``; ``inertia_charpoly`` is the independent check the selftest and tests run."""
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
