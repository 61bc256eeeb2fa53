"""Exact dense linear algebra over the integers and rationals.

Every computation here is exact: entries are Python ints or
``fractions.Fraction``, and no floating point enters.  Each
epsilon-symmetric form is eliminated once: a fraction-free symmetric
elimination with 1x1 and 2x2 pivots, each the least one available, gives a
congruence X A X^T = D (``Congruence``), and the determinant, the integer
inverse, the inertia and the rational kernel are all read from it behind
one exact certificate: a unimodular form is proved by its exactly divided
inverse, checked by A A^-1 = I, and any other form by X A X^T = D with X
invertible; every kernel vector is checked nonzero and by A v = 0.  The
references are kept for the selftest, the tests and ``perfbench/tracer.py``:
fraction-free Gauss-Jordan elimination behind ``det_bareiss``,
``inverse_unimodular`` and ``nullspace_rational``, Smith normal form with
transforms, and the inertia from the characteristic polynomial.

The kernels stay exact and spend their Python bytecode on live entries
only: a row is packed into one integer of byte-aligned slots (``_Slots``,
Kronecker substitution), so products, the inverse, the check A A^-1 = I and
the elimination steps run in CPython's big-integer code.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import attrgetter, mul, or_


class DimensionError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class SymmetryError(ValueError):
    """A symmetric (or declared-epsilon-symmetric) matrix was required."""


class NotUnimodularError(ValueError):
    """An operation required determinant +-1."""


class AlgorithmMismatchError(RuntimeError):
    """Two independent algorithms disagreed.  Always a bug; never swallowed."""


class Frozen:
    """Base of the immutable value classes: equal by class and ``_fields``, hashed by them, never assigned to.

    Each subclass checks its input in its own ``__init__`` and sets each field
    by ``object.__setattr__``.  ``cached_property`` writes the ``__dict__`` of
    a subclass without ``__slots__`` directly, so it still works.  The fields
    are set one by one, not by one shared ``__init__`` looping over
    ``_fields``: through ``super().__init__`` that costs 1.3 to 1.8 times as
    much per object, and every matrix, edge and vertex is one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Frozen):
    """Immutable dense integer matrix, entries row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionError("negative dimensions")
        if len(entries) != rows * cols:
            raise DimensionError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
        if not {int}.issuperset(map(type, flat)):  # one C-level pass; the loop words the error
            for x in flat:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"integer entry required, got {x!r}")
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, ((1,) + (0,) * n) * (n - 1) + (1,) if n else ())

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
        large = min(self.rows, self.cols, other.cols) >= _PACKED_MIN_DIM
        if large and (slots := _product_slots(self, other)).width <= _PACKED_ROWS_MAX_WIDTH:
            entries = _packed_product(self, other, slots)
        else:
            rows, cols = map(self.row, range(self.rows)), [other.entries[j :: other.cols] for j in range(other.cols)]
            entries = tuple(sum(map(mul, row, col)) for row in rows for col in cols)
        return IntMatrix(self.rows, other.cols, entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def is_symmetric(self) -> bool:
        n = self.cols
        return self.is_square and all(self.entries[i * n : i * n + n] == self.entries[i::n] for i in range(n))

    def is_skew_symmetric(self) -> bool:
        # x == -x only for x == 0, so this also asks for a zero diagonal
        return self.is_square and self.transpose().entries == tuple(-x for x in self.entries)

    def has_zero_diagonal(self) -> bool:
        return self.is_square and not any(self.entries[:: self.cols + 1])


# A packed product beats the per-entry dot products once every dimension
# is this large, while a slot is at most ``_PACKED_ROWS_MAX_WIDTH`` bytes.
# Packing the right factor costs about as much as one row of dot products
# per four to eight rows, so one or a few rows stay on dot products.
# Python 3.11, x86-64, small entries: 10 against 4 us at 2x2x2, 41 against
# 48 us at 8x8x8, 0.8 against 5.1 ms at 40x40x40, and 0.32 against 0.10 ms
# for the kernel check's 1x41 by 41x41; X A of ``classify``'s certificate
# on a 24x24 matrix of 100-digit entries, 0.131 against 0.014 s.
_PACKED_MIN_DIM = 8


def _packed_product(a: IntMatrix, b: IntMatrix, slots: "_Slots | None" = None) -> tuple[int, ...]:
    """Entries of ``a @ b`` by Kronecker substitution, so the inner loop runs in C (``_packed_product_rows``)."""
    slots, rows = _packed_product_rows(a, b, slots)
    return tuple(chain.from_iterable(slots.unpack(g + slots.biases) for g in rows))


def _product_slots(a: IntMatrix, b: IntMatrix) -> "_Slots":
    """The layout of the rows of ``a @ b`` in ``_packed_product_rows``, whose bound sizes it."""
    e = (a.cols * (max(map(abs, a.entries)) or 1) * max(map(abs, b.entries))).bit_length()
    width = (e + 8) // 8
    return _Slots(next((w for w in _STRUCT_CODES if w >= width), width), b.cols, e)  # struct reads the narrow slots


def _packed_product_rows(a: IntMatrix, b: IntMatrix, slots: "_Slots | None" = None) -> tuple["_Slots", list[int]]:
    """The rows of ``a @ b``, each one integer of signed digits, and their slot layout.

    Row i is the sum over t of ``a[i][t]`` times row t of ``b`` packed
    (``_Slots``).  Its entries are at most ``k * max(max|a|, 1) * max|b|`` <
    2**e in absolute value (k = ``a.cols``), and a slot (``_product_slots``)
    has e + 1 bits or more, so they are its digits, with no carry between slots.
    """
    slots = slots or _product_slots(a, b)
    _, packed = slots.pack_rows(b.row(t) for t in range(a.cols))
    return slots, [sum(map(mul, a.row(i), packed)) for i in range(a.rows)]


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # signed: two's complement slots


class _Slots:
    """Layout of a packed row: ``n`` signed digits in ``width``-byte slots of one integer.

    A row x_0 .. x_{n-1} is the integer P = sum x_j 2**(w j), with w = 8 *
    width bits per slot.  An integer has one set of
    digits below 2**(w - 1) in absolute value, so a packed result reads back
    exactly when every digit of it is that small; carries before that point
    do not matter.  An elimination step computes U = sum u_j 2**(w j) by
    integer-linear operations on packed rows, with every u_j divisible by the
    step's divisor s (Bareiss), so U // s is exactly sum (u_j / s) 2**(w j):
    it reads back exactly when every u_j / s is below 2**(w - 1), however far
    u_j itself overflows.  Between steps every digit lies in the guard
    interval [-2**e, 2**e), e = (w - 3) // 2.  The biased form P + ``biases``
    holds x_j + 2**e in slot j: ``digits`` reads a slot with one shift and one
    mask, and ``biased`` tests every digit of a step's quotients against the
    guard interval with one add, one AND against ``high`` (the bits above e of
    every slot) and one sign test.  Slots are packed and read in two's
    complement, by one precompiled ``struct`` of at most eight-byte slots or
    per slot: with every slot's top bit flipped (``top``) a slot holds x_j +
    2**(w - 1), one subtraction away from the biased form.
    """

    def __init__(self, width: int, n: int, e: int | None = None) -> None:
        """``e`` replaces the guard exponent: a product's entry bound (``_product_slots``) or a quotient's guard."""
        self.width, self.n, self.bits = width, n, 8 * width
        self.e = (self.bits - 3) // 2 if e is None else e
        self.bias = 1 << self.e
        self.mask = (1 << self.bits) - 1
        self.biases = int.from_bytes(self.bias.to_bytes(width, "little") * n, "little")
        self.high = int.from_bytes((self.mask + 1 - 2 * self.bias).to_bytes(width, "little") * n, "little")
        self.top = int.from_bytes((1 << self.bits - 1).to_bytes(width, "little") * n, "little")
        self.struct = width in _STRUCT_CODES and struct.Struct(f"<{n}{_STRUCT_CODES[width]}")

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
        """The biased packed form of ``row``, whose digits must be below 2**(w - 1) in absolute value."""
        if self.struct:
            data = self.struct.pack(*row)
        else:
            data = b"".join([x.to_bytes(self.width, "little", signed=True) for x in row])
        return (int.from_bytes(data, "little") ^ self.top) - self.top + self.biases  # flipped: x_j + 2**(w - 1)

    def unpack(self, g: int) -> list[int]:
        """The digits of the biased packed row ``g``."""
        data = ((g - self.biases + self.top) ^ self.top).to_bytes(self.width * self.n, "little")  # two's complement
        if self.struct:
            return list(self.struct.unpack(data))
        w = self.width
        return [int.from_bytes(data[s : s + w], "little", signed=True) for s in range(0, len(data), w)]

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


class Inertia(Frozen):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    __slots__ = _fields = ("n_plus", "n_minus", "n_zero")

    def __init__(self, n_plus: int, n_minus: int, n_zero: int) -> None:
        if min(n_plus, n_minus, n_zero) < 0:
            raise ValueError("inertia counts must be nonnegative")
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_minus", n_minus)
        object.__setattr__(self, "n_zero", n_zero)

    @property
    def sigma(self) -> int:
        return self.n_plus - self.n_minus


class SmithForm(Frozen):
    """U @ A @ V = D with U, V unimodular and D diagonal, nonnegative, d1 | d2 | ..."""

    __slots__ = _fields = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)

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
    """
    pivots: list[int] = []
    scale = sign = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            sign = -sign
        pivot_row = m[r]
        p = pivot_row[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(x * p - f * y) // scale for x, y in zip(row, pivot_row)]
        pivots.append(col)
        scale = p
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


def _checked_inverse(a: IntMatrix, inv: IntMatrix, packed: tuple[_Slots, Sequence[int]] | None = None) -> IntMatrix:
    """``inv`` once ``A inv = I`` is verified.

    From ``_PACKED_MIN_DIM`` rows on, row i of the product is one packed
    integer: the sum of a_it times row t of ``inv``, packed in ``packed``'s
    slots, which hold every entry of ``A inv``, or by ``_packed_product_rows``.
    Its digits are unique, so it is the row e_i exactly when it equals ``1 <<
    bits * i``.  No row is unpacked and no identity matrix is built.
    """
    n = a.rows
    if n < _PACKED_MIN_DIM:
        verified = a @ inv == IntMatrix.identity(n)
    else:
        if packed:
            slots, rows = packed[0], [sum(map(mul, a.row(i), packed[1])) for i in range(n)]
        else:
            slots, rows = _packed_product_rows(a, inv)
        verified = rows == [1 << slots.bits * i for i in range(n)]
    if not verified:
        raise AlgorithmMismatchError("inverse verification failed")
    return inv


def nullspace_rational(a: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right nullspace over Q, verified by one integer product.

    Each basis vector is normalized so its first nonzero coordinate is 1;
    vectors are ordered by their free column.
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
    """``vecs`` each divided by its first nonzero entry, once each is verified nonzero and A V = 0, V their columns."""
    if not all(map(any, vecs)):
        raise AlgorithmMismatchError("kernel verification failed: a zero vector")
    if any((a @ IntMatrix(a.cols, len(vecs), tuple(chain.from_iterable(zip(*vecs))))).entries):
        raise AlgorithmMismatchError("kernel verification failed")
    firsts = [next(filter(None, vec)) for vec in vecs]
    return tuple(tuple(Fraction(x, first) for x in vec) for vec, first in zip(vecs, firsts))


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

    t = 0
    while t < min(m, n):
        # (|x|, i, j) of the least nonzero entry x of the live block, the first in row-major order on a tie
        best = min(((abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), default=None)
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
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
        offender = next((i for i in range(t + 1, m) if any(d[i][j] % p for j in range(t + 1, n))), None)
        if offender is None:
            t += 1
        else:
            row_add(t, offender, 1)

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i], u[i] = [-x for x in d[i]], [-x for x in u[i]]

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
        q, rem = divmod(-sum(am.entries[:: n + 1]), k)
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


# Packed rows beat lists from about this many rows on, while the first slot
# is at most eight bytes.  Python 3.11, x86-64, list against packed: 101
# against 158 us at 8 rows and 695 against 555 at 18 on unimodular forms, 4.6
# against 13.6 s at 40 rows with 100-digit entries.
_PACKED_ROWS_MIN_DIM = 18
_PACKED_ROWS_MAX_WIDTH = 8


def _symmetric_bareiss(a: IntMatrix, epsilon: int) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
    """Fraction-free elimination of the epsilon-symmetric ``A`` on the rows of ``[A | I]``.

    Each step pivots on the live diagonal entry of least absolute value, the
    first live row's on a tie, or, when every live diagonal entry is zero
    (always, for a skew A), on a 2x2 block ``[[0, b], [epsilon b, 0]]``
    whose b is the entry of least absolute value in the first live row with
    a nonzero live entry (Bunch and Kaufman 1977; Bunch 1982 for the skew
    blocks).  The live block is ``scale`` times the Schur complement, so any
    pivot order keeps every division exact as in Bareiss (1968): by
    ``scale`` after a 1x1 pivot ``d`` (new scale ``d``) and by ``scale**2``
    after a 2x2 pivot ``b`` (new scale ``b**2 / scale``).  The least pivots
    keep the scales small, and with them D's entries and their lcm, by which
    ``Congruence.inverse`` divides: 9 bits at d = 200 on the zero-diagonal
    model, where the first nonzero pivot gave 390.  Returns (pivot order, X,
    D): row t of X is the transform row of ``order[t]``, and ``X A X^T``
    should equal the block diagonal matrix with the blocks D.

    A live row is 0 in every eliminated column, and its transform row is 0
    on every unprocessed row but its own, where it is ``scale``.  So a live
    row keeps n entries: column c holds its entry while c is live and its
    transform coefficient on c once c is a pivot.  With ``scale`` added to
    the pivot rows' own columns, one update of every other row gives both:
    ``x d - f y`` over ``scale`` for a 1x1 pivot p leaves ``-f`` in column p,
    and ``b**2 x - b (f_q y + epsilon f_p z)`` over ``scale**2`` for a 2x2
    pivot (p, q) leaves ``-b f_q / scale`` and ``-epsilon b f_p / scale``.
    The rows are lists (``_ListRows``) or packed integers (``_PackedRows``).
    """
    n = a.rows
    packed = n >= _PACKED_ROWS_MIN_DIM and (slots := _Slots.for_entries(a.entries, n)).width <= _PACKED_ROWS_MAX_WIDTH
    rows = _PackedRows(a, slots) if packed else _ListRows(a)
    live = list(range(n))
    order: list[int] = []
    x: list[list[int]] = []
    blocks: list[list[list[int]]] = []
    scale = 1

    def transform(row: list[int], own: list[tuple[int, int]]) -> list[int]:
        """Row of X from a live row's entries: its coefficients on the pivots so far, then ``own``."""
        out = [0] * n
        for c in order:
            out[c] = row[c]
        for c, v in own:
            out[c] = v
        return out

    while live:
        diagonal = list(map(abs, rows.diagonal(live)))
        least = min(filter(None, diagonal), default=0)
        if least:
            k = diagonal.index(least)
            p = live[k]
            row = rows.row(k)
            d = row[p]
            x.append(transform(row, [(p, scale)]))
            blocks.append([[scale * d]])  # the transform row of p has scale at p
            rows.pivot(k, p, d, scale)
            order.append(live.pop(k))
            scale = d
            continue
        for k in range(len(live) - 1):
            row = rows.row(k)
            later = [abs(row[c]) for c in live[k + 1 :]]
            least = min(filter(None, later), default=0)
            if least:
                break
        if not least:
            break
        l = k + 1 + later.index(least)
        p, q = live[k], live[l]
        b = row[q]
        x += [transform(row, [(p, scale), (q, 0)]), transform(rows.row(l), [(p, 0), (q, scale)])]
        blocks.append([[0, scale * b], [epsilon * scale * b, 0]])
        rows.pivot2(k, l, p, q, b, scale, epsilon)
        order += [live.pop(k), live.pop(l - 1)]
        scale = b * b // scale
    x += [transform(rows.row(t), [(i, scale)]) for t, i in enumerate(live)]
    order += live
    blocks += [[[0]] for _ in live]
    return order, x, blocks


class _ListRows:
    """The live rows of ``_symmetric_bareiss`` as lists; a step updates a row with one comprehension."""

    def __init__(self, a: IntMatrix) -> None:
        self.rows = a.to_rows()

    def diagonal(self, live: list[int]) -> list[int]:
        """Entry ``live[t]`` of each live row t."""
        return list(map(list.__getitem__, self.rows, live))

    def row(self, t: int) -> list[int]:
        return self.rows[t]

    def pivot(self, k: int, p: int, d: int, scale: int) -> None:
        """Eliminate with the 1x1 pivot ``d`` of live row k, column p."""
        y = self.rows.pop(k)
        y[p] += scale
        for row in self.rows:
            f = row[p]
            row[:] = [(w * d - f * v) // scale for w, v in zip(row, y)]

    def pivot2(self, k: int, l: int, p: int, q: int, b: int, scale: int, epsilon: int) -> None:
        """Eliminate with the 2x2 pivot ``b`` of live rows k and l, columns p and q."""
        z, y = self.rows.pop(l), self.rows.pop(k)
        y[p] += scale
        z[q] += scale
        b2, s2 = b * b, scale * scale
        for row in self.rows:
            fq, fp = row[q], epsilon * row[p]
            row[:] = [(b2 * w - b * (fq * u + fp * v)) // s2 for w, u, v in zip(row, y, z)]


class _PackedRows:
    """The live rows of ``_symmetric_bareiss`` as packed integers (``_Slots``), so a row update runs in C.

    A step's quotient reads back exactly while its digits are below 2**(w - 1)
    (``_Slots``).  With every digit in the guard interval, a 1x1 step's is -f
    in the pivot column p and at most 2**(2e + 1) / |scale| elsewhere, so it
    needs no check.  A 2x2 step's is at most |b f / scale| <= 2**(2e) in
    columns p and q and (b**2 + 2 |b| max|f|) 2**e / scale**2 elsewhere, over
    the multipliers f it reads, so it first widens until that is below
    2**(w - 1).  A step whose quotient leaves the guard interval is redone on
    its unchanged input rows at twice the slot width.
    """

    def __init__(self, a: IntMatrix, slots: _Slots) -> None:
        self.slots = slots
        self.biased, self.rows = slots.pack_rows(a.row(i) for i in range(a.rows))

    def diagonal(self, live: list[int]) -> list[int]:
        """Entry ``live[t]`` of each live row t."""
        bits, mask, bias = self.slots.bits, self.slots.mask, self.slots.bias
        return [((g >> bits * c) & mask) - bias for g, c in zip(self.biased, live)]

    def row(self, t: int) -> list[int]:
        return self.slots.unpack(self.biased[t])

    def widen(self) -> None:
        self.slots, self.biased, self.rows = self.slots.widened(self.biased)

    def keep(self, new: list[int]) -> bool:
        """Take ``new`` as the live rows if every digit is inside the guard interval; else widen for a redo."""
        biased = self.slots.biased(new)
        if biased is None:
            self.widen()
            return False
        self.rows, self.biased = new, biased
        return True

    def pivot(self, k: int, p: int, d: int, scale: int) -> None:
        fs = self.slots.digits(self.biased[:k] + self.biased[k + 1 :], p)
        while True:
            y = self.rows[k] + (scale << self.slots.bits * p)
            if self.keep([(w * d - f * y) // scale for w, f in zip(self.rows[:k] + self.rows[k + 1 :], fs)]):
                return

    def pivot2(self, k: int, l: int, p: int, q: int, b: int, scale: int, epsilon: int) -> None:
        kept = [t for t in range(len(self.rows)) if t not in (k, l)]
        kept_biased = [self.biased[t] for t in kept]
        fps, fqs = self.slots.digits(kept_biased, p), self.slots.digits(kept_biased, q)
        b2, s2 = b * b, scale * scale
        bound = b2 + 2 * abs(b) * max(map(abs, fps + fqs), default=0)  # times 2**e, off columns p and q
        while bound << self.slots.e >= s2 << self.slots.bits - 1:
            self.widen()
        while True:
            slots, rows = self.slots, [self.rows[t] for t in kept]
            y, z = self.rows[k] + (scale << slots.bits * p), self.rows[l] + (scale << slots.bits * q)
            if self.keep([(b2 * w - b * (fq * y + epsilon * fp * z)) // s2 for w, fp, fq in zip(rows, fps, fqs)]):
                return


class Congruence:
    """``X A X^T = D`` for an epsilon-symmetric A from one ``_symmetric_bareiss``, and four facts read from it.

    D is block diagonal, of 1x1 blocks and 2x2 blocks ``[[0, c], [epsilon c,
    0]]``, and X triangular in pivot order with a nonzero diagonal, so det A
    is det D / det(X)**2, an exact division.  The inverse, the inertia and the
    kernel read one certificate.  A form with det = +-1 is proved by its
    inverse ``X^T D^-1 X``: ``X^T (lcm D^-1 X)``, built from X's nonzeros on
    packed rows over the lcm of D's entries, which the least pivots keep a
    few bits wide, divided exactly by it and checked by ``A A^-1 = I``
    (``_congruence_inverse``); any other form by ``X A X^T = D`` and X's shape.
    Either way X is invertible and ``X A X^T = D``, so the inertia is D's,
    rank A = rank D, and the rows t of X at D's zero blocks are independent
    and as many as the nullity; ``X_t A X^T = 0`` gives ``X_t A = 0``, and
    ``A = epsilon A^T`` gives ``A X_t^T = 0``.
    """

    def __init__(self, a: IntMatrix, epsilon: int) -> None:
        self.a, self.epsilon = a, epsilon
        self.order, self.x, self.blocks = _symmetric_bareiss(a, epsilon)

    @cached_property
    def det(self) -> int:
        det_d = math.prod(b[0][0] if len(b) == 1 else b[0][0] * b[1][1] - b[0][1] * b[1][0] for b in self.blocks)
        # det X is the product of its diagonal, up to the sign of the pivot order, and det(X)**2 det A = det D
        det, rest = divmod(det_d, math.prod(row[i] for row, i in zip(self.x, self.order)) ** 2) if det_d else (0, 0)
        if rest:
            raise AlgorithmMismatchError("congruence certificate failed: det(X)**2 does not divide det D")
        return det

    @cached_property
    def _certificate(self) -> tuple[list[list[list[int]]], IntMatrix | None]:
        """D's blocks once ``X A X^T = D`` is proved, and the checked inverse that proves it when det = +-1."""
        n, order, x, blocks = self.a.rows, self.order, self.x, self.blocks
        if not all(len(b) == 1 or len(b) == 2 and b[0][0] == b[1][1] == 0 != b[0][1] for b in blocks):
            raise AlgorithmMismatchError("congruence certificate failed: D has a block not 1x1 or [[0, c], [epsilon c, 0]]")
        if self.det in (1, -1):
            return blocks, _congruence_inverse(self.a, x, blocks)
        xm = IntMatrix(len(x), n, tuple(chain.from_iterable(x)))
        d = IntMatrix.block_diagonal(IntMatrix(len(b), len(b), tuple(chain(*b))) for b in blocks)
        if (xm.rows, xm.cols) != (n, n) or congruence_apply(xm, self.a) != d:
            raise AlgorithmMismatchError("congruence certificate failed: X A X^T != D")
        if sorted(order) != list(range(n)) or not all(
            x[t][order[t]] and not any(x[t][j] for j in order[t + 1 :]) for t in range(n)
        ):
            raise AlgorithmMismatchError("congruence certificate failed: X is not triangular with nonzero diagonal")
        return blocks, None

    @cached_property
    def inverse(self) -> IntMatrix:
        """``X^T D^-1 X``, checked by ``A A^-1 = I``; raises NotUnimodularError, before any product, unless det = +-1."""
        if self.det not in (1, -1):
            raise NotUnimodularError(f"matrix has determinant {self.det}")
        return self._certificate[1]

    @cached_property
    def inertia(self) -> Inertia:
        if self.epsilon != 1:
            raise SymmetryError("inertia requires a symmetric matrix")
        # a 1x1 block has its own sign; [[0, c], [c, 0]] has inertia (1, 1, 0)
        signs = [s for b in self._certificate[0] for s in ([b[0][0]] if len(b) == 1 else [1, -1])]
        return Inertia(sum(s > 0 for s in signs), sum(s < 0 for s in signs), sum(s == 0 for s in signs))

    @cached_property
    def kernel(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis ``nullspace_rational`` returns, from the rows of X at D's zero blocks, verified by ``A v = 0``.

        Brought to reduced echelon form with its columns reversed, the basis
        is the identity on the free columns of A, ordered by free column.
        """
        rows = [row for row, b in zip(self.x, (b for b in self._certificate[0] for _ in b)) if b == [[0]]]
        if len(rows) > 1:
            m = [row[::-1] for row in rows]
            _gauss_jordan(m)
            rows = [row[::-1] for row in reversed(m)]
        return _checked_kernel(self.a, rows)


def _congruence_inverse(a: IntMatrix, x: list[list[int]], blocks: list[list[list[int]]]) -> IntMatrix:
    """``X^T D^-1 X``, D of nonzero blocks: ``X^T (lcm D^-1 X)`` divided exactly by the lcm, once ``A`` times it is I.

    Row t of ``lcm D^-1 X`` is f_t = lcm / D_t times row s(t) of X (s swaps
    the rows of a 2x2 block).  From ``_PACKED_MIN_DIM`` rows on, X's rows are
    packed once in w-bit slots and each is scaled with one product; row i of
    the product sums x_ti times scaled row t over the nonzero x_ti only.  Its
    digits u_j are below B = sum_t |f_t| max|x_t| max|x_s(t)| < 2**(w - 2),
    and each digit v_j of its quotient by the lcm is checked in [-2**g, 2**g),
    with B / lcm < 2**g and lcm 2**g <= 2**(w - 1): then u_j and lcm v_j are
    digits of one integer less than 2**w apart, so u_j = lcm v_j.  As n max|a|
    2**g <= 2**(w - 1) too, the quotient rows are the packed rows of ``A^-1``
    that ``_checked_inverse`` multiplies.
    """
    n = len(x)
    lcm = math.lcm(*(v for b in blocks for row in b for v in row if v))
    factors, sources = [], []  # row t of lcm D^-1 X is factors[t] times x[sources[t]]
    for b in blocks:  # [[0, c], [c', 0]]^-1 = [[0, 1 / c'], [1 / c, 0]]
        t = len(factors)
        factors += [lcm // b[0][0]] if len(b) == 1 else [lcm // b[1][0], lcm // b[0][1]]
        sources += [t] if len(b) == 1 else [t + 1, t]
    if n < _PACKED_MIN_DIM:
        scaled = [[f * v for v in x[s]] for f, s in zip(factors, sources)]
        product = [sum(map(mul, col, other)) for col in zip(*x) for other in zip(*scaled)]
        if any(v % lcm for v in product):
            raise AlgorithmMismatchError("congruence certificate failed: X^T D^-1 X is not an integer matrix")
        return _checked_inverse(a, IntMatrix(n, n, tuple(v // lcm for v in product)))
    tops = [max(max(row), -min(row)) for row in x]
    bound = sum(abs(f) * tops[s] * top for f, s, top in zip(factors, sources, tops))
    g = (bound // lcm).bit_length()
    e = max(bound.bit_length() + 2, g + 1 + max(lcm, n * max(max(a.entries), -min(a.entries)), *tops).bit_length())
    slots = _Slots(next((w for w in _STRUCT_CODES if 8 * w >= e), (e + 7) // 8), n, g)
    packed = slots.pack_rows(x)[1]
    scaled = [f * packed[s] for f, s in zip(factors, sources)]
    rows = [sum(map(mul, compress(col, col), compress(scaled, col))) for col in zip(*x)]
    quotients, rests = zip(*map(divmod, rows, repeat(lcm)))
    if any(rests) or (biased := slots.biased(list(quotients))) is None:
        raise AlgorithmMismatchError("congruence certificate failed: X^T D^-1 X is not an integer matrix")
    inv = IntMatrix(n, n, tuple(chain.from_iterable(map(slots.unpack, biased))))
    return _checked_inverse(a, inv, (slots, quotients))


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
