"""Exact dense linear algebra over the integers and rationals.

Every computation in this package is exact: entries are Python ints
(arbitrary precision) or ``fractions.Fraction``.  No floating point enters
anywhere.  The operations provided here are the substrate for everything
else: determinants (Bareiss), Smith normal form with transforms, integer
inverses of unimodular matrices, rational nullspaces, and the inertia of
symmetric matrices computed by two independent algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        out = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.at(i, j)
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(out) if rows else cls(0, cols, ())

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
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, b = self.to_rows(), other.to_rows()
        flat = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                flat.append(sum(ai[t] * b[t][j] for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

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
        return self.is_square and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_skew_symmetric(self) -> bool:
        return (
            self.is_square
            and all(self.at(i, i) == 0 for i in range(self.rows))
            and all(self.at(i, j) == -self.at(j, i) for i in range(self.rows) for j in range(i + 1, self.cols))
        )

    def has_zero_diagonal(self) -> bool:
        return self.is_square and all(self.at(i, i) == 0 for i in range(self.rows))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


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
# determinants


def det_bareiss(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise DimensionError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                # Bareiss: this division is exact
                m[i][j] = (m[i][j] * pivot - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.is_square and det_bareiss(a) in (1, -1)


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


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    if not a.is_square:
        raise DimensionError("inverse of non-square matrix")
    form = smith_normal_form(a)
    if form.d != IntMatrix.identity(a.rows):
        raise NotUnimodularError(
            f"matrix has invariant factors {form.diagonal()}, determinant {det_bareiss(a)}"
        )
    inv = form.v @ form.u  # U A V = I  =>  A^{-1} = V U
    if a @ inv != IntMatrix.identity(a.rows):
        raise AlgorithmMismatchError("inverse verification failed")
    return inv


# ---------------------------------------------------------------------------
# rational nullspace


def nullspace_rational(a: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right nullspace over Q.

    Each basis vector is normalized so its first nonzero coordinate is 1;
    vectors are ordered by their free column.  Use ``clear_denominators`` for
    the primitive integer form of a vector.
    """
    m, n = a.rows, a.cols
    r = [[Fraction(a.at(i, j)) for j in range(n)] for i in range(m)]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        sel = None
        for i in range(row, m):
            if r[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        r[row], r[sel] = r[sel], r[row]
        inv = r[row][col]
        r[row] = [x / inv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    basis = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -r[i][free]
        lead = next(x for x in vec if x != 0)
        basis.append(tuple(x / lead for x in vec))
    return tuple(basis)


def clear_denominators(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Primitive integer vector proportional to ``vec``, first nonzero entry positive."""
    scale = 1
    for x in vec:
        scale = scale * x.denominator // _gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = _gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


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


def inertia_ldlt(a: IntMatrix) -> Inertia:
    """Inertia via exact symmetric elimination with pivoting.

    Picks the largest-magnitude diagonal pivot.  When every remaining
    diagonal entry vanishes but an off-diagonal entry b survives, eliminates
    a 2x2 block [[0, b], [b, 0]], which contributes (1, 1, 0).
    """
    _require_symmetric(a)
    n = a.rows
    s = [[Fraction(a.at(i, j)) for j in range(n)] for i in range(n)]
    live = list(range(n))
    n_plus = n_minus = n_zero = 0
    while live:
        piv = None
        for i in live:
            if s[i][i] != 0 and (piv is None or abs(s[i][i]) > abs(s[piv][piv])):
                piv = i
        if piv is not None:
            dval = s[piv][piv]
            if dval > 0:
                n_plus += 1
            else:
                n_minus += 1
            live.remove(piv)
            for i in live:
                f = s[i][piv] / dval
                if f:
                    for j in live:
                        s[i][j] -= f * s[piv][j]
        else:
            pair = None
            for x, i in enumerate(live):
                for j in live[x + 1 :]:
                    if s[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                n_zero += len(live)
                break
            i, j = pair
            b = s[i][j]
            n_plus += 1
            n_minus += 1
            live.remove(i)
            live.remove(j)
            col_i = {r: s[r][i] for r in live}
            col_j = {r: s[r][j] for r in live}
            for r in live:
                for c in live:
                    s[r][c] -= (col_i[r] * col_j[c] + col_j[r] * col_i[c]) / b
    return Inertia(n_plus, n_minus, n_zero)


def inertia(a: IntMatrix) -> Inertia:
    """Exact inertia, computed by both algorithms; they must agree."""
    by_ldlt = inertia_ldlt(a)
    by_charpoly = inertia_charpoly(a)
    if by_ldlt != by_charpoly:
        raise AlgorithmMismatchError(
            f"inertia algorithms disagree: elimination {by_ldlt}, "
            f"characteristic polynomial {by_charpoly}"
        )
    return by_ldlt


# ---------------------------------------------------------------------------
# congruence


def congruence_apply(m: IntMatrix, a: IntMatrix) -> IntMatrix:
    """M @ A @ M^T for square M and A of equal size."""
    if not m.is_square or not a.is_square or m.rows != a.rows:
        raise DimensionError(
            f"congruence needs square matrices of equal size, got {m.rows}x{m.cols} and {a.rows}x{a.cols}"
        )
    return m @ a @ m.transpose()
