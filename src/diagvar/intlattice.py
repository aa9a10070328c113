"""Exact integer linear algebra: fraction-free determinants, unimodular
inverses, powers, power-diagonal matrices, and lattice span tests, plus the
closed-form checks for the anti-triangular ones matrix and its inverse."""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, insort
from typing import NamedTuple

from .errors import NotUnimodularError, SchemaError, read_matrix_json
from .guards import guard

__all__ = [
    "IntMatrix",
    "int_det",
    "unimodular_inverse",
    "int_pow",
    "diag_of_powers_matrix",
    "ZLattice",
    "spans_Zn",
    "antidiagonal_ones",
    "PowerDiagonalReport",
    "power_diagonal_check",
    "BandReport",
    "verify_inverse_bands",
]


class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        for r in rows:
            for e in r:
                if not isinstance(e, int):
                    raise TypeError(f"entries must be ints, got {type(e).__name__}")
        self.rows = rows
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        cols = list(zip(*other.rows))
        return IntMatrix([[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows])

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def _fraction_free_reduce(rows: list, n: int):
    """Fraction-free Gauss-Jordan elimination of integer rows whose leading
    n-by-n block is square: Bareiss's exact divisions (Math. Comp. 22, 1968)
    applied above and below each pivot, as in Nakos, Turner & Williams
    (SIGSAM Bull. 31, 1997).  Returns (det, rows)
    where det is the determinant of that block and, when det != 0, the block
    has become d*I with d = +-det and every other column is scaled to match,
    so for rows [A | I] the right block is d * A^-1.  Every division is
    exact.  A zero det returns at once with the rows part-reduced."""
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0, m
        mk = m[k]
        pivot = mk[k]
        for i in range(n):
            if i != k:
                mik = m[i][k]
                m[i] = [(pivot * x - mik * y) // prev for x, y in zip(m[i], mk)]
        prev = pivot
    return sign * prev, m


def int_det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    return _fraction_free_reduce(A.rows, A.n)[0]


def unimodular_inverse(A: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +1 or -1, read off
    the fraction-free reduction of [A | I].  The product A * A^-1 is
    re-checked before returning."""
    n = A.n
    det, rows = _fraction_free_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A.rows)], n
    )
    if det not in (1, -1):
        raise NotUnimodularError(f"determinant is {det}, expected +1 or -1")
    d = rows[0][0]  # the leading block is d*I with d = +-1, so A^-1 = d * right block
    B = IntMatrix([[d * x for x in row[n:]] for row in rows])
    if A * B != IntMatrix.identity(n):
        raise ArithmeticError("inverse verification failed")
    return B


def int_pow(A: IntMatrix, k: int) -> IntMatrix:
    """Exact A^k; negative powers require a unimodular matrix."""
    if k < 0:
        A = unimodular_inverse(A)
        k = -k
    result = IntMatrix.identity(A.n)
    base = A
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def diag_of_powers_matrix(A: IntMatrix) -> IntMatrix:
    """The matrix whose column j is the main diagonal of A**j, for
    j = 0..n-1: the integer D(A), one product per column past the first."""
    power = IntMatrix.identity(A.n)
    cols = [power.diagonal()]
    for _ in range(A.n - 1):
        power = power * A
        cols.append(power.diagonal())
    return IntMatrix(zip(*cols))


def _xgcd(a: int, b: int):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class ZLattice:
    """Integer row lattice kept in echelon (Hermite-style) form.  Pivots are
    normalized positive; `add` reports growth, so a vector is a member
    exactly when adding it leaves the lattice as it was."""

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _pivot_row(self, col: int) -> int | None:
        i = bisect_left(self.pivots, col)
        if i < len(self.pivots) and self.pivots[i] == col:
            return i
        return None

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        v = list(vec)
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != ambient dimension {self.n}")
        changed = False
        for col in range(self.n):
            if v[col] == 0:
                continue
            r = self._pivot_row(col)
            if r is None:
                if v[col] < 0:
                    v = [-x for x in v]
                i = bisect_left(self.pivots, col)
                self.rows.insert(i, v)
                insort(self.pivots, col)
                return True
            row = self.rows[r]
            a, b = row[col], v[col]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, x, y = _xgcd(a, b)
                merged = [x * ra + y * vb for ra, vb in zip(row, v)]
                v = [(a // g) * vb - (b // g) * ra for ra, vb in zip(row, v)]
                self.rows[r] = merged
                changed = True
        return changed

    def is_full(self) -> bool:
        """True iff the lattice is all of Z^n."""
        return len(self.rows) == self.n and all(
            row[p] == 1 for row, p in zip(self.rows, self.pivots)
        )


def spans_Zn(vectors) -> bool:
    """True iff the integer lattice generated by the vectors is all of Z^n."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors must share one length")
    lat = ZLattice(n)
    for v in vectors:
        lat.add(v)
    return lat.is_full()


def _antidiagonal_cells(n: int) -> list:
    """The cells (i, j) of the n-by-n grid, 1-based and in row-major order,
    on and above its main anti-diagonal."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n + 1]


def antidiagonal_ones(n: int) -> IntMatrix:
    """Ones on and above the main anti-diagonal, zeros strictly below."""
    if n < 1:
        raise ValueError("size must be positive")
    ones = set(_antidiagonal_cells(n))
    return IntMatrix([[int((i, j) in ones) for j in range(1, n + 1)] for i in range(1, n + 1)])


class PowerDiagonalReport(NamedTuple):
    """a: |det| of the power-diagonal matrix is 1; b: the diagonals of
    A^0..A^(n-1) span Z^n."""

    a: bool
    b: bool
    det_diag: int


def power_diagonal_check(A: IntMatrix, *, force: bool = False) -> PowerDiagonalReport:
    """Check the equivalent span conditions on the diagonals of powers of a
    unimodular matrix; fields a and b must agree."""
    n = A.n
    guard("power_diagonal", n, force)
    if abs(int_det(A)) != 1:
        raise NotUnimodularError("matrix must have determinant +1 or -1")
    D = diag_of_powers_matrix(A)
    det_diag = int_det(D)
    a = abs(det_diag) == 1
    diags = [tuple(D.rows[i][j] for i in range(n)) for j in range(n)]
    b = spans_Zn(diags)
    return PowerDiagonalReport(a=a, b=b, det_diag=det_diag)


class BandReport(NamedTuple):
    """b2: the squared inverse matches the tridiagonal closed form; odd: the
    odd powers match the two-band formula; span: the odd-power diagonals
    span Z^n; p_of_a: det of the power-diagonal matrix of the ones family."""

    b2: bool
    odd: bool
    span: bool
    p_of_a: int


def _tridiagonal_square_form(n: int) -> IntMatrix:
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1 if i == 0 else 2
        if i > 0:
            row[i - 1] = -1
        if i + 1 < n:
            row[i + 1] = -1
        rows.append(row)
    return IntMatrix(rows)


def _matches_band_formula(M: IntMatrix, n: int, j: int) -> bool:
    # entries on k+l = n-j+2 equal (-1)^(j+1), on k+l = n+j+1 equal (-1)^j,
    # and vanish outside [n-j+2, n+j+1]; strictly between the two bands the
    # formula is silent
    hi = 1 if (j + 1) % 2 == 0 else -1
    lo = -hi
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            s = k + l
            e = M.rows[k - 1][l - 1]
            if s == n - j + 2:
                expected = hi
            elif s == n + j + 1:
                expected = lo
            elif s <= n - j + 1 or s >= n + j + 2:
                expected = 0
            else:
                continue
            if e != expected:
                return False
    return True


def verify_inverse_bands(n: int, *, force: bool = False) -> BandReport:
    """Verify the closed forms for B, the inverse of the anti-triangular
    ones matrix: B^2 is tridiagonal, B^(2j-1) is a two-band matrix for
    j = 1..n-1, the diagonals of the first n odd powers span Z^n, and the
    power-diagonal determinant of the ones matrix is a unit."""
    guard("lemma5", n, force)
    A = antidiagonal_ones(n)
    B = unimodular_inverse(A)
    B2 = B * B
    b2_ok = B2 == _tridiagonal_square_form(n)
    odd_ok = True
    odd_power = B
    span_vectors = [B.diagonal()]
    for j in range(1, n):
        odd_ok = odd_ok and _matches_band_formula(odd_power, n, j)
        odd_power = odd_power * B2
        span_vectors.append(odd_power.diagonal())
    span_ok = spans_Zn(span_vectors)
    p_of_a = int_det(diag_of_powers_matrix(A))
    return BandReport(b2=b2_ok, odd=odd_ok, span=span_ok, p_of_a=p_of_a)


# -- JSON form ----------------------------------------------------------------

def intmatrix_from_json(obj) -> IntMatrix:
    """Load {"n": int, "entries": [[int-or-decimal-string, ...], ...]}."""
    return IntMatrix(read_matrix_json(obj, _integer))


def _integer(value) -> int:
    # JSON's true and 1.0 are not integers here; decimal strings carry
    # entries past 2^53, as ASCII digits after an optional sign and nothing
    # else (int() alone also takes spaces, underscores and non-ASCII digits)
    if isinstance(value, str):
        if not re.fullmatch(r"[+-]?[0-9]+", value):
            raise SchemaError(f"{value!r} is not a decimal integer")
        try:
            return int(value)
        except ValueError:
            # the interpreter's digit limit keeps outside input from
            # quadratic-time parsing; it stays, and the message names it
            # instead of echoing the digits
            import sys

            digits = len(value.lstrip("+-"))
            limit = sys.get_int_max_str_digits()
            raise SchemaError(f"a decimal integer of {digits} digits passes the interpreter's limit of {limit} digits") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("entries must be integers")
    return value
