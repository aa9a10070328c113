"""Exact integer linear algebra: fraction-free determinants, unimodular
inverses, powers, power-diagonal matrices, and lattice span tests, plus the
closed-form checks for the anti-triangular ones matrix and its inverse."""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotUnimodularError, SchemaError, SizeGuardError
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
    "intmatrix_from_json",
]

DET_GUARD = 64
POWER_SPAN_GUARD = 10


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

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        n = self.n
        cols = other.transpose().rows
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __pow__(self, k: int) -> "IntMatrix":
        return int_pow(self, k)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def int_det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = A.n
    if n > DET_GUARD:
        raise SizeGuardError(f"int_det guard: n <= {DET_GUARD}, got {n}")
    m = [list(r) for r in A.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def unimodular_inverse(A: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +1 or -1.
    The product A * A^-1 is re-checked before returning."""
    d = int_det(A)
    if d not in (1, -1):
        raise NotUnimodularError(f"determinant is {d}, expected +1 or -1")
    n = A.n
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(A.rows)
    ]
    for k in range(n):
        if aug[k][k] == 0:
            for r in range(k + 1, n):
                if aug[r][k]:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    inv_rows = []
    for row in aug:
        out = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ArithmeticError("inverse is not integral")
            out.append(int(x))
        inv_rows.append(out)
    B = IntMatrix(inv_rows)
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


def diag_of_powers_matrix(A: IntMatrix, exponents) -> IntMatrix:
    """The matrix whose column j is the main diagonal of A**exponents[j]."""
    exponents = list(exponents)
    if len(exponents) != A.n:
        raise ValueError(f"need exactly {A.n} exponents, got {len(exponents)}")
    cache: dict = {}
    cols = []
    for e in exponents:
        if e not in cache:
            cache[e] = int_pow(A, e)
        cols.append(cache[e].diagonal())
    return IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(A.n)])


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
    normalized positive; only membership and fullness are exposed."""

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

    def contains(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != ambient dimension {self.n}")
        for col in range(self.n):
            if v[col] == 0:
                continue
            r = self._pivot_row(col)
            if r is None:
                return False
            row = self.rows[r]
            if v[col] % row[col]:
                return False
            q = v[col] // row[col]
            v = [x - q * y for x, y in zip(v, row)]
        return True

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


def antidiagonal_ones(n: int) -> IntMatrix:
    """Ones on and above the main anti-diagonal, zeros strictly below."""
    if n < 1:
        raise ValueError("size must be positive")
    return IntMatrix(
        [[1 if i + j <= n + 1 else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


@dataclass(frozen=True)
class PowerDiagonalReport:
    """a: |det| of the power-diagonal matrix is 1; b: the diagonals of
    A^0..A^(n-1) span Z^n."""

    a: bool
    b: bool
    det_diag: int


def power_diagonal_check(A: IntMatrix, *, force: bool = False) -> PowerDiagonalReport:
    """Check the equivalent span conditions on the diagonals of powers of a
    unimodular matrix; fields a and b must agree."""
    n = A.n
    if n > POWER_SPAN_GUARD and not force:
        raise SizeGuardError(f"power diagonal guard: n <= {POWER_SPAN_GUARD}, got {n}")
    if abs(int_det(A)) != 1:
        raise NotUnimodularError("matrix must have determinant +1 or -1")
    D = diag_of_powers_matrix(A, range(n))
    det_diag = int_det(D)
    a = abs(det_diag) == 1
    diags = [tuple(D.rows[i][j] for i in range(n)) for j in range(n)]
    b = spans_Zn(diags)
    return PowerDiagonalReport(a=a, b=b, det_diag=det_diag)


@dataclass(frozen=True)
class BandReport:
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


def verify_inverse_bands(n: int, j_max: int | None = None, *, force: bool = False) -> BandReport:
    """Verify the closed forms for B, the inverse of the anti-triangular
    ones matrix: B^2 is tridiagonal, B^(2j-1) is a two-band matrix for
    j <= j_max, the diagonals of the first n odd powers span Z^n, and the
    power-diagonal determinant of the ones matrix is a unit."""
    guard("lemma5", n, force)
    if j_max is None:
        j_max = n - 1
    if not 1 <= j_max <= n - 1:
        raise ValueError(f"j_max must lie in [1, n-1], got {j_max}")
    A = antidiagonal_ones(n)
    B = unimodular_inverse(A)
    B2 = B * B
    b2_ok = B2 == _tridiagonal_square_form(n)
    odd_ok = True
    span_vectors = []
    odd_power = B
    for j in range(1, n + 1):
        if j <= j_max:
            odd_ok = odd_ok and _matches_band_formula(odd_power, n, j)
        span_vectors.append(odd_power.diagonal())
        odd_power = odd_power * B2
    span_ok = spans_Zn(span_vectors)
    p_of_a = int_det(diag_of_powers_matrix(A, range(n)))
    return BandReport(b2=b2_ok, odd=odd_ok, span=span_ok, p_of_a=p_of_a)


# -- JSON form ----------------------------------------------------------------

def intmatrix_from_json(obj) -> IntMatrix:
    """Load {"n": int, "entries": [[int-or-decimal-string, ...], ...]}."""
    try:
        n = int(obj["n"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed matrix JSON: {e}") from e
    if n < 1:
        raise SchemaError(f"matrix size must be positive, got {n}")
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"expected {n} rows")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"row {i + 1}: expected {n} entries")
        out = []
        for j, e in enumerate(row):
            if isinstance(e, bool) or isinstance(e, float):
                raise SchemaError(f"row {i + 1}, column {j + 1}: entries must be integers")
            if isinstance(e, str):
                try:
                    e = int(e, 10)
                except ValueError:
                    raise SchemaError(
                        f"row {i + 1}, column {j + 1}: {e!r} is not a decimal integer"
                    ) from None
            if not isinstance(e, int):
                raise SchemaError(f"row {i + 1}, column {j + 1}: entries must be integers")
            out.append(e)
        rows.append(out)
    return IntMatrix(rows)
