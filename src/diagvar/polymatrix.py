"""Square matrices over the polynomial ring: products, powers, exact
determinants and characteristic polynomials.

The determinant uses Laplace expansion with dynamic programming over column
subsets (2^n states), which avoids exact polynomial division entirely; a
hard size guard keeps the state count bounded.
"""

from __future__ import annotations

from .errors import ContextError, DiagvarError, DomainError, SchemaError, SizeGuardError
from .polyring import ZZ, Domain, MvPolynomial, VarContext, _tokens, parse_poly
from .polyring import _bound_masks, _mul_into, _reduce_in_place, _width

DET_GUARD = 8
CHAR_POLY_GUARD = 7


def _packed_rows(rows, e: int):
    """One field width w that holds every entry and exponent bound e, and
    the entries' packed terms at that width."""
    w = max([_width(e)] + [f._w for row in rows for f in row])
    return w, [[f._at(w) for f in row] for row in rows]


class PolyMatrix:
    """Immutable n-by-n matrix of polynomials sharing one context and domain."""

    __slots__ = ("n", "ctx", "dom", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        first = rows[0][0]
        for r in rows:
            for e in r:
                if not isinstance(e, MvPolynomial):
                    raise TypeError("entries must be MvPolynomial values")
                if e.ctx != first.ctx:
                    raise ContextError("all entries must share one variable context")
                if e.dom != first.dom:
                    raise DomainError("all entries must share one coefficient domain")
        self.rows = rows
        self.n = n
        self.ctx = first.ctx
        self.dom = first.dom

    @classmethod
    def identity(cls, ctx: VarContext, dom: Domain, n: int) -> "PolyMatrix":
        one = MvPolynomial.one(ctx, dom)
        zero = MvPolynomial.zero(ctx, dom)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.rows])

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        if self.ctx != other.ctx:
            raise ContextError("matrices live in different variable contexts")
        if self.dom != other.dom:
            raise DomainError("matrices live in different coefficient domains")
        n = self.n
        e = max(a._e for row in self.rows for a in row) + max(b._e for row in other.rows for b in row)
        w, packed = _packed_rows(self.rows + other.rows, e)
        A, B = packed[:n], packed[n:]
        p = self.dom.p
        out = []
        for i in range(n):
            orow = []
            for j in range(n):
                acc: dict = {}
                for k in range(n):
                    _mul_into(acc, A[i][k], B[k][j])
                orow.append(MvPolynomial._raw(self.ctx, self.dom, _reduce_in_place(acc, p), e, w))
            out.append(orow)
        return PolyMatrix(out)

    def det(self, *, force: bool = False) -> MvPolynomial:
        """Exact determinant via the subset dynamic program."""
        if self.n > DET_GUARD and not force:
            raise SizeGuardError(f"det guard: n <= {DET_GUARD}, got {self.n}")
        return self._det(None)

    def _det(self, bound) -> MvPolynomial:
        """The determinant, dropping every monomial with an exponent above
        the per-variable bound (None: no bound)."""
        n = self.n
        # every exponent of a k-row minor is at most the sum of the top k
        # rows' exponent bounds
        emax = [max(f._e for f in row) for row in self.rows]
        if bound is not None:
            emax = [min(x, max(bound, default=0)) for x in emax]
        e = sum(emax)
        w, rows = _packed_rows(self.rows, e)
        masks = add, flag = _bound_masks(bound, w)
        if flag:
            # an entry's term above the bound divides no kept term
            rows = [[{k: c for k, c in t.items() if not (k + add) & flag} for t in row] for row in rows]
        p = self.dom.p
        # level k maps a k-subset of columns (bitmask) to the packed terms of
        # the determinant of the top k rows restricted to those columns; each
        # signed product entry * minor is added straight into its target
        level = {0: {0: 1}}
        for i in range(n):
            nxt: dict = {}
            row = rows[i]
            for mask, minor in level.items():
                for j in range(n):
                    bit = 1 << j
                    if mask & bit or not row[j]:
                        continue
                    sign = -1 if (i + (mask & (bit - 1)).bit_count()) % 2 else 1
                    _mul_into(nxt.setdefault(mask | bit, {}), row[j], minor, sign, masks)
            level = {mask: acc for mask, acc in nxt.items() if _reduce_in_place(acc, p)}
        if bound is not None:
            e = min(e, max(bound, default=0))
        det = level.get((1 << n) - 1, {})
        return MvPolynomial._raw(self.ctx, self.dom, det, e, w)

    def char_poly(self, *, force: bool = False) -> MvPolynomial:
        """Monic characteristic polynomial det(t*I - A).  The reserved
        variable t is appended to the context when absent."""
        if "t" in self.ctx:
            ti = self.ctx.index("t")
            for row in self.rows:
                for e in row:
                    t_field = ((1 << e._w) - 1) << (e._w * ti)
                    if any(key & t_field for key in e._t):
                        raise ContextError("t is reserved; entries must not use it")
        if self.n > CHAR_POLY_GUARD and not force:
            raise SizeGuardError(f"char_poly guard: n <= {CHAR_POLY_GUARD}, got {self.n}")
        return self._char_poly("t")

    def _char_poly(self, name: str) -> MvPolynomial:
        """det(name*I - A), with the variable name appended to the context
        when absent.  The caller ensures that no entry uses it."""
        n = self.n
        ctx_t = self.ctx if name in self.ctx else self.ctx.with_var(name)
        t = MvPolynomial.variable(ctx_t, self.dom, name)
        out = []
        for i in range(n):
            orow = []
            for j in range(n):
                e = self.rows[i][j].with_context(ctx_t)
                orow.append(t - e if i == j else -e)
            out.append(orow)
        return PolyMatrix(out)._det(None)

    def __repr__(self):
        return f"PolyMatrix(n={self.n}, vars={len(self.ctx)})"


# -- JSON form ----------------------------------------------------------------


def polymatrix_from_json(obj) -> PolyMatrix:
    """Load {"n": int, "entries": [[poly-string, ...], ...]}.  The context is
    the full n-by-n variable grid, plus t when any entry mentions it."""
    try:
        n = int(obj["n"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed matrix JSON: {e}") from e
    if isinstance(obj["n"], (bool, float)):
        raise SchemaError(f"matrix size must be an integer, got {obj['n']!r}")
    if n < 1:
        raise SchemaError(f"matrix size must be positive, got {n}")
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"expected {n} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    uses_t = False
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"row {i + 1}: expected {n} entries")
        for j, s in enumerate(row):
            if not isinstance(s, str):
                raise SchemaError(f"row {i + 1}, column {j + 1}: entry must be a string")
            if any(tok[:2] == ("var", "t") for tok in _tokens(s)):
                uses_t = True
    ctx = VarContext.matrix(n, with_t=uses_t)
    rows = []
    for i, row in enumerate(entries):
        prow = []
        for j, s in enumerate(row):
            try:
                prow.append(parse_poly(s, ctx, ZZ))
            except DiagvarError as e:
                raise SchemaError(f"row {i + 1}, column {j + 1}: {e}") from e
        rows.append(prow)
    return PolyMatrix(rows)
