"""Square matrices over the polynomial ring: products, powers, exact
determinants and characteristic polynomials.

The determinant uses Laplace expansion with dynamic programming over column
subsets (2^n states), which avoids exact polynomial division entirely; the
polymatrix row of `guards.LIMITS` keeps the state count bounded, and an
optional budget bounds the term pairs it forms, each level counted whole
before any of it is formed, so a refused determinant stops below the level
that would pass the budget.  `_subset_det` runs it on packed rows and
forms only completable minors: a boolean pass over the support first finds
the column sets the lower rows can fill through nonzero entries, and a
minor whose remaining columns are not among them is skipped, which is
exact.  On C(M) of the killed matrix, whose last row is zero, this cuts the
term pairs from 14,420 to 3,742 at n = 6 and from 1,643,012 to 343,222 at
n = 7.  Its last level can be handed out in parts, the terms that share
the exponents of some leading variables, so a caller that reads a
determinant part by part never holds all of it.  `_shifted_det` runs the
same DP on packed rows of
diag(t_0, ..., t_(n-1)) - A: each entry is packed and negated once and the
key of t_i added on the diagonal, with no polynomial objects per entry.
With one t throughout it is the characteristic polynomial; with a fresh t_k
per row it is the one determinant that C(M) is read off (see
`diagvariety._c_matrix`).
"""

from __future__ import annotations

from .errors import ContextError, DomainError, SchemaError, SizeGuardError, read_matrix_json
from .guards import guard
from .polyring import ZZ, Domain, MvPolynomial, VarContext, parse_poly
from .polyring import _bound_masks, _mul_into, _reduce_in_place, _width

__all__ = ["PolyMatrix"]


def _packed_rows(rows, e: int):
    """One field width w that holds every entry and exponent bound e, and
    the entries' packed terms at that width."""
    w = max([_width(e)] + [f._w for row in rows for f in row])
    return w, [[f._at(w) for f in row] for row in rows]


def _subset_det(rows, p, masks=(0, 0), budget=None, low=0):
    """The packed terms of the determinant of rows, a square list of rows of
    term dicts packed at one width, skipping every product key the masks
    flag; coefficients are reduced mod p (None: over Z).  SizeGuardError
    when the term pairs of the levels up to and including the next would
    pass budget (None: no budget), before any product of that level is
    formed.

    Level i maps a set of i columns (a bitmask) to the terms of the minor of
    the top i rows on those columns; each signed product of an entry and a
    minor is added straight into its target.  live[i] holds the column sets
    that rows i..n-1 can fill through nonzero entries, so a minor whose
    remaining columns are not in live[i + 1] could only be completed through
    a zero entry, and is never formed.

    The terms come in parts, one dict per value of key & low that a term
    holds, each formed after the previous one is handed out.  low masks
    whole fields at the bottom of the key, and key addition never carries
    between fields, so the grade k & low of a product is the sum of its
    factors' grades: the last level groups each entry's and each minor's
    terms by grade, and part g pairs only groups whose grades sum to g.
    Every part sees exactly the pairs it needs, so the parts form the same
    pairs as the whole.  low = 0 puts every term in one part, with no term
    copied.  A part whose coefficients all cancel is not handed out."""
    n = len(rows)
    full = (1 << n) - 1
    live = [{0}]
    for row in reversed(rows):
        bits = [1 << j for j, t in enumerate(row) if t]
        live.append({s | b for s in live[-1] for b in bits if not s & b})
    live.reverse()
    level = {0: {0: 1}}
    pairs = 0
    for i, row in enumerate(rows):
        rest = live[i + 1]
        # (target, sign, entry, minor) for each product of the level
        pending = [
            (mask | 1 << j, -1 if (i + (mask & ((1 << j) - 1)).bit_count()) % 2 else 1, entry, minor)
            for mask, minor in level.items()
            for j, entry in enumerate(row)
            if entry and not mask >> j & 1 and full ^ (mask | 1 << j) in rest
        ]
        pairs += sum(len(entry) * len(minor) for _, _, entry, minor in pending)
        if budget is not None and pairs > budget:
            raise SizeGuardError(f"pair guard: a determinant would form more than {budget} term pairs")
        if i < n - 1:
            level = {}
            for target, sign, entry, minor in pending:
                _mul_into(level.setdefault(target, {}), entry, minor, sign, masks)
            level = {mask: acc for mask, acc in level.items() if _reduce_in_place(acc, p)}
    # the last level's one target is the full set
    factors = [(sign, _graded(entry, low), _graded(minor, low)) for _, sign, entry, minor in pending]
    level = pending = None  # the factors hold all that is left of the minors
    yield from _graded_sum(factors, p, masks)


def _graded_sum(factors, p, masks=(0, 0)):
    """The packed terms of the sum of sign * e * m over the factors
    (sign, eg, mg), e and m term dicts grouped by grade (see `_graded`), in
    parts by ascending grade, as `_subset_det` hands out its last level."""
    for g in sorted({a + b for _, eg, mg in factors for a in eg for b in mg}):
        acc: dict = {}
        for sign, eg, mg in factors:
            for a, ta in eg.items():
                tb = mg.get(g - a)
                if tb is not None:
                    _mul_into(acc, ta, tb, sign, masks)
        if _reduce_in_place(acc, p):
            yield acc


def _product_parts(f: MvPolynomial, g: MvPolynomial, fields: int):
    """f * g for f and g of one context and domain, in the parts of
    `PolyMatrix._det_parts`: one per value of the exponents of the first
    fields variables, in ascending order of those exponents read as one
    packed key, which no field width changes."""
    e = f._e + g._e
    w = max(f._w, g._w, _width(e))
    low = (1 << (w * fields)) - 1
    for terms in _graded_sum([(1, _graded(f._at(w), low), _graded(g._at(w), low))], f.dom.p):
        yield MvPolynomial._raw(f.ctx, f.dom, terms, e, w)


def _graded(terms: dict, low: int) -> dict:
    """terms grouped by grade k & low; low = 0 gives terms as grade 0's."""
    if not low:
        return {0: terms}
    out: dict = {}
    for k, c in terms.items():
        g = k & low
        if g in out:
            out[g][k] = c
        else:
            out[g] = {k: c}
    return out


def _shifted_det(rows, fields, p, budget=None) -> tuple[int, int, dict]:
    """det(diag(t_0, ..., t_(n-1)) - A) for A the square rows of polynomial
    entries, where t_i is the variable of field fields[i], which no entry
    uses; the fields may repeat (one t throughout: the characteristic
    polynomial).  Each entry is packed and negated once, and t_i added on
    the diagonal, at the one width holding every entry and e, the sum over
    the rows of max(1, the row's largest entry bound), which bounds every
    exponent of every minor.  Returns that width, e and the packed terms,
    held to budget (see `_subset_det`)."""
    e = sum(max([1] + [f._e for f in row]) for row in rows)
    w, packed = _packed_rows(rows, e)
    neg = [[{k: -c for k, c in t.items()} for t in row] for row in packed]
    for i, f in enumerate(fields):
        neg[i][i][1 << (w * f)] = 1
    return w, e, next(_subset_det(neg, p, budget=budget), {})


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

    def _det(self, bound, budget=None) -> MvPolynomial:
        """The determinant, dropping every monomial with an exponent above
        the per-variable bound (None: no bound), under `_subset_det`'s budget."""
        return next(self._det_parts(bound, budget), MvPolynomial.zero(self.ctx, self.dom))

    def _det_parts(self, bound, budget=None, fields=0):
        """The terms of `_det` as polynomials in parts, one per value of the
        exponents of the first fields variables of the context, each formed
        after the previous one is handed out (see `_subset_det`); fields = 0
        gives one part, and a zero determinant none."""
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
        if bound is not None:
            e = min(e, max(bound, default=0))
        low = (1 << (w * fields)) - 1
        for terms in _subset_det(rows, self.dom.p, masks, budget, low):
            yield MvPolynomial._raw(self.ctx, self.dom, terms, e, w)

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
        guard("polymatrix", self.n, force)
        return self._char_poly("t")

    def _char_poly(self, name: str) -> MvPolynomial:
        """det(name*I - A), with the variable name appended to the context
        when absent.  The caller ensures that no entry uses it."""
        ctx_t = self.ctx if name in self.ctx else self.ctx.with_var(name)
        w, e, terms = _shifted_det(self.rows, [ctx_t.index(name)] * self.n, self.dom.p)
        return MvPolynomial._raw(ctx_t, self.dom, terms, e, w)

    def __repr__(self):
        return f"PolyMatrix(n={self.n}, vars={len(self.ctx)})"


# -- JSON form ----------------------------------------------------------------


def polymatrix_from_json(obj) -> PolyMatrix:
    """Load {"n": int, "entries": [[poly-string, ...], ...]}.  The context is
    the full n-by-n variable grid, plus t when any entry mentions it.  Every
    error in an entry is a SchemaError naming its row and column."""
    texts = read_matrix_json(obj, _entry_text)
    ctx = VarContext.matrix(len(texts))
    # every t in the grammar is the variable t; errors are left to the
    # parse below
    if any("t" in s for row in texts for s in row):
        ctx = ctx.with_var("t")
    return PolyMatrix(read_matrix_json(obj, lambda s: parse_poly(s, ctx, ZZ)))


def _entry_text(value) -> str:
    if not isinstance(value, str):
        raise SchemaError("entry must be a string")
    return value
