"""The matrix-of-diagonals construction.

For an n-by-n matrix M over the polynomial ring, D(M) is the n-by-n matrix
whose j-th column is the main diagonal of M^(j-1), and P(M) = det(D(M)).
This module builds the generic matrix, applies the standard anti-diagonal
specializations, and verifies the structural identities the package exists
to check: the corner-block factorization, the anti-diagonal peeling
identity, the unit coefficient of the above-anti-diagonal monomial, the
system-of-parameters normal form, and F-purity of the killed hypersurface.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from typing import NamedTuple

from . import intlattice
from .errors import DiagvarError
from .fpurity import FedderVerdict, fedder_check
from .guards import PAIR_BUDGET, guard
from .polymatrix import PolyMatrix, _product_parts, _shifted_det
from .polyring import ZZ, Domain, MvPolynomial, VarContext, _key_weights, _reduce_in_place

__all__ = [
    "Specialization",
    "build_specialization",
    "generic_matrix",
    "diag_matrix",
    "compute_P",
    "verify_block_factorization",
    "verify_peeling_identity",
    "antidiag_unit_coeff",
    "SopNormalForm",
    "sop_normal_form",
    "check_fpure",
]

TILDE_MODES = ("row", "column", "both")


def var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


class Specialization:
    """A variable assignment, applied entrywise to matrices before D and P
    are built (equivalent to substituting into P afterwards, but far smaller
    intermediates)."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: Mapping[str, MvPolynomial]):
        self.assignments = dict(assignments)

    def apply_to_matrix(self, M: PolyMatrix) -> PolyMatrix:
        """Each entry of M specialized.  The entries share one context and
        domain, so the assignments are checked against M once, and the mask
        of the replaced fields is built once per field width."""
        reps = M.rows[0][0]._replacements(self.assignments)
        masks: dict = {}
        return M.map_entries(lambda f: f._substitute(reps, masks))


def _kept(n: int, label: str | None = None, mode: str | None = None) -> list:
    """The cells (i, j) of the n-by-n grid whose x_i_j the label keeps, in
    row-major order; the label's assignment zeroes every other cell.

    None     : every cell (the generic matrix)
    kill_s0  : the cells on and above the main anti-diagonal (i + j <= n + 1,
               `intlattice._antidiagonal_cells`)
    kill_s   : the cells strictly above it (i + j <= n), kill_s0's one size down
    sop      : the kill_s cells, each identified with x_1_1 (see `_assignment`)
    tilde    : every cell but those of the last row ("row"), the last column
               ("column") or both ("both"); the corner x_n_n is kept"""
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if label == "tilde":
        if mode not in TILDE_MODES:
            raise ValueError(f"tilde mode must be one of {TILDE_MODES}, got {mode!r}")
        last_row, last_col = mode != "column", mode != "row"
        return [(i, j) for i, j in grid if i == j == n or not (last_row and i == n or last_col and j == n)]
    if label not in (None, "kill_s", "kill_s0", "sop"):
        raise ValueError(f"unknown specialization label {label!r}")
    if mode is not None:
        raise ValueError(f"{label} takes no mode")
    if label is None:
        return grid
    return intlattice._antidiagonal_cells(n if label == "kill_s0" else n - 1)


def _assignment(n: int, label: str, mode: str | None, ctx: VarContext, dom: Domain) -> dict:
    """The label's assignment on the n-by-n grid, built in ctx and dom,
    which hold every x_i_j: each cell outside `_kept` goes to zero, and
    under sop each kept cell but (1, 1) goes to x_1_1."""
    kept = _kept(n, label, mode)
    zero = MvPolynomial.zero(ctx, dom)
    asg = {var(i, j): zero for i, j in _kept(n) if (i, j) not in kept}
    if label == "sop":
        x11 = MvPolynomial.variable(ctx, dom, var(1, 1))
        asg.update((var(i, j), x11) for i, j in kept if (i, j) != (1, 1))
    return asg


def build_specialization(n: int, label: str, mode: str | None = None, dom: Domain = ZZ) -> Specialization:
    """The built-in assignment of label (kill_s, kill_s0, sop, or tilde
    with a mode) on the n-by-n grid, in the ring of the whole grid; see
    `_kept` for the cells each label keeps."""
    return Specialization(_assignment(n, label, mode, VarContext.matrix(n), dom))


def _grid_matrix(n: int, label: str | None = None, mode: str | None = None, ctx: VarContext | None = None) -> tuple:
    """The n-by-n matrix with x_i_j at each cell the label keeps (see
    `_kept`) and zero elsewhere, and those cells, built in ctx or by
    default in the ring of those cells alone, whose variable order is
    theirs."""
    cells = _kept(n, label, mode)
    if ctx is None:
        ctx = VarContext(var(i, j) for i, j in cells)
    zero = MvPolynomial.zero(ctx, ZZ)
    x = {c: MvPolynomial.variable(ctx, ZZ, var(*c)) for c in cells}
    return PolyMatrix([[x.get((i, j), zero) for j in range(1, n + 1)] for i in range(1, n + 1)]), cells


def _killed_matrix(n: int, label: str) -> tuple:
    """The generic n-by-n matrix under the kill_s or kill_s0 assignment in
    the ring of its survivors, and the survivor cells (see `_grid_matrix`)."""
    return _grid_matrix(n, label)


def generic_matrix(n: int) -> PolyMatrix:
    """The n-by-n matrix whose (i, j) entry is the variable x_i_j."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    return _grid_matrix(n)[0]


def diag_matrix(M: PolyMatrix, *, force: bool = False) -> PolyMatrix:
    """D(M): entry (i, j) is the i-th diagonal entry of M^(j-1)."""
    n = M.n
    guard("polymatrix", n, force)
    cols = []
    power = PolyMatrix.identity(M.ctx, M.dom, n)
    cols.append(list(power.diagonal()))
    for _ in range(n - 1):
        power = power * M
        cols.append(list(power.diagonal()))
    return PolyMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _c_matrix(M: PolyMatrix, budget=None) -> PolyMatrix:
    """C(M), a matrix with det C(M) = det D(M) = P(M), read off one
    determinant of size n instead of built from powers of M.

    C(M)[r][k] is the t^(n-1-r) coefficient of det(t*I - M_k), where M_k is
    M with row and column k deleted, that is (-1)^r times the sum of the
    r-by-r principal minors of M_k; row 0 is all ones, and at n = 1 C(M) is
    [[1]].  det C(M) = det D(M) over every commutative ring.  Proof: by
    Cramer's rule,

        sum_r t^r (M^r)_kk = det(I - t*M_k) / det(I - t*M),

    and det(I - t*M_k) = sum_r t^r C(M)[r][k].  So D(M)^T = T * C(M), where
    T is the lower-triangular Toeplitz matrix of the power series
    1 / det(I - t*M) truncated at t^(n-1).  Its diagonal is the constant
    term 1, so det T = 1.  C(M) is built division-free, and its rows, like
    those of D(M)^T, have increasing degree; its last row holds
    determinants of size n - 1 instead of diagonals of M^(n-1), so the
    subset dynamic program pairs far fewer terms.

    All of C comes from one determinant, that of diag(t_0, ..., t_(n-1)) - M
    with a fresh variable t_k per row, each of exponent at most 1:

        det(diag(t) - M) = sum over S of (-1)^|S| det M_S * prod_(k not in S) t_k,

    over the index sets S, M_S the principal submatrix on S.  So C[r][k] is
    the sum of the terms of t-degree n - r that hold t_k, with their t-part
    stripped (row 0 is the S = {} term), and the t-free terms, det M, are
    dropped.  Distinct principal minors can share a monomial, so each entry
    is reduced once its terms are summed."""
    n = M.n
    ctx, dom = M.ctx, M.dom
    arity = len(ctx)
    # t_k is field arity + k, above the context's, which no entry can use,
    # so a key's t-part is its bits above the context's fields
    w, e, terms = _shifted_det(M.rows, range(arity, arity + n), dom.p, budget)
    shift = w * arity
    low = (1 << shift) - 1
    C = [[{} for _ in range(n)] for _ in range(n)]
    for key, c in terms.items():
        ts, m = key >> shift, key & low
        if not ts:
            continue
        # each t_k field holds 0 or 1, so the t-degree is the bit count
        row = C[n - ts.bit_count()]
        # credited to each k whose t_k the term holds, lowest bit first
        while ts:
            bit = ts & -ts
            ts ^= bit
            acc = row[(bit.bit_length() - 1) // w]
            acc[m] = acc.get(m, 0) + c
    # a t^(n-1-r) coefficient is a sum of products of r entries, and w
    # holds e
    emax = max(f._e for row in M.rows for f in row)
    return PolyMatrix(
        [
            [MvPolynomial._raw(ctx, dom, _reduce_in_place(acc, dom.p), min(e, r * emax), w) for acc in row]
            for r, row in enumerate(C)
        ]
    )


def compute_P(M: PolyMatrix, *, force: bool = False) -> MvPolynomial:
    """P(M) = det(D(M)), exactly, expanded as det C(M) (see `_c_matrix`).
    Unless forced, n lies in the polymatrix row of LIMITS, as for
    diag_matrix, and each determinant expanded forms at most PAIR_BUDGET
    term pairs."""
    C, budget = _guarded_c(M, force)
    return C._det(None, budget)


def _P_parts(M: PolyMatrix, fields: int, *, force: bool = False):
    """The terms of `compute_P` in parts, one per value of the exponents of
    the first fields variables of M's ring, each formed after the previous
    one is handed out (see `PolyMatrix._det_parts`)."""
    C, budget = _guarded_c(M, force)
    return C._det_parts(None, budget, fields)


def _guarded_c(M: PolyMatrix, force: bool) -> tuple:
    """C(M) and the pair budget of its determinant, under compute_P's
    guards."""
    guard("polymatrix", M.n, force)
    budget = None if force else PAIR_BUDGET
    return _c_matrix(M, budget), budget


def _leading_block(X: PolyMatrix, m: int) -> PolyMatrix:
    return PolyMatrix([row[:m] for row in X.rows[:m]])


def _tilde_c(n: int, mode: str) -> PolyMatrix:
    """C (see `_c_matrix`) of the generic matrix in the given tilde mode.
    The matrix is built in the ring of the whole grid, not of its kept
    cells, so the three modes' C share one context and can compare equal
    (see `verify_block_factorization`)."""
    return _c_matrix(_grid_matrix(n, "tilde", mode, VarContext.matrix(n))[0])


def _corner_side(n: int):
    """The right side of lemma2, P(X0) * det(x_n_n * I - X0), for the
    leading (n-1) block X0 of the generic matrix, in the parts of
    `PolyMatrix._det_parts` with fields = n, the first row's variables.
    No entry of X0 uses x_n_n, so the corner factor, the characteristic
    polynomial of X0 evaluated at x_n_n, is one characteristic polynomial
    taken in x_n_n, already in X's context.  At n = 1, X0 is empty and
    both factors are 1."""
    X = generic_matrix(n)
    if n == 1:
        yield MvPolynomial.one(X.ctx, X.dom)
        return
    X0 = _leading_block(X, n - 1)
    yield from _product_parts(compute_P(X0, force=True), X0._char_poly(var(n, n)), n)


def _same_parts(C: PolyMatrix, n: int) -> bool:
    """det C == the right side of lemma2, compared one part of each side at
    a time.  Both sides come in ascending order of their exponents of the
    first row's variables and skip a part that cancels, so the parts pair
    up exactly when the sides are equal.  Each left part is dropped before
    the next pair is formed, so at most one part of each side is held."""
    right = iter(_corner_side(n))
    for left in C._det_parts(None, None, n):
        if left != next(right, None):
            return False
        del left
    return next(right, None) is None


@lru_cache(maxsize=None)
def _corner_identity(n: int) -> tuple:
    # reached only through verify_block_factorization's own guard (or an
    # explicit force); keeps C of the "both" mode and the verdict, no other
    # polynomial
    C = _tilde_c(n, "both")
    return C, _same_parts(C, n)


def verify_block_factorization(n: int, mode: str = "both", *, force: bool = False) -> bool:
    """With the last row and/or column of the generic matrix killed except
    for the corner, P factors through the leading block X0:

        P(killed X) == P(X0) * det(x_n_n * I - X0)

    This is the bordering lemma at c = x_n_n.  Let M be block-triangular,
    with diagonal blocks X0, of size n - 1, and a corner c.  Then
    P(M) = P(X0) * chi(c), where chi(c) = det(c * I - X0).  Proof: each
    power of M is block-triangular too, so diag(M^k) is (diag(X0^k), c^k).
    Let chi(t) = sum_k a_k t^k, with a_(n-1) = 1.  Adding a_k times column
    k + 1 of D(M) to its last column, for each k < n - 1, changes no
    determinant and makes that column sum_k a_k diag(M^k) = (diag(chi(X0)),
    chi(c)).  chi(X0) = 0 by Cayley-Hamilton, so the last column is
    (0, ..., 0, chi(c)), and expanding along it gives chi(c) times the
    leading block, which is D(X0).

    The left side is det C of the killed matrix (see `_c_matrix`).  C is
    built from the principal minors of M_k, M with row and column k
    deleted.  In every mode the killed matrix is block-triangular with
    diagonal blocks X0 and x_n_n, and so is each M_k with k < n, so each
    principal minor is the product of its two blocks' minors, neither of
    which sees the killed row or column; M_n is X0 itself.  So C is the
    same in every mode, and the verdict of the "both" mode, expanded once
    per n, is every mode's.  Each mode still builds its own C and takes
    that verdict only when its C equals the shared one exactly (equal
    matrices have equal determinants); otherwise it expands its own
    determinant against the same right side.  Both sides are computed,
    neither through the lemma, and compared one part at a time, the terms
    that share their exponents of the first row's variables, so neither
    side is held whole.  True exactly when the identity holds."""
    guard("lemma2", n, force)
    C = _tilde_c(n, mode)
    C_both, holds = _corner_identity(n)
    if C == C_both:
        return holds
    return _same_parts(C, n)


def verify_peeling_identity(n: int, *, force: bool = False) -> bool:
    """Killing everything on and below the main anti-diagonal peels one
    anti-diagonal off the (n-1) block:

        P(killed X) == P(block with strict sub-anti-diagonal killed)
                       * (-1)^(n(n-1)/2) * product of x_i_(n-i)

    Both sides live in the ring of the kill_s survivors (see
    `_killed_matrix`): the block X0 is the killed matrix's leading (n-1)
    block, and the product runs over its cells with i + j == n.  The sign
    is the bordering lemma's (see `verify_block_factorization`) at c = 0:
    the killed matrix is X0 (+) 0, so its P is P(X0) * det(0 * I - X0) =
    P(X0) * (-1)^(n-1) * det X0.  X0 is kill_s0 at n - 1, zero below its
    anti-diagonal, so det X0 is the anti-diagonal product times
    (-1)^((n-1)(n-2)/2), the sign of reversing n - 1 indices; the two
    signs multiply to (-1)^(n(n-1)/2).  At n = 1 X0 is empty and P(X0) = 1.
    """
    guard("induction", n, force)
    M, cells = _killed_matrix(n, "kill_s")
    lhs = compute_P(M, force=force)
    rhs = compute_P(_leading_block(M, n - 1), force=force) if n > 1 else MvPolynomial.one(M.ctx, ZZ)
    antidiag = MvPolynomial.monomial(M.ctx, ZZ, [int(i + j == n) for i, j in cells])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return lhs == rhs * antidiag * sign


def antidiag_unit_coeff(n: int, spec: str = "kill_s", *, force: bool = False) -> int:
    """Exact integer coefficient, in the specialized P, of the product of
    all entries strictly above the main anti-diagonal, the cells with
    i + j <= n.

    P is that of the killed matrix in the ring of its survivors (see
    `_killed_matrix`): n(n-1)/2 variables under kill_s, and n(n+1)/2 under
    kill_s0, whose anti-diagonal the target does not use.  The determinant
    expanded is that of C of the killed matrix, which equals P (see
    `_c_matrix`), computed modulo the monomial ideal of non-divisors of the
    target (exponents only grow under multiplication, so this changes no
    coefficient of a divisor of the target)."""
    guard("antidiag", n, force)
    if spec not in ("kill_s", "kill_s0"):
        raise ValueError(f"spec must be 'kill_s' or 'kill_s0', got {spec!r}")
    M, cells = _killed_matrix(n, spec)
    above = set(_kept(n, "kill_s"))
    target = tuple(int(c in above) for c in cells)
    return _c_matrix(M)._det(target).coefficient(target)


class SopNormalForm(NamedTuple):
    sign: int
    exponent: int


def sop_normal_form(n: int, *, force: bool = False) -> SopNormalForm:
    """Under the system-of-parameters specialization, P collapses to
    sign * x_1_1^(n(n-1)/2); returns the sign and exponent.  The sign is
    whatever integer the determinant gives; a sign other than +-1 is a
    defect, which the caller judges.

    The specialized matrix is x_1_1 * A, where A is the 0/1 matrix with ones
    at i + j <= n.  Column j (0-based) of D(x_1_1 * A) is
    x_1_1^j * diag(A^j), so scaling the columns gives
    P(x_1_1 * A) = det D(A) * x_1_1^(0 + 1 + ... + (n-1)), exactly.  The
    sign is therefore one integer determinant and the exponent is
    n(n-1)/2.  A = A' (+) 0, with A' = `intlattice.antidiagonal_ones(n-1)`,
    so the bordering lemma at c = 0 (see `verify_peeling_identity`) gives
    det D(A) = P(A') * (-1)^(n-1) * det A'."""
    guard("sop", n, force)
    kept = set(_kept(n, "sop"))
    A = intlattice.IntMatrix([[int((i, j) in kept) for j in range(1, n + 1)] for i in range(1, n + 1)])
    c = intlattice.int_det(intlattice.diag_of_powers_matrix(A))
    return SopNormalForm(sign=c, exponent=n * (n - 1) // 2)


def _top_permutations(a: list) -> tuple:
    """(top, count, other) over the permutations s of the columns of the
    square matrix a: top is the largest sum of a[r][s(r)], count the number
    of permutations that reach it, and other the largest sum over every s
    but the identity.  A None entry is minus infinity, and a sum that no
    permutation reaches is None.  A dynamic program over column subsets,
    one row at a time."""
    n = len(a)
    # for rows 0..r-1 sent onto each column set S: the largest sum, the
    # permutations reaching it, and the largest sum of those other than the
    # identity, which only the set {0..r-1} holds (elsewhere it is the first)
    level = {0: (0, 1, None)}
    for r, row in enumerate(a):
        nxt: dict = {}
        for S, (x, c, y) in level.items():
            for k, v in enumerate(row):
                bit = 1 << k
                if v is None or S & bit:
                    continue
                z = y if k == r else x
                z = None if z is None else z + v
                T = S | bit
                if T not in nxt:
                    nxt[T] = (x + v, c, z)
                    continue
                tx, tc, tz = nxt[T]
                if x + v > tx:
                    tx, tc = x + v, c
                elif x + v == tx:
                    tc += c
                if z is not None and (tz is None or z > tz):
                    tz = z
                nxt[T] = (tx, tc, tz)
        level = nxt
    return level.get((1 << n) - 1, (None, 0, None))


@lru_cache(maxsize=None)
def _fpure_certificate(n: int, weight=lambda i, j: -i * j) -> tuple:
    """Certify that in_w(P) = c * m for the killed P (kill_s, in the ring
    of its survivors), m the product of all survivors and c = +-1, under
    the weight w(x_i_j) = weight(i, j), -i*j unless a test passes another,
    without expanding P.  Returns (c * m, w.m, gap), gap being w.m less the
    largest top-weight sum of a permutation of C other than the identity
    (None when every other permutation meets a zero entry).  Raises
    DiagvarError naming the first hypothesis that fails at this n.

    P = det C, C = C(M) of the killed matrix M (see `_c_matrix`).  Row r of
    C (0-based) is checked homogeneous of degree r, so every term of P has
    degree 0 + 1 + ... + (n-1) = n(n-1)/2, the number of survivors.  Let
    a[r][k] be the top weight of C[r][k].  Every term of
    prod_r C[r][s(r)] weighs at most sum_r a[r][s(r)], so when the identity
    is the only permutation reaching the largest such sum, in_w(P) is
    prod_r in_w(C[r][r]) (Z is a domain, so in_w of a product is the
    product of the in_w), and that is checked to be +-m.  Those are the
    checks; each reads C's entries once, on their packed keys.

    Why they hold at every n, under -i*j: C[r][k] is (-1)^r times e_r of M
    with row and column k + 1 deleted, whose terms are the products
    x_(i,s(i)) over the permutations s of the r-sets S not holding k + 1.
    By the rearrangement inequality such a term weighs at most
    U(S) = -sum_i s_i * s_(r+1-i) (S sorted), reached only when s reverses
    S, and U falls as the elements of S grow.  So a[r][k] <= U[r][k], the
    bound at the r smallest indices other than k + 1: U[r][k] = -C(r+2, 3)
    when k >= r and is smaller when k < r.  On the diagonal the bound is
    reached by one term, the anti-diagonal of the leading r block, whose
    cells i + j = r + 1 <= n survive the kill.  Every permutation other
    than the identity has a row with s(r) < r, so the identity is the only
    maximiser, in_w(P) = +-m and w.m = -sum_r C(r+2, 3) = -C(n+2, 4)."""
    M, cells = _killed_matrix(n, "kill_s")
    w = [weight(i, j) for i, j in cells]
    where = f"fedder certificate at n = {n}"
    a, forms = [], []
    for r, row in enumerate(_c_matrix(M).rows):
        a.append([])
        for k, f in enumerate(row):
            if not f:
                a[r].append(None)
                continue
            if f.homogeneous_degree() != r:
                raise DiagvarError(f"{where}: row {r} of C is not homogeneous of degree {r}")
            weights = _key_weights(f._t, w, f._w)
            mu = max(weights)
            a[r].append(mu)
            if k == r:
                top = {key: c for (key, c), x in zip(f._t.items(), weights) if x == mu}
                forms.append(MvPolynomial._raw(f.ctx, f.dom, top, f._e, f._w))
    best, count, other = _top_permutations(a)
    diagonal = [a[r][r] for r in range(n)]
    if None in diagonal or sum(diagonal) != best:
        raise DiagvarError(f"{where}: the identity is not a top-weight permutation of C")
    if count != 1:
        raise DiagvarError(f"{where}: {count} permutations of C reach the top weight")
    for r, g in enumerate(forms):
        if len(g._t) != 1 or next(iter(g._t.values())) not in (1, -1):
            raise DiagvarError(f"{where}: in_w(C[{r}][{r}]) is not one term with coefficient +-1")
    base = forms[0]
    for g in forms[1:]:
        base = base * g
    if base.coefficient((1,) * len(cells)) not in (1, -1):
        raise DiagvarError(f"{where}: the diagonal's initial forms multiply to a term other than +-m")
    return base, best, None if other is None else best - other


def check_fpure(n: int, p: int, *, force: bool = False) -> FedderVerdict:
    """Specialize P by the anti-diagonal kill, reinterpret it over F_p in the
    surviving variables (i + j <= n), and run the Fedder membership test.

    The test runs on c * m, m the product of the survivors, which
    `_fpure_certificate` shows, once per n and without expanding P, to be
    in_w(P) under the weight w(x_i_j) = -i*j, with c = +-1 and P
    homogeneous of degree its variable count.  Then every other term of P
    weighs less than w.m, and t = (p-1, ..., p-1) weighs (p-1) * w.m, so a
    product of p - 1 terms of P reaches t only if each factor is c * m:
    coef_t(P^(p-1)) = c^(p-1) = coef_t((c * m)^(p-1)) over Z, and so mod
    every p.  Both are homogeneous of degree their variable count, so t is
    the one monomial that can survive the cap, and the verdict and witness
    are read off that coefficient alone: F-pure with witness t at every p,
    each of the p - 1 products pairing one term with one.  Where the
    certificate's checks fail, DiagvarError is raised instead of a
    verdict."""
    guard("fedder", n, force, p)
    return fedder_check(_fpure_certificate(n)[0], p)
