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
from dataclasses import dataclass
from functools import lru_cache

from .errors import NormalFormError, SizeGuardError
from .fpurity import FedderVerdict, fedder_check
from .guards import guard
from .polymatrix import PolyMatrix
from .polyring import GF, ZZ, Domain, MvPolynomial, VarContext

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

SPECIALIZED_GUARD = 7
TILDE_MODES = ("row", "column", "both")


def var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


class Specialization:
    """A variable assignment, applied entrywise to matrices before D and P
    are built (equivalent to substituting into P afterwards, but far smaller
    intermediates)."""

    __slots__ = ("label", "mode", "assignments")

    def __init__(self, label: str, assignments: Mapping[str, MvPolynomial], mode: str | None = None):
        self.label = label
        self.mode = mode
        self.assignments = dict(assignments)

    def apply(self, f: MvPolynomial) -> MvPolynomial:
        return f.substitute(self.assignments)

    def apply_to_matrix(self, M: PolyMatrix) -> PolyMatrix:
        return M.map_entries(self.apply)

    def __repr__(self):
        mode = f", mode={self.mode!r}" if self.mode else ""
        return f"Specialization({self.label!r}{mode}, {len(self.assignments)} assignments)"


def build_specialization(n: int, label: str, mode: str | None = None, dom: Domain = ZZ) -> Specialization:
    """The built-in assignments on the n-by-n grid.

    kill_s   : zero on and below the main anti-diagonal (i + j >= n + 1)
    kill_s0  : zero strictly below the main anti-diagonal (i + j >= n + 2)
    tilde    : zero the last row and/or column except the corner x_n_n
    sop      : kill_s plus identifying every survivor except x_1_1 with x_1_1
    """
    ctx = VarContext.matrix(n)
    zero = MvPolynomial.zero(ctx, dom)
    asg: dict = {}
    if label in ("kill_s", "kill_s0"):
        if mode is not None:
            raise ValueError(f"{label} takes no mode")
        cut = n + 1 if label == "kill_s" else n + 2
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i + j >= cut:
                    asg[var(i, j)] = zero
    elif label == "tilde":
        if mode not in TILDE_MODES:
            raise ValueError(f"tilde mode must be one of {TILDE_MODES}, got {mode!r}")
        if mode in ("column", "both"):
            for i in range(1, n):
                asg[var(i, n)] = zero
        if mode in ("row", "both"):
            for j in range(1, n):
                asg[var(n, j)] = zero
    elif label == "sop":
        if mode is not None:
            raise ValueError("sop takes no mode")
        x11 = MvPolynomial.variable(ctx, dom, var(1, 1))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i + j >= n + 1:
                    asg[var(i, j)] = zero
                elif (i, j) != (1, 1):
                    asg[var(i, j)] = x11
    else:
        raise ValueError(f"unknown specialization label {label!r}")
    return Specialization(label, asg, mode)


def generic_matrix(n: int, dom: Domain = ZZ) -> PolyMatrix:
    """The n-by-n matrix whose (i, j) entry is the variable x_i_j."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    ctx = VarContext.matrix(n)
    return PolyMatrix(
        [
            [MvPolynomial.variable(ctx, dom, var(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


def diag_matrix(M: PolyMatrix, *, force: bool = False) -> PolyMatrix:
    """D(M): entry (i, j) is the i-th diagonal entry of M^(j-1)."""
    n = M.n
    if n > SPECIALIZED_GUARD and not force:
        raise SizeGuardError(f"diag_matrix guard: n <= {SPECIALIZED_GUARD}, got {n}")
    cols = []
    power = PolyMatrix.identity(M.ctx, M.dom, n)
    cols.append(list(power.diagonal()))
    for _ in range(n - 1):
        power = power * M
        cols.append(list(power.diagonal()))
    return PolyMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _distinct_vars(M: PolyMatrix) -> int:
    used = set()
    for row in M.rows:
        for e in row:
            used |= e.variables_used()
    return len(used)


def compute_P(M: PolyMatrix, *, force: bool = False) -> MvPolynomial:
    """P(M) = det(D(M)), exactly.  Fully generic matrices are held to the
    pofx window; specialized (sparser) ones to diag_matrix's budget."""
    if not force and _distinct_vars(M) >= M.n * M.n:
        guard("pofx", M.n)
    D = diag_matrix(M, force=force)
    # the transpose has rows of increasing degree, which keeps the subset
    # dynamic program's heavy products at the last level only
    return D.transpose().det(force=force)


def _leading_block(X: PolyMatrix, m: int) -> PolyMatrix:
    return PolyMatrix([row[:m] for row in X.rows[:m]])


def verify_block_factorization(n: int, mode: str = "both", *, force: bool = False) -> bool:
    """With the last row and/or column of the generic matrix killed except
    for the corner, P factors through the leading block X0:

        P(killed X) == P(X0) * charpoly(X0) evaluated at x_n_n

    True exactly when the identity holds."""
    guard("lemma2", n, force)
    X = generic_matrix(n)
    spec = build_specialization(n, "tilde", mode)
    lhs = compute_P(spec.apply_to_matrix(X), force=force)
    X0 = _leading_block(X, n - 1)
    p0 = compute_P(X0, force=force)
    c = X0.char_poly(force=force)
    corner = MvPolynomial.variable(c.ctx, X.dom, var(n, n))
    c_at_corner = c.substitute({"t": corner}).with_context(X.ctx)
    return lhs == p0 * c_at_corner


def verify_peeling_identity(n: int, *, force: bool = False) -> bool:
    """Killing everything on and below the main anti-diagonal peels one
    anti-diagonal off the (n-1) block:

        P(killed X) == P(block with strict sub-anti-diagonal killed)
                       * (-1)^(n(n-1)/2) * product of x_i_(n-i)

    The sign exponent n(n-1)/2 is forced by independent expansion of both
    sides; at odd n it coincides with (n-2)(n-1)/2.
    """
    guard("induction", n, force)
    X = generic_matrix(n)
    lhs = compute_P(build_specialization(n, "kill_s").apply_to_matrix(X), force=force)
    ctx, dom = X.ctx, X.dom
    zero = MvPolynomial.zero(ctx, dom)
    block = PolyMatrix(
        [
            [X.rows[i][j] if (i + 1) + (j + 1) <= n else zero for j in range(n - 1)]
            for i in range(n - 1)
        ]
    )
    rhs = compute_P(block, force=force)
    exps = [0] * len(ctx)
    for i in range(1, n):
        exps[ctx.index(var(i, n - i))] = 1
    antidiag = MvPolynomial.monomial(ctx, dom, exps)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return lhs == rhs * antidiag * sign


def _above_antidiag_exps(n: int, ctx: VarContext) -> tuple:
    exps = [0] * len(ctx)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            exps[ctx.index(var(i, j))] = 1
    return tuple(exps)


def antidiag_unit_coeff(n: int, spec: str = "kill_s", *, force: bool = False) -> int:
    """Exact integer coefficient, in the specialized P, of the product of
    all entries strictly above the main anti-diagonal.

    The determinant is computed modulo the monomial ideal of non-divisors of
    the target (exponents only grow under multiplication, so this changes no
    coefficient of a divisor of the target)."""
    guard("antidiag", n, force)
    if spec not in ("kill_s", "kill_s0"):
        raise ValueError(f"spec must be 'kill_s' or 'kill_s0', got {spec!r}")
    X = generic_matrix(n)
    Xs = build_specialization(n, spec).apply_to_matrix(X)
    target = _above_antidiag_exps(n, X.ctx)
    D = diag_matrix(Xs, force=force).transpose()
    bounded = D._det(target, force)
    return bounded.coefficient(target)


@dataclass(frozen=True)
class SopNormalForm:
    sign: int
    exponent: int


def sop_normal_form(n: int, *, force: bool = False) -> SopNormalForm:
    """Under the system-of-parameters specialization, P collapses to
    sign * x_1_1^(n(n-1)/2); returns the sign and exponent, and raises
    NormalFormError if the collapse fails (a defect signal)."""
    guard("sop", n, force)
    X = generic_matrix(n)
    P = compute_P(build_specialization(n, "sop").apply_to_matrix(X), force=force)
    if len(P.terms) != 1:
        raise NormalFormError(f"expected a single term, got {len(P.terms)}")
    ((m, c),) = P.terms.items()
    i11 = X.ctx.index(var(1, 1))
    if any(e and i != i11 for i, e in enumerate(m)):
        raise NormalFormError("result is not a pure power of x_1_1")
    if c not in (1, -1):
        raise NormalFormError(f"expected a unit coefficient, got {c}")
    expected = n * (n - 1) // 2
    if m[i11] != expected:
        raise NormalFormError(f"exponent {m[i11]} differs from n(n-1)/2 = {expected}")
    return SopNormalForm(sign=c, exponent=m[i11])


@lru_cache(maxsize=None)
def _killed_P(n: int) -> MvPolynomial:
    # reached only through check_fpure's own guard (or an explicit force)
    X = generic_matrix(n)
    return compute_P(build_specialization(n, "kill_s").apply_to_matrix(X), force=True)


def check_fpure(n: int, p: int, *, force: bool = False) -> FedderVerdict:
    """Specialize P by the anti-diagonal kill, reinterpret it over F_p in the
    surviving variables (i + j <= n), and run the Fedder membership test.

    The test is pruned by the weight w(x_i_j) = -i*j, under which the
    product of all survivors is the unique top term of the killed P (checked
    for n = 3..7), so the half power keeps few terms.  The weight changes
    only the speed of `fedder_check`, never its verdict or witness."""
    guard("fedder", n, force, p)
    f = _killed_P(n)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    g = f.with_context(VarContext(var(i, j) for i, j in cells)).with_domain(GF(p))
    return fedder_check(g, p, weight=[-i * j for i, j in cells])
