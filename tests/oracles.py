"""Independent reference implementations used to cross-check fast paths."""

from itertools import permutations

from diagvar.diagvariety import build_specialization, compute_P, generic_matrix
from diagvar.errors import ContextError
from diagvar.intlattice import IntMatrix
from diagvar.polyring import GF, MvPolynomial


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def perm_det_poly(rows, ctx, dom) -> MvPolynomial:
    """Determinant by full permutation expansion (polynomial entries)."""
    n = len(rows)
    acc = MvPolynomial.zero(ctx, dom)
    for perm in permutations(range(n)):
        prod = MvPolynomial.one(ctx, dom)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        acc = acc + prod * perm_sign(perm)
    return acc


def perm_det_int(rows) -> int:
    """Determinant by full permutation expansion (integer entries)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = perm_sign(perm)
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def evaluate(terms, point) -> int:
    """The sum of c * prod(a^e) over the (exponent tuple, coefficient) items
    of terms, at the integer point (one value per variable): plain integer
    arithmetic, sharing nothing with the ring layer."""
    total = 0
    for m, c in terms.items():
        for a, e in zip(point, m):
            if e:
                c *= a**e
        total += c
    return total


def sop_by_polynomial_P(n: int) -> tuple:
    """(sign, exponent) read off the single term of the polynomial P of the
    sop-specialized n-by-n matrix, for n <= 7; AssertionError unless P is a
    signed power of x_1_1."""
    X = generic_matrix(n)
    P = compute_P(build_specialization(n, "sop").apply_to_matrix(X))
    ((m, c),) = P.terms.items()
    i11 = X.ctx.index("x_1_1")
    assert not any(e for i, e in enumerate(m) if i != i11), m
    return c, m[i11]


def _above_antidiag_exps(n: int, ctx) -> tuple:
    """The exponent tuple in ctx of the product of the x_i_j strictly above
    the main anti-diagonal (i + j <= n), read by name."""
    exps = [0] * len(ctx)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            exps[ctx.index(f"x_{i}_{j}")] = 1
    return tuple(exps)


def tuple_product(f: MvPolynomial, g: MvPolynomial) -> MvPolynomial:
    """f * g computed on exponent tuples, one pair of terms at a time."""
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return MvPolynomial(f.ctx, f.dom, out)


def tuple_substitute(f: MvPolynomial, i: int, g: MvPolynomial) -> MvPolynomial:
    """f with variable i replaced by g, by repeated tuple products."""
    acc = MvPolynomial.zero(f.ctx, f.dom)
    for m, c in f.terms.items():
        term = MvPolynomial(f.ctx, f.dom, {m[:i] + (0,) + m[i + 1 :]: c})
        for _ in range(m[i]):
            term = tuple_product(term, g)
        acc = acc + term
    return acc


def tuple_with_context(f: MvPolynomial, ctx) -> MvPolynomial:
    """f rebuilt in ctx by variable name, one exponent tuple at a time."""
    terms = {}
    for m, c in f.terms.items():
        exps = [0] * len(ctx)
        for name, e in zip(f.ctx.names, m):
            if not e:
                continue
            if name not in ctx:
                raise ContextError(f"variable {name!r} is not present in the target context")
            exps[ctx.index(name)] = e
        terms[tuple(exps)] = c
    return MvPolynomial(ctx, f.dom, terms)


def tuple_format_poly(f: MvPolynomial) -> str:
    """The canonical text of f, built from exponent tuples: terms by total
    degree descending, ties by the exponent tuples descending."""
    bits = []
    for m, c in sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = []
        for name, e in zip(f.ctx.names, m):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        neg = c < 0
        mag = -c if neg else c
        if factors:
            body = "*".join(factors) if mag == 1 else str(mag) + "*" + "*".join(factors)
        else:
            body = str(mag)
        if not bits:
            bits.append("-" + body if neg else body)
        else:
            bits.append(("- " if neg else "+ ") + body)
    return " ".join(bits) or "0"


def delete_high_exponents(f: MvPolynomial, cap: int) -> MvPolynomial:
    """Drop every monomial holding an exponent >= cap."""
    kept = {m: c for m, c in f.terms.items() if max(m, default=0) < cap}
    return MvPolynomial(f.ctx, f.dom, kept)


def pow_then_delete(f: MvPolynomial, k: int, cap: int) -> MvPolynomial:
    """Uncapped power by k tuple products starting at one, followed by one
    deletion pass."""
    power = MvPolynomial.one(f.ctx, f.dom)
    for _ in range(k):
        power = tuple_product(power, f)
    return delete_high_exponents(power, cap)


def tuple_initial_form(f: MvPolynomial, weight) -> MvPolynomial:
    """The terms of f whose exponent tuples m reach the largest
    sum(weight[i] * m[i])."""
    weights = {m: sum(c * e for c, e in zip(weight, m)) for m in f.terms}
    top = max(weights.values(), default=0)
    return MvPolynomial(f.ctx, f.dom, {m: c for m, c in f.terms.items() if weights[m] == top})


def split_power_coefficient(f: MvPolynomial, p: int, a: int | None = None) -> int:
    """The coefficient of t = (p-1, ..., p-1) in f^(p-1), f over GF(p), as
    the sum of h[m] * h'[t - m] over the exponent tuples m of h = f^a, with
    h' = f^(p-1-a) and a = (p-1)//2 unless given; each power is formed by
    `pow_capped` with the cap p and no weight."""
    a = (p - 1) // 2 if a is None else a
    h = dict(f.pow_capped(a, cap=p).terms.items())
    rest = h if 2 * a == p - 1 else dict(f.pow_capped(p - 1 - a, cap=p).terms.items())
    # every exponent of h is below p, so t - m has no negative entry
    total = sum(c * rest.get(tuple(p - 1 - x for x in m), 0) for m, c in h.items())
    return total % p


def frobenius_power_bruteforce(f: MvPolynomial, p: int) -> MvPolynomial:
    """Full f^(p-1) by repeated multiplication, then bracket deletion."""
    g = f if f.dom.is_modp else f.with_domain(GF(p))
    acc = MvPolynomial.one(g.ctx, g.dom)
    for _ in range(p - 1):
        acc = acc * g
    return delete_high_exponents(acc, p)


def random_poly(rng, ctx, dom, max_terms=4, max_exp=2, coeff_range=4) -> MvPolynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(len(ctx)))
        terms[m] = terms.get(m, 0) + rng.randint(-coeff_range, coeff_range)
    return MvPolynomial(ctx, dom, terms)


def random_unimodular(rng, n, steps=12) -> IntMatrix:
    """Product of elementary row operations on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows)
