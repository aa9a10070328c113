"""Independent oracles: P, the characteristic polynomial, the Fedder
witness coefficient and the integer layer (determinants, unimodular
inverses, diagonals of powers) recomputed with sympy, which shares no
arithmetic with diagvar.  sympy is imported at module level on purpose: without it this
module fails to collect instead of skipping."""

import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from diagvar.diagvariety import _fpure_certificate, build_specialization, check_fpure, compute_P, generic_matrix
from diagvar.intlattice import (
    IntMatrix,
    antidiagonal_ones,
    diag_of_powers_matrix,
    int_det,
    unimodular_inverse,
)
from diagvar.polyring import GF, VarContext
from oracles import _killed_survivors, random_unimodular, split_power_coefficient, tuple_with_context


def _sympy_X(n: int, cut: int | None = None):
    """The generic n-by-n matrix over ZZ[x_1_1..x_n_n] (row-major), with the
    entries at i + j >= cut set to zero."""
    names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    K = sympy.ZZ[tuple(sympy.symbols(names))]
    rows = [
        [
            K.zero if cut is not None and i + j >= cut else K.gens[(i - 1) * n + (j - 1)]
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return DomainMatrix(rows, (n, n), K)


def _sympy_P(n: int, cut: int | None = None):
    X = _sympy_X(n, cut)
    power = DomainMatrix.eye(n, X.domain)
    cols = []
    for _ in range(n):
        cols.append([power[i, i].element for i in range(n)])
        power = power * X
    D = DomainMatrix([[cols[j][i] for j in range(n)] for i in range(n)], (n, n), X.domain)
    # det(t*I - D) has constant term (-1)^n det(D)
    return D.charpoly()[-1] * (-1) ** n


def _terms(element) -> dict:
    return {m: int(c) for m, c in element.terms()}


SPEC_CUTS = {"kill_s": lambda n: n + 1, "kill_s0": lambda n: n + 2}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_P_matches_sympy(n):
    P = compute_P(generic_matrix(n))
    assert dict(P.terms) == _terms(_sympy_P(n))


@pytest.mark.parametrize("spec", ["kill_s", "kill_s0"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_killed_P_matches_sympy(n, spec):
    X = generic_matrix(n)
    P = compute_P(build_specialization(n, spec).apply_to_matrix(X))
    assert dict(P.terms) == _terms(_sympy_P(n, SPEC_CUTS[spec](n)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_killed_survivors_P_matches_sympy(n):
    # check_fpure's input, expanded in the survivors' own context
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    survivors = [f"x_{i}_{j}" for i, j in cells]
    f, base = _killed_survivors(n)
    assert f.ctx == VarContext(survivors) == base.ctx
    expected = sympy.Poly(_sympy_P(n, n + 1).as_expr(), *sympy.symbols(survivors))
    assert dict(f.terms) == {m: int(c) for m, c in expected.terms()}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_killed_P_initial_form_is_the_survivor_product_in_sympy(n):
    # the hypothesis check_fpure's base rests on, read off sympy's own
    # killed P: under -i*j its top-weight terms are exactly m, the product
    # of the survivors, with coefficient +-1, which both the oracles' full-P
    # route and the certificate find
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    expected = sympy.Poly(_sympy_P(n, n + 1).as_expr(), *sympy.symbols([f"x_{i}_{j}" for i, j in cells]))
    weighed = [(sum(-i * j * e for (i, j), e in zip(cells, m)), m, int(c)) for m, c in expected.terms()]
    top = max(x for x, _, _ in weighed)
    ((m, c),) = [(m, c) for x, m, c in weighed if x == top]
    assert m == (1,) * len(cells)
    assert c in (1, -1)
    assert dict(_killed_survivors(n)[1].terms) == {m: c}
    base, wm, _ = _fpure_certificate(n)
    assert (dict(base.terms), wm) == ({m: c}, top)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_char_poly_matches_sympy(n):
    c = generic_matrix(n).char_poly()
    assert c.ctx.names[-1] == "t"
    expected = {}
    for k, coeff in enumerate(_sympy_X(n).charpoly()):
        for m, v in _terms(coeff).items():
            expected[m + (n - k,)] = v
    assert dict(c.terms) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fedder_witness_coefficient_matches_sympy(n, p):
    survivors = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    target = (p - 1,) * len(survivors)
    f = sympy.Poly(_sympy_P(n, n + 1).as_expr(), *sympy.symbols(survivors), modulus=p)
    expected = int(dict((f ** (p - 1)).terms()).get(target, 0)) % p

    verdict = check_fpure(n, p)
    assert verdict.fpure == (expected != 0)
    if verdict.fpure:
        assert verdict.witness == target
    X = generic_matrix(n)
    P = compute_P(build_specialization(n, "kill_s").apply_to_matrix(X))
    g = tuple_with_context(P, VarContext(survivors)).with_domain(GF(p))
    assert g.pow_capped(p - 1, cap=p).coefficient(target) == expected
    assert split_power_coefficient(g, p) == expected


# -- the integer layer -----------------------------------------------------------


def _random_int_rows(rng, n: int, kind: str):
    """A seeded n-by-n integer matrix: small dense entries, mostly zeros
    (pivots must be searched for), rank deficient, or entries near 10**12."""
    bound = 10**12 if kind == "huge" else 9
    density = 0.25 if kind == "sparse" else 1.0
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        # one row becomes a combination of two others
        i = rng.randrange(n)
        j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@pytest.mark.parametrize("kind", ["dense", "sparse", "singular", "huge"])
def test_int_det_matches_sympy(kind):
    rng = random.Random(f"int_det {kind}")
    for _ in range(30):
        n = rng.randint(1, 9)
        rows = _random_int_rows(rng, n, kind)
        expected = int(sympy.Matrix(rows).det(method="berkowitz"))
        if kind == "singular" and n > 1:
            assert expected == 0
        assert int_det(IntMatrix(rows)) == expected, rows


def _sympy_inverse(A: IntMatrix) -> IntMatrix:
    inv = sympy.Matrix(A.rows).inv()
    assert all(x.is_integer for x in inv)
    return IntMatrix([[int(inv[i, j]) for j in range(A.n)] for i in range(A.n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_ones_family_inverse_matches_sympy(n):
    A = antidiagonal_ones(n)
    assert unimodular_inverse(A) == _sympy_inverse(A)


def test_seeded_unimodular_inverse_matches_sympy():
    rng = random.Random("unimodular_inverse")
    for _ in range(40):
        A = random_unimodular(rng, rng.randint(1, 8), steps=20)
        assert unimodular_inverse(A) == _sympy_inverse(A), A


def _sympy_power_diagonals(A: IntMatrix) -> IntMatrix:
    M = sympy.Matrix(A.rows)
    cols = [[int((M**e)[i, i]) for i in range(A.n)] for e in range(A.n)]
    return IntMatrix([[cols[j][i] for j in range(A.n)] for i in range(A.n)])


def test_diag_of_powers_matches_sympy():
    rng = random.Random("diag_of_powers")
    for n in range(1, 7):
        for A in [random_unimodular(rng, n) for _ in range(4)]:
            assert diag_of_powers_matrix(A) == _sympy_power_diagonals(A), A


@pytest.mark.parametrize("n", range(1, 10))
def test_ones_family_power_diagonals_match_sympy(n):
    A = antidiagonal_ones(n)
    assert diag_of_powers_matrix(A) == _sympy_power_diagonals(A)
