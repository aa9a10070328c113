"""Independent oracles: P, the characteristic polynomial and the Fedder
witness coefficient recomputed with sympy, which shares no arithmetic with
diagvar.  sympy is imported at module level on purpose: without it this
module fails to collect instead of skipping."""

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from diagvar.diagvariety import build_specialization, check_fpure, compute_P, generic_matrix
from diagvar.polyring import GF, VarContext


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
    g = P.with_context(VarContext(survivors)).with_domain(GF(p))
    assert g.pow_capped(p - 1, cap=p).coefficient(target) == expected
    h = g.pow_capped((p - 1) // 2, cap=p)
    assert h.mul_coefficient(h, target) == expected
