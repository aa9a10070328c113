"""Polynomial matrices: products, powers, the subset-DP determinant, and
characteristic polynomials."""

import json
import random

import pytest

from diagvar.errors import ContextError, SchemaError, SizeGuardError
from diagvar.intlattice import IntMatrix, int_pow
from diagvar.polymatrix import PolyMatrix, polymatrix_from_json
from diagvar.polyring import ZZ, MvPolynomial, VarContext, parse_poly
from oracles import perm_det_poly, random_poly

CTX2 = VarContext.matrix(2)
CTX3 = VarContext.matrix(3)


def pmat(entry_texts, ctx, dom=ZZ):
    return PolyMatrix([[parse_poly(s, ctx, dom) for s in row] for row in entry_texts])


def rand_matrix(rng, n, ctx, dom=ZZ, max_terms=2, max_exp=2):
    return PolyMatrix(
        [
            [random_poly(rng, ctx, dom, max_terms=max_terms, max_exp=max_exp) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_identity_is_neutral():
    rng = random.Random(2001)
    A = rand_matrix(rng, 3, CTX3)
    I = PolyMatrix.identity(CTX3, ZZ, 3)
    assert I * A == A
    assert A * I == A


def test_generic_square_top_left_entry():
    X = pmat([["x_1_1", "x_1_2"], ["x_2_1", "x_2_2"]], CTX2)
    sq = X * X
    assert sq.rows[0][0] == parse_poly("x_1_1^2 + x_1_2*x_2_1", CTX2, ZZ)


def test_killed_square_middle_entry():
    Xt = pmat([["x_1_1", "x_1_2", "0"], ["x_2_1", "0", "0"], ["0", "0", "0"]], CTX3)
    sq = Xt * Xt
    assert sq.rows[1][1] == parse_poly("x_1_2*x_2_1", CTX3, ZZ)


def test_identified_square_corner_entry():
    X = pmat([["x_1_1", "x_1_1", "0"], ["x_1_1", "0", "0"], ["0", "0", "0"]], CTX3)
    sq = X**2
    assert sq.rows[0][0] == parse_poly("2*x_1_1^2", CTX3, ZZ)


def test_power_zero_and_one():
    rng = random.Random(2002)
    A = rand_matrix(rng, 2, CTX2)
    assert A**0 == PolyMatrix.identity(CTX2, ZZ, 2)
    assert A**1 == A


def test_det_upper_triangular_is_diagonal_product():
    M = pmat(
        [["x_1_1", "x_1_2", "5"], ["0", "x_2_2", "x_2_3"], ["0", "0", "x_3_3"]], CTX3
    )
    assert M.det() == parse_poly("x_1_1*x_2_2*x_3_3", CTX3, ZZ)


def test_det_two_by_two_diag_columns():
    M = pmat([["1", "x_1_1"], ["1", "x_2_2"]], CTX2)
    assert M.det() == parse_poly("x_2_2 - x_1_1", CTX2, ZZ)


def test_det_of_displayed_specialized_diag_matrix():
    # D for the strictly-below-anti-diagonal kill at n=3, with its known
    # five-term determinant
    M = pmat(
        [
            ["1", "x_1_1", "x_1_1^2 + x_1_2*x_2_1 + x_1_3*x_3_1"],
            ["1", "x_2_2", "x_2_2^2 + x_1_2*x_2_1"],
            ["1", "0", "x_1_3*x_3_1"],
        ],
        CTX3,
    )
    expected = parse_poly(
        "-x_1_1*x_1_3*x_3_1 + x_1_1*x_1_2*x_2_1 - x_1_2*x_2_1*x_2_2"
        " + x_1_1*x_2_2^2 - x_1_1^2*x_2_2",
        CTX3,
        ZZ,
    )
    assert M.det() == expected


def test_det_repeated_row_is_zero():
    rng = random.Random(2003)
    for _ in range(10):
        A = rand_matrix(rng, 3, CTX3)
        rows = list(A.rows)
        rows[2] = rows[0]
        assert not PolyMatrix(rows).det().terms


def test_det_is_multiplicative():
    rng = random.Random(2004)
    for n in (2, 3):
        for _ in range(15):
            A = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=1)
            B = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=1)
            assert (A * B).det() == A.det() * B.det()


def test_det_matches_permutation_expansion():
    rng = random.Random(2005)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=2)
        assert A.det() == perm_det_poly(A.rows, CTX2, ZZ)


def test_det_guard():
    big = PolyMatrix.identity(CTX2, ZZ, 9)
    with pytest.raises(SizeGuardError):
        big.det()
    assert big.det(force=True) == MvPolynomial.one(CTX2, ZZ)


def test_char_poly_single_variable():
    A = pmat([["x_1_1"]], CTX2)
    c = A.char_poly()
    ctx_t = c.ctx
    assert c == parse_poly("t - x_1_1", ctx_t, ZZ)


def test_char_poly_generic_two_by_two():
    X = pmat([["x_1_1", "x_1_2"], ["x_2_1", "x_2_2"]], CTX2)
    c = X.char_poly()
    expected = parse_poly(
        "t^2 - x_1_1*t - x_2_2*t + x_1_1*x_2_2 - x_1_2*x_2_1", c.ctx, ZZ
    )
    assert c == expected


def test_char_poly_corner_substitution_recovers_difference():
    A = pmat([["x_1_1"]], CTX2)
    c = A.char_poly()
    x22 = MvPolynomial.variable(c.ctx, ZZ, "x_2_2")
    assert c.substitute({"t": x22}).with_context(CTX2) == parse_poly(
        "x_2_2 - x_1_1", CTX2, ZZ
    )


def test_char_poly_rejects_entries_using_t():
    ctx_t = VarContext.matrix(1, with_t=True)
    A = PolyMatrix([[MvPolynomial.variable(ctx_t, ZZ, "t")]])
    with pytest.raises(ContextError):
        A.char_poly()


def test_char_poly_guard():
    big = PolyMatrix.identity(CTX2, ZZ, 8)
    with pytest.raises(SizeGuardError):
        big.char_poly()


def test_cayley_hamilton_on_random_integer_matrices():
    rng = random.Random(2006)
    ctx0 = VarContext([])
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        M = PolyMatrix(
            [[MvPolynomial.constant(ctx0, ZZ, e) for e in row] for row in rows]
        )
        c = M.char_poly()
        A = IntMatrix(rows)
        acc = IntMatrix([[0] * n for _ in range(n)])
        for m, coeff in c.terms.items():
            power = int_pow(A, m[0])
            acc = IntMatrix(
                [
                    [a + coeff * b for a, b in zip(ra, rb)]
                    for ra, rb in zip(acc.rows, power.rows)
                ]
            )
        assert acc == IntMatrix([[0] * n for _ in range(n)])


def test_matrix_json_loads_entries():
    M = polymatrix_from_json(json.loads('{"n": 2, "entries": [["x_1_1", "x_1_2 - 1"], ["0", "x_2_2^2"]]}'))
    assert M.ctx == CTX2
    assert M == pmat([["x_1_1", "x_1_2 - 1"], ["0", "x_2_2^2"]], CTX2)


def test_matrix_json_ragged_row_names_row():
    with pytest.raises(SchemaError, match="row 2"):
        polymatrix_from_json({"n": 2, "entries": [["0", "0"], ["0"]]})


def test_matrix_json_unknown_variable_names_position():
    with pytest.raises(SchemaError, match="row 1, column 1"):
        polymatrix_from_json({"n": 2, "entries": [["x_3_3", "0"], ["0", "0"]]})


def test_matrix_json_with_t():
    obj = {"n": 1, "entries": [["t + x_1_1"]]}
    M = polymatrix_from_json(obj)
    assert "t" in M.ctx
