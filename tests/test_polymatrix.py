"""Polynomial matrices: products, powers, the subset-DP determinant, and
characteristic polynomials."""

import json
import random

import pytest

from diagvar.errors import ContextError, SchemaError, SizeGuardError
from diagvar.intlattice import IntMatrix, int_pow, intmatrix_from_json
from diagvar.polymatrix import PolyMatrix, polymatrix_from_json
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, parse_poly
from oracles import perm_det_poly, random_poly, tuple_with_context

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
    sq = X * X
    assert sq.rows[0][0] == parse_poly("2*x_1_1^2", CTX3, ZZ)


def test_det_upper_triangular_is_diagonal_product():
    M = pmat(
        [["x_1_1", "x_1_2", "5"], ["0", "x_2_2", "x_2_3"], ["0", "0", "x_3_3"]], CTX3
    )
    assert M._det(None) == parse_poly("x_1_1*x_2_2*x_3_3", CTX3, ZZ)


def test_det_two_by_two_diag_columns():
    M = pmat([["1", "x_1_1"], ["1", "x_2_2"]], CTX2)
    assert M._det(None) == parse_poly("x_2_2 - x_1_1", CTX2, ZZ)


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
    assert M._det(None) == expected


def test_det_repeated_row_is_zero():
    rng = random.Random(2003)
    for _ in range(10):
        A = rand_matrix(rng, 3, CTX3)
        rows = list(A.rows)
        rows[2] = rows[0]
        assert not PolyMatrix(rows)._det(None).terms


def test_det_cancelling_mod_p_is_zero():
    # 2*x * 4*x - x * x = 7*x^2, zero mod 7 but not over Z
    rows = [["2*x_1_1", "x_1_1"], ["x_1_1", "4*x_1_1"]]
    assert pmat(rows, CTX2, GF(7))._det(None) == MvPolynomial.zero(CTX2, GF(7))
    assert pmat(rows, CTX2)._det(None) == parse_poly("7*x_1_1^2", CTX2, ZZ)


def test_det_is_multiplicative():
    rng = random.Random(2004)
    for n in (2, 3):
        for _ in range(15):
            A = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=1)
            B = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=1)
            assert (A * B)._det(None) == A._det(None) * B._det(None)


def test_det_matches_permutation_expansion():
    rng = random.Random(2005)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n, CTX2, max_terms=2, max_exp=2)
        assert A._det(None) == perm_det_poly(A.rows, CTX2, ZZ)


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
    assert tuple_with_context(c.substitute({"t": x22}), CTX2) == parse_poly(
        "x_2_2 - x_1_1", CTX2, ZZ
    )


def test_char_poly_rejects_entries_using_t():
    ctx_t = VarContext.matrix(1).with_var("t")
    A = PolyMatrix([[MvPolynomial.variable(ctx_t, ZZ, "t")]])
    with pytest.raises(ContextError):
        A.char_poly()


def test_t_and_used_variables_are_read_off_whole_fields_at_width_16():
    # exponent 256 has a zero low byte, so a read of one byte per field
    # would miss it; t is the last variable of ctx_t, and g uses it
    ctx_t = VarContext.matrix(2).with_var("t")
    f = MvPolynomial(ctx_t, ZZ, {(256, 0, 0, 0, 0): 1, (0, 0, 200, 0, 0): 3})
    g = MvPolynomial(ctx_t, ZZ, {(0, 0, 0, 300, 256): 1})
    assert f._w == g._w == 16
    zero = MvPolynomial.zero(ctx_t, ZZ)
    t = MvPolynomial.variable(ctx_t, ZZ, "t")
    c = PolyMatrix([[f, zero], [zero, f]]).char_poly()
    assert c == (t - f) * (t - f)
    with pytest.raises(ContextError):
        PolyMatrix([[f, zero], [zero, g]]).char_poly()


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


SIZES = {"float": 2.7, "integral-float": 2.0, "bool": True, "string": "2"}
# each loader with a 2-by-2 matrix it reads
LOADERS = {
    "": (polymatrix_from_json, [["x_1_1", "0"], ["0", "x_2_2"]]),
    "int-": (intmatrix_from_json, [[1, 1], [1, 0]]),
}


@pytest.mark.parametrize(
    "load, entries, n",
    [pytest.param(load, entries, n, id=kind + name) for kind, (load, entries) in LOADERS.items() for name, n in SIZES.items()],
)
def test_matrix_json_rejects_a_non_integer_size(load, entries, n):
    # int() would read 2.7 as 2, true as 1 and "2" as 2
    with pytest.raises(SchemaError, match="must be an integer"):
        load({"n": n, "entries": entries})


@pytest.mark.parametrize(
    "obj, message",
    [
        pytest.param([], "malformed matrix JSON: ", id="not-a-mapping"),
        pytest.param({"n": 2}, "malformed matrix JSON: 'entries'", id="no-entries"),
        pytest.param({"n": 0, "entries": []}, "matrix size must be positive, got 0", id="size-0"),
        pytest.param({"n": 2, "entries": [[]]}, "expected 2 rows, got 1", id="one-row-of-two"),
        pytest.param({"n": 2, "entries": "ab"}, "expected 2 rows, got str", id="rows-not-a-list"),
        pytest.param({"n": 2, "entries": [[], []]}, "row 1: expected 2 entries", id="short-row"),
        pytest.param({"n": 1, "entries": [None]}, "row 1: expected 1 entries", id="row-not-a-list"),
    ],
)
def test_both_loaders_refuse_a_malformed_file_with_one_message(obj, message):
    for load in (polymatrix_from_json, intmatrix_from_json):
        with pytest.raises(SchemaError) as info:
            load(obj)
        assert str(info.value).startswith(message)


def test_matrix_json_unknown_variable_names_position():
    with pytest.raises(SchemaError, match="row 1, column 1"):
        polymatrix_from_json({"n": 2, "entries": [["x_3_3", "0"], ["0", "0"]]})


@pytest.mark.parametrize(
    "text, error",
    [("x_1_1 + $", "unexpected character '$' (at position 8)"), ("x_1_1 +", "expected a term (at position 7)")],
    ids=["bad-character", "missing-term"],
)
def test_matrix_json_entry_error_names_its_cell_and_position(text, error):
    # a bad character is reported with its cell, like every other entry error
    with pytest.raises(SchemaError) as info:
        polymatrix_from_json({"n": 2, "entries": [["0", text], ["0", "0"]]})
    assert str(info.value) == f"row 1, column 2: {error}"


def test_matrix_json_context_is_the_grid_then_t():
    # t inside a product, not a whole entry, still adds t, after the grid
    M = polymatrix_from_json({"n": 2, "entries": [["0", "x_1_1*t^2 - 1"], ["x_2_2", "0"]]})
    assert M.ctx.names == VarContext.matrix(2).names + ("t",)


def test_matrix_json_with_t():
    obj = {"n": 1, "entries": [["t + x_1_1"]]}
    M = polymatrix_from_json(obj)
    assert "t" in M.ctx
