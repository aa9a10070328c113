"""Integer determinants, unimodular inverses, power diagonals, lattice span
tests, and the anti-triangular ones family."""

import json
import random
import re

import pytest

from diagvar.errors import NotUnimodularError, SchemaError, SizeGuardError
from diagvar.intlattice import (
    IntMatrix,
    ZLattice,
    antidiagonal_ones,
    diag_of_powers_matrix,
    int_det,
    int_pow,
    intmatrix_from_json,
    power_diagonal_check,
    spans_Zn,
    unimodular_inverse,
    verify_inverse_bands,
)
from oracles import perm_det_int, random_unimodular


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_det_identity():
    for n in (1, 2, 5, 10):
        assert int_det(IntMatrix.identity(n)) == 1


def test_det_two_by_two_ones_step():
    assert int_det(IntMatrix([[1, 1], [1, 0]])) == -1


def test_det_matches_permutation_expansion():
    rng = random.Random(5001)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_det(IntMatrix(rows)) == perm_det_int(rows)


def test_det_big_entries_stay_exact():
    big = 10**30
    A = IntMatrix([[big, 1], [1, big]])
    assert int_det(A) == big * big - 1


def test_det_and_inverse_run_past_64():
    # no bound of their own: every unforced route into them is bounded
    # more tightly, and a forced one must not be refused
    assert int_det(IntMatrix.identity(65)) == 1
    A = antidiagonal_ones(65)
    assert unimodular_inverse(A) * A == IntMatrix.identity(65)


def test_antidiagonal_ones_family_det_is_unit():
    for n in range(1, 11):
        assert int_det(antidiagonal_ones(n)) in (1, -1)


def test_inverse_identity():
    assert unimodular_inverse(IntMatrix.identity(4)) == IntMatrix.identity(4)


def test_inverse_of_ones_step_matrices():
    A2 = IntMatrix([[1, 1], [1, 0]])
    assert unimodular_inverse(A2) == IntMatrix([[0, 1], [1, -1]])
    A3 = antidiagonal_ones(3)
    assert unimodular_inverse(A3) == IntMatrix([[0, 0, 1], [0, 1, -1], [1, -1, 0]])


def test_inverse_requires_unit_determinant():
    with pytest.raises(NotUnimodularError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_inverse_randomized_products():
    rng = random.Random(5002)
    for _ in range(40):
        n = rng.randint(1, 6)
        A = random_unimodular(rng, n)
        assert A * unimodular_inverse(A) == IntMatrix.identity(n)


def test_int_pow_basics():
    A = antidiagonal_ones(3)
    assert int_pow(A, 0) == IntMatrix.identity(3)
    assert int_pow(A, 1) == A
    assert int_pow(A, -1) == unimodular_inverse(A)


def test_squared_inverse_of_ones_matrix():
    B3 = unimodular_inverse(antidiagonal_ones(3))
    assert int_pow(B3, 2) == IntMatrix([[1, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_negative_power_of_non_unimodular_raises():
    with pytest.raises(NotUnimodularError):
        int_pow(IntMatrix([[2]]), -1)


def test_power_addition_law():
    rng = random.Random(5003)
    for _ in range(25):
        n = rng.randint(2, 4)
        A = random_unimodular(rng, n)
        j = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        assert int_pow(A, j + k) == int_pow(A, j) * int_pow(A, k)


def test_diag_of_powers_matrix_columns():
    A = antidiagonal_ones(3)
    D = diag_of_powers_matrix(A)
    assert D == IntMatrix([[1, 1, 3], [1, 1, 2], [1, 0, 1]])
    assert int_det(D) == -1

    B = unimodular_inverse(A)
    D = diag_of_powers_matrix(B)
    for j in range(3):
        col = tuple(D.rows[i][j] for i in range(3))
        assert col == int_pow(B, j).diagonal()


def test_spans_standard_basis():
    assert spans_Zn([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_spans_index_two_sublattice_fails():
    assert not spans_Zn([(2, 0), (0, 1)])


def test_spans_non_square_generating_sets():
    assert spans_Zn([(2, 0), (3, 0), (0, 1)])
    assert not spans_Zn([(2, 0), (4, 0), (0, 1)])
    assert spans_Zn([(1, 1), (1, 0), (5, 7)])


def test_spans_power_diagonals_of_ones_matrix():
    A = antidiagonal_ones(3)
    D = diag_of_powers_matrix(A)
    cols = [tuple(D.rows[i][j] for i in range(3)) for j in range(3)]
    assert spans_Zn(cols)


def test_spans_agrees_with_unit_determinant_on_square_sets():
    rng = random.Random(5004)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert spans_Zn(rows) == (abs(perm_det_int(rows)) == 1)


def test_lattice_membership():
    # add() grows the lattice exactly when the vector is not a member yet
    def lattice():
        lat = ZLattice(3)
        lat.add((2, 0, 0))
        lat.add((0, 1, 1))
        return lat

    lat = lattice()
    assert not lat.add((2, 1, 1))
    assert not lat.add((4, 3, 3))
    assert lattice().add((1, 0, 0))
    assert lattice().add((0, 1, 0))


def test_lattice_add_reports_growth():
    lat = ZLattice(2)
    assert lat.add((2, 0))
    assert lat.add((3, 0))  # gcd merge shrinks the pivot
    assert not lat.add((5, 0))
    assert lat.add((0, 7))
    assert not lat.is_full()
    assert lat.add((0, 3))
    assert lat.is_full()


def test_inverse_diagonal_lies_in_power_diagonal_lattice():
    # consequence of the characteristic polynomial having unit constant term
    rng = random.Random(5005)
    for _ in range(40):
        n = rng.randint(2, 5)
        A = random_unimodular(rng, n)
        lat = ZLattice(n)
        for e in range(n):
            lat.add(int_pow(A, e).diagonal())
        assert not lat.add(unimodular_inverse(A).diagonal())


def test_power_diagonal_check_identity_matrix():
    rep = power_diagonal_check(IntMatrix.identity(2))
    assert (rep.a, rep.b) == (False, False)


def test_power_diagonal_check_ones_family():
    rep3 = power_diagonal_check(antidiagonal_ones(3))
    assert (rep3.a, rep3.b) == (True, True)
    assert rep3.det_diag == -1
    rep5 = power_diagonal_check(antidiagonal_ones(5))
    assert (rep5.a, rep5.b) == (True, True)


def test_power_diagonal_check_requires_unimodular():
    with pytest.raises(NotUnimodularError):
        power_diagonal_check(IntMatrix([[2, 0], [0, 1]]))


def test_power_diagonal_check_guard():
    with pytest.raises(SizeGuardError):
        power_diagonal_check(IntMatrix.identity(11))


def test_power_diagonal_fields_agree_randomized():
    rng = random.Random(5006)
    for _ in range(60):
        n = rng.randint(2, 5)
        A = random_unimodular(rng, n)
        rep = power_diagonal_check(A)
        assert rep.a == rep.b


def test_band_report_n3():
    rep = verify_inverse_bands(3)
    assert rep.b2 and rep.odd and rep.span
    assert rep.p_of_a == -1


def test_band_formula_j1_matches_displayed_inverse():
    # first odd power: +1 on the anti-diagonal, -1 just below it
    n = 3
    B = unimodular_inverse(antidiagonal_ones(n))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            s = k + l
            e = B.rows[k - 1][l - 1]
            if s == n + 1:
                assert e == 1
            elif s == n + 2:
                assert e == -1
            else:
                assert e == 0


def test_band_report_all_sizes():
    for n in range(2, 9):
        rep = verify_inverse_bands(n)
        assert rep.b2 and rep.odd and rep.span and abs(rep.p_of_a) == 1, (n, rep)


def test_band_report_guard():
    with pytest.raises(SizeGuardError):
        verify_inverse_bands(13)
    with pytest.raises(SizeGuardError):
        verify_inverse_bands(1)


def test_intmatrix_json_loads_decimal_string_entries():
    # entries past 2^53 arrive as decimal strings, with an optional sign
    obj = json.loads('{"n": 2, "entries": [[1, "-3"], ["100000000000000000000", "+7"]]}')
    assert intmatrix_from_json(obj) == IntMatrix([[1, -3], [10**20, 7]])


@pytest.mark.parametrize(
    "entry",
    [" 1_000 ", "1_000", "\u0661\u0662", "\uff10", "7 ", "", "+", "0x10", "+-1"],
    ids=["padded-underscore", "underscore", "arabic-indic", "fullwidth", "trailing-space", "empty", "sign-only", "hex", "two-signs"],
)
def test_intmatrix_json_rejects_a_non_decimal_string(entry):
    # int() alone takes the first five
    with pytest.raises(SchemaError, match=f"row 1, column 1: {re.escape(repr(entry))} is not a decimal integer"):
        intmatrix_from_json({"n": 1, "entries": [[entry]]})


def test_intmatrix_json_names_the_digit_limit_without_echoing_the_digits():
    # the interpreter's default limit on decimal digits is 4,300: at the
    # limit the entry loads, one digit past it is refused by name
    assert intmatrix_from_json({"n": 1, "entries": [["-" + "9" * 4300]]}) == IntMatrix([[-(10**4300 - 1)]])
    with pytest.raises(SchemaError) as err:
        intmatrix_from_json({"n": 1, "entries": [["+" + "9" * 4301]]})
    text = str(err.value)
    assert text == "row 1, column 1: a decimal integer of 4301 digits passes the interpreter's limit of 4300 digits"


def test_intmatrix_json_errors():
    with pytest.raises(SchemaError, match="row 2"):
        intmatrix_from_json({"n": 2, "entries": [[1, 2], [3]]})
    with pytest.raises(SchemaError, match="row 1, column 2"):
        intmatrix_from_json({"n": 2, "entries": [[1, "x"], [3, 4]]})
    with pytest.raises(SchemaError):
        intmatrix_from_json({"n": 0, "entries": []})
    with pytest.raises(SchemaError, match="row 1, column 1"):
        intmatrix_from_json({"n": 1, "entries": [[1.5]]})
