"""The D(X) construction, the built-in specializations, and the structural
identity checks, pinned against displayed values and independent expansion."""

import random

import pytest

from diagvar.diagvariety import (
    SopNormalForm,
    _above_antidiag_exps,
    antidiag_unit_coeff,
    build_specialization,
    check_fpure,
    compute_P,
    diag_matrix,
    generic_matrix,
    sop_normal_form,
    verify_block_factorization,
    verify_peeling_identity,
)
from diagvar.errors import SizeGuardError
from diagvar.polymatrix import PolyMatrix
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, parse_poly
from oracles import frobenius_power_bruteforce, perm_det_poly

CTX3 = VarContext.matrix(3)


def zeroed(s):
    return {name for name, g in s.assignments.items() if not g}


def specialized(n, label, mode=None):
    X = generic_matrix(n)
    return build_specialization(n, label, mode).apply_to_matrix(X)


def entry_texts(M):
    return [[str(e) for e in row] for row in M.rows]


# -- generic matrix and specializations ------------------------------------


def test_generic_matrix_small():
    assert entry_texts(generic_matrix(1)) == [["x_1_1"]]
    assert entry_texts(generic_matrix(2)) == [["x_1_1", "x_1_2"], ["x_2_1", "x_2_2"]]


def test_kill_s_n3_matrix_shape():
    assert entry_texts(specialized(3, "kill_s")) == [
        ["x_1_1", "x_1_2", "0"],
        ["x_2_1", "0", "0"],
        ["0", "0", "0"],
    ]


def test_kill_s0_n3_matrix_shape():
    assert entry_texts(specialized(3, "kill_s0")) == [
        ["x_1_1", "x_1_2", "x_1_3"],
        ["x_2_1", "x_2_2", "0"],
        ["x_3_1", "0", "0"],
    ]


def test_kill_s_zero_set_n3():
    s = build_specialization(3, "kill_s")
    assert zeroed(s) == {"x_1_3", "x_2_2", "x_2_3", "x_3_1", "x_3_2", "x_3_3"}


def test_kill_s0_zero_set_n2():
    s = build_specialization(2, "kill_s0")
    assert zeroed(s) == {"x_2_2"}


def test_sop_assignments_n3():
    s = build_specialization(3, "sop")
    assert zeroed(s) == {"x_1_3", "x_2_2", "x_2_3", "x_3_1", "x_3_2", "x_3_3"}
    x11 = MvPolynomial.variable(CTX3, ZZ, "x_1_1")
    assert s.assignments["x_1_2"] == x11
    assert s.assignments["x_2_1"] == x11
    assert "x_1_1" not in s.assignments
    assert entry_texts(specialized(3, "sop")) == [
        ["x_1_1", "x_1_1", "0"],
        ["x_1_1", "0", "0"],
        ["0", "0", "0"],
    ]


def test_tilde_modes():
    col = zeroed(build_specialization(3, "tilde", "column"))
    assert col == {"x_1_3", "x_2_3"}
    row = zeroed(build_specialization(3, "tilde", "row"))
    assert row == {"x_3_1", "x_3_2"}
    both = zeroed(build_specialization(3, "tilde", "both"))
    assert both == col | row


def test_bad_specialization_arguments():
    with pytest.raises(ValueError):
        build_specialization(3, "tilde")
    with pytest.raises(ValueError):
        build_specialization(3, "kill_s", "row")
    with pytest.raises(ValueError, match="sop takes no mode"):
        build_specialization(3, "sop", "row")
    with pytest.raises(ValueError):
        build_specialization(3, "nonsense")


# -- diag matrix ------------------------------------------------------------


def test_diag_matrix_first_column_is_ones():
    for n in (1, 2, 3, 4):
        X = generic_matrix(n)
        D = diag_matrix(X)
        one = MvPolynomial.one(X.ctx, X.dom)
        assert all(D.rows[i][0] == one for i in range(n))


def test_diag_matrix_generic_n2():
    D = diag_matrix(generic_matrix(2))
    assert entry_texts(D) == [["1", "x_1_1"], ["1", "x_2_2"]]


def test_diag_matrix_kill_s_n3():
    D = diag_matrix(specialized(3, "kill_s"))
    assert entry_texts(D) == [
        ["1", "x_1_1", "x_1_1^2 + x_1_2*x_2_1"],
        ["1", "0", "x_1_2*x_2_1"],
        ["1", "0", "0"],
    ]


def test_diag_matrix_kill_s0_n3():
    # the (1,3) entry carries all three length-2 loops at the corner
    D = diag_matrix(specialized(3, "kill_s0"))
    assert entry_texts(D) == [
        ["1", "x_1_1", "x_1_1^2 + x_1_2*x_2_1 + x_1_3*x_3_1"],
        ["1", "x_2_2", "x_1_2*x_2_1 + x_2_2^2"],
        ["1", "0", "x_1_3*x_3_1"],
    ]


def test_diag_matrix_guard():
    with pytest.raises(SizeGuardError):
        diag_matrix(generic_matrix(8))


# -- P itself ---------------------------------------------------------------


def test_p_trivial_size_one():
    assert compute_P(generic_matrix(1)) == 1


def test_p_generic_n2():
    assert compute_P(generic_matrix(2)) == parse_poly(
        "x_2_2 - x_1_1", VarContext.matrix(2), ZZ
    )


def test_p_kill_s_n3_is_single_squarefree_monomial():
    P = compute_P(specialized(3, "kill_s"))
    assert P == parse_poly("x_1_1*x_1_2*x_2_1", CTX3, ZZ)


def test_p_kill_s0_n3_five_terms():
    P = compute_P(specialized(3, "kill_s0"))
    expected = parse_poly(
        "-x_1_1*x_1_3*x_3_1 + x_1_1*x_1_2*x_2_1 - x_1_2*x_2_1*x_2_2"
        " + x_1_1*x_2_2^2 - x_1_1^2*x_2_2",
        CTX3,
        ZZ,
    )
    assert P == expected
    assert P.coefficient((1, 0, 1, 0, 0, 0, 1, 0, 0)) == -1  # x_1_1*x_1_3*x_3_1
    assert P.coefficient((1, 1, 0, 1, 0, 0, 0, 0, 0)) == 1  # x_1_1*x_1_2*x_2_1


def test_p_generic_n3_matches_permutation_expansion():
    X = generic_matrix(3)
    D = diag_matrix(X)
    assert compute_P(X) == perm_det_poly(D.rows, X.ctx, X.dom)
    assert compute_P(X).homogeneous_degree() == 3


def test_p_homogeneous_degree_small():
    for n in (1, 2, 3, 4):
        P = compute_P(generic_matrix(n))
        assert P.homogeneous_degree() == n * (n - 1) // 2


def test_p_generic_guard():
    with pytest.raises(SizeGuardError):
        compute_P(generic_matrix(6))
    # a silly forced 1x1 call goes through the force path
    assert compute_P(generic_matrix(1), force=True) == 1


def test_specialize_then_build_commutes_with_build_then_substitute():
    for n in (2, 3, 4):
        X = generic_matrix(n)
        P = compute_P(X)
        labels = [("kill_s", None), ("kill_s0", None), ("sop", None)] + [
            ("tilde", m) for m in ("row", "column", "both")
        ]
        for label, mode in labels:
            s = build_specialization(n, label, mode)
            assert compute_P(s.apply_to_matrix(X)) == s.apply(P), (n, label, mode)


# -- block factorization ------------------------------------------------------


def test_block_factorization_n2():
    assert verify_block_factorization(2, "both")


def test_block_factorization_all_modes_small():
    for n in (2, 3, 4):
        for mode in ("row", "column", "both"):
            assert verify_block_factorization(n, mode), (n, mode)


def test_block_factorization_matches_independent_expansion_n3():
    # both sides via permutation expansion, bypassing the subset-DP engine
    X = generic_matrix(3)
    ctx, dom = X.ctx, X.dom
    Xt = build_specialization(3, "tilde", "both").apply_to_matrix(X)
    lhs = perm_det_poly(diag_matrix(Xt).rows, ctx, dom)
    X0 = PolyMatrix([row[:2] for row in X.rows[:2]])
    p0 = perm_det_poly(diag_matrix(X0).rows, ctx, dom)
    c = X0.char_poly()
    x33 = MvPolynomial.variable(c.ctx, dom, "x_3_3")
    rhs = p0 * c.substitute({"t": x33}).with_context(ctx)
    assert lhs == rhs
    assert verify_block_factorization(3, "both")


def test_block_factorization_guard():
    with pytest.raises(SizeGuardError):
        verify_block_factorization(6)


# -- peeling identity ----------------------------------------------------------


def test_peeling_identity_small():
    for n in (3, 4):
        assert verify_peeling_identity(n), n


def test_peeling_identity_n3_explicit():
    # both sides reduce to the same single monomial
    lhs = compute_P(specialized(3, "kill_s"))
    block = PolyMatrix([row[:2] for row in specialized(3, "kill_s").rows[:2]])
    # the 2x2 block with its strict sub-anti-diagonal killed
    assert entry_texts(block) == [["x_1_1", "x_1_2"], ["x_2_1", "0"]]
    rhs0 = compute_P(block)
    assert rhs0 == parse_poly("-x_1_1", CTX3, ZZ)
    anti = parse_poly("x_1_2*x_2_1", CTX3, ZZ)
    assert lhs == rhs0 * anti * -1


def test_peeling_identity_guard():
    with pytest.raises(SizeGuardError):
        verify_peeling_identity(2)
    with pytest.raises(SizeGuardError):
        verify_peeling_identity(7)


# -- above-anti-diagonal coefficient -------------------------------------------


def test_antidiag_coeff_small_values():
    assert antidiag_unit_coeff(2, "kill_s") == -1
    assert antidiag_unit_coeff(2, "kill_s0") == -1
    assert antidiag_unit_coeff(3, "kill_s") == 1
    assert antidiag_unit_coeff(3, "kill_s0") == 1
    assert antidiag_unit_coeff(4, "kill_s") == 1
    assert antidiag_unit_coeff(4, "kill_s0") == 1


def test_antidiag_coeff_matches_full_determinant():
    # the bounded determinant and the full one agree on the target coefficient
    for n in (2, 3, 4):
        X = generic_matrix(n)
        target = _above_antidiag_exps(n, X.ctx)
        for label in ("kill_s", "kill_s0"):
            Xs = build_specialization(n, label).apply_to_matrix(X)
            full = perm_det_poly(diag_matrix(Xs).rows, X.ctx, X.dom)
            assert antidiag_unit_coeff(n, label) == full.coefficient(target)


def test_antidiag_coeff_unbounded_route_n5():
    X = generic_matrix(5)
    target = _above_antidiag_exps(5, X.ctx)
    for label in ("kill_s", "kill_s0"):
        Xs = build_specialization(5, label).apply_to_matrix(X)
        assert antidiag_unit_coeff(5, label) == compute_P(Xs).coefficient(target)


def test_antidiag_coeff_guard_and_arguments():
    with pytest.raises(SizeGuardError):
        antidiag_unit_coeff(7)
    with pytest.raises(ValueError):
        antidiag_unit_coeff(3, "sop")


# -- system-of-parameters normal form ------------------------------------------


def test_sop_normal_form_displayed_values():
    assert sop_normal_form(2) == SopNormalForm(sign=-1, exponent=1)
    assert sop_normal_form(3) == SopNormalForm(sign=1, exponent=3)
    assert sop_normal_form(4) == SopNormalForm(sign=-1, exponent=6)


def test_sop_normal_form_larger_sizes_match_permutation_expansion():
    for n in (5, 6):
        X = generic_matrix(n)
        Xs = build_specialization(n, "sop").apply_to_matrix(X)
        full = perm_det_poly(diag_matrix(Xs).rows, X.ctx, X.dom)
        nf = sop_normal_form(n)
        exps = [0] * len(X.ctx)
        exps[X.ctx.index("x_1_1")] = nf.exponent
        assert full == MvPolynomial.monomial(X.ctx, ZZ, exps, nf.sign)
        assert nf.exponent == n * (n - 1) // 2


def test_sop_intermediate_powers_n4():
    Xs = specialized(4, "sop")
    sq = Xs * Xs
    texts = entry_texts(sq)
    assert texts[0][0] == "3*x_1_1^2"
    assert texts[1][1] == "2*x_1_1^2"
    assert texts[2][2] == "x_1_1^2"
    cube = sq * Xs
    assert str(cube.rows[0][0]) == "6*x_1_1^3"


def test_sop_guard():
    with pytest.raises(SizeGuardError):
        sop_normal_form(7)


# -- F-purity cells -------------------------------------------------------------


def test_fpure_n3_p2_witness_is_squarefree_monomial():
    v = check_fpure(3, 2)
    assert v.fpure
    assert v.witness == (1, 1, 1)
    assert v.var_count == 3


def test_fpure_n2_any_prime():
    for p in (2, 3, 5, 7):
        v = check_fpure(2, p)
        assert v.fpure
        assert v.var_count == 1
        assert v.witness == (p - 1,)


def test_fpure_n4_p3():
    v = check_fpure(4, 3)
    assert v.fpure
    assert v.var_count == 6


def test_fpure_matches_bruteforce_small_cells():
    for (n, p) in ((2, 3), (3, 2), (3, 3), (3, 5)):
        X = generic_matrix(n)
        f = compute_P(build_specialization(n, "kill_s").apply_to_matrix(X))
        names = [
            f"x_{i}_{j}"
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i + j <= n
        ]
        g = f.with_context(VarContext(names)).with_domain(GF(p))
        brute = frobenius_power_bruteforce(g, p)
        v = check_fpure(n, p)
        assert v.fpure == bool(brute.terms)
        if v.fpure:
            assert v.witness in brute.terms


def test_fpure_guards():
    with pytest.raises(SizeGuardError):
        check_fpure(6, 2)
    with pytest.raises(SizeGuardError):
        check_fpure(3, 11)
    with pytest.raises(SizeGuardError):
        check_fpure(5, 7)
