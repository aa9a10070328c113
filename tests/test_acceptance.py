"""Acceptance suite: one test per criterion, each with an exact check and a
wall-clock budget, printing one pass/fail line per criterion."""

import random
import time

from diagvar.diagvariety import (
    antidiag_unit_coeff,
    build_specialization,
    check_fpure,
    compute_P,
    generic_matrix,
    sop_normal_form,
    verify_block_factorization,
    verify_peeling_identity,
)
from diagvar.intlattice import (
    IntMatrix,
    antidiagonal_ones,
    power_diagonal_check,
    spans_Zn,
    verify_inverse_bands,
)
from diagvar.polymatrix import PolyMatrix
from diagvar.polyring import ZZ, VarContext, parse_poly
from oracles import (
    perm_det_int,
    perm_det_poly,
    pow_then_delete,
    random_poly,
    random_unimodular,
)


def _run(name: str, budget: float, body) -> None:
    t0 = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        dt = time.perf_counter() - t0
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s, budget {budget:.0f}s)")
    assert dt < budget, f"{name} exceeded its {budget}s budget ({dt:.2f}s)"


def test_criterion_1_displayed_value_regressions():
    def body():
        assert compute_P(generic_matrix(1)) == 1

        ctx2 = VarContext.matrix(2)
        assert compute_P(generic_matrix(2)) == parse_poly("x_2_2 - x_1_1", ctx2, ZZ)

        ctx3 = VarContext.matrix(3)
        X3 = generic_matrix(3)
        killed = build_specialization(3, "kill_s").apply_to_matrix(X3)
        assert compute_P(killed) == parse_poly("x_1_1*x_1_2*x_2_1", ctx3, ZZ)

        killed0 = build_specialization(3, "kill_s0").apply_to_matrix(X3)
        five = parse_poly(
            "-x_1_1*x_1_3*x_3_1 + x_1_1*x_1_2*x_2_1 - x_1_2*x_2_1*x_2_2"
            " + x_1_1*x_2_2^2 - x_1_1^2*x_2_2",
            ctx3,
            ZZ,
        )
        assert compute_P(killed0) == five

        assert (sop_normal_form(2).sign, sop_normal_form(2).exponent) == (-1, 1)
        assert (sop_normal_form(3).sign, sop_normal_form(3).exponent) == (1, 3)
        assert (sop_normal_form(4).sign, sop_normal_form(4).exponent) == (-1, 6)

    _run("criterion 1 (displayed-value regressions)", 1.0, body)


def test_criterion_2_block_factorization():
    def body():
        for n in range(2, 6):
            for mode in ("row", "column", "both"):
                assert verify_block_factorization(n, mode), (n, mode)

    _run("criterion 2 (corner-block factorization, n=2..5, all modes)", 30.0, body)


def test_criterion_3_peeling_identity():
    def body():
        for n in range(3, 6):
            assert verify_peeling_identity(n), n

    _run("criterion 3 (anti-diagonal peeling identity, n=3..5)", 30.0, body)


def test_criterion_4_antidiag_unit_coefficients():
    def body():
        for n in range(2, 7):
            for label in ("kill_s", "kill_s0"):
                assert abs(antidiag_unit_coeff(n, label)) == 1, (n, label)

    _run("criterion 4 (above-anti-diagonal coefficient is a unit, n=2..6)", 60.0, body)


def test_criterion_5_fpurity_cells():
    def body():
        for n in range(2, 6):
            for p in (2, 3, 5, 7):
                if (n, p) == (5, 7):
                    continue
                verdict = check_fpure(n, p)
                assert verdict.fpure, (n, p)

    _run("criterion 5 (F-purity of all 15 in-budget cells)", 300.0, body)


def test_criterion_6_inverse_band_forms():
    def body():
        for n in range(2, 13):
            rep = verify_inverse_bands(n)
            assert rep.b2, n
            assert rep.odd, n
            assert rep.span, n
            assert abs(rep.p_of_a) == 1, n

    _run("criterion 6 (inverse band closed forms, n=2..12)", 10.0, body)


def test_criterion_7_power_diagonal_equivalences():
    def body():
        rng = random.Random(20260811)
        for _ in range(200):
            n = rng.randint(2, 6)
            A = random_unimodular(rng, n)
            rep = power_diagonal_check(A)
            assert rep.a == rep.b, A
        for n in range(2, 9):
            rep = power_diagonal_check(antidiagonal_ones(n))
            assert rep.a == rep.b, n

    _run("criterion 7 (span equivalences, 200 random + ones family)", 60.0, body)


def test_criterion_8_oracle_equivalences():
    def body():
        rng = random.Random(20260812)
        ctx = VarContext.matrix(2)

        for _ in range(100):
            n = rng.randint(1, 4)
            M = PolyMatrix(
                [
                    [random_poly(rng, ctx, ZZ, max_terms=2, max_exp=2) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            assert M._det(None) == perm_det_poly(M.rows, ctx, ZZ)

        for _ in range(100):
            f = random_poly(rng, ctx, ZZ, max_terms=3, max_exp=3)
            k = rng.randint(0, 4)
            cap = rng.randint(1, 5)
            assert f.pow_capped(k, cap=cap) == pow_then_delete(f, k, cap)

        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert spans_Zn(rows) == (abs(perm_det_int(rows)) == 1)

    _run("criterion 8 (independent-oracle equivalences, 3 x 100 cases)", 60.0, body)


def test_criterion_9_structural_properties():
    def body():
        for n in range(1, 6):
            P = compute_P(generic_matrix(n))
            assert P.homogeneous_degree() == n * (n - 1) // 2, n

        for n in range(2, 5):
            X = generic_matrix(n)
            P = compute_P(X)
            labels = [("kill_s", None), ("kill_s0", None), ("sop", None)] + [
                ("tilde", m) for m in ("row", "column", "both")
            ]
            for label, mode in labels:
                s = build_specialization(n, label, mode)
                assert compute_P(s.apply_to_matrix(X)) == P.substitute(s.assignments), (n, label)

        rng = random.Random(20260813)
        from diagvar.intlattice import int_pow
        from diagvar.polyring import MvPolynomial

        ctx0 = VarContext([])
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
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

    _run("criterion 9 (degree, commutation, trace identities)", 60.0, body)
