"""Fedder-criterion engine: the membership test and its half-power route,
cross-checked against brute force."""

import random

import pytest

from diagvar.diagvariety import _killed_P, check_fpure, var
from diagvar.errors import ContextError, DomainError
from diagvar.fpurity import fedder_check
from diagvar.guards import WINDOWS
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, parse_poly
from oracles import frobenius_power_bruteforce, random_poly

CTX = VarContext(["x_1_1", "x_1_2", "x_2_1"])


def P(text, dom=ZZ):
    return parse_poly(text, CTX, dom)


def test_squarefree_monomial_is_fpure_with_full_witness():
    f = P("x_1_1*x_1_2*x_2_1")
    v = fedder_check(f, 5)
    assert v.fpure
    assert v.witness == (4, 4, 4)
    assert v.p == 5
    assert v.var_count == 3


def test_square_is_not_fpure_at_p2():
    v = fedder_check(P("x_1_1^2"), 2)
    assert not v.fpure
    assert v.witness is None


def test_sum_of_squares_is_not_fpure_at_p2():
    assert not fedder_check(P("x_1_1^2 + x_1_2^2"), 2).fpure


def test_fedder_rejects_zero():
    with pytest.raises(ValueError):
        fedder_check(MvPolynomial.zero(CTX, ZZ), 3)


def test_fedder_rejects_wrong_field():
    with pytest.raises(DomainError):
        fedder_check(P("x_1_1", GF(3)), 5)


def test_fedder_witness_lies_in_reduced_power():
    f = P("x_1_1 + x_1_2*x_2_1")
    for p in (2, 3, 5):
        v = fedder_check(f, p)
        if v.fpure:
            g = frobenius_power_bruteforce(f, p)
            assert v.witness in g.terms
            assert all(e <= p - 1 for e in v.witness)


def test_fedder_agrees_with_bruteforce_randomized():
    rng = random.Random(3001)
    for _ in range(120):
        f = random_poly(rng, CTX, ZZ, max_terms=3, max_exp=3)
        if not f:
            continue
        for p in (2, 3):
            expected = bool(frobenius_power_bruteforce(f, p).terms)
            assert fedder_check(f, p).fpure == expected


def test_fast_homogeneous_route_agrees_with_bruteforce():
    # degree equals variable count, so only the all-(p-1) monomial survives
    cases = [
        "x_1_1*x_1_2*x_2_1",
        "x_1_1*x_1_2*x_2_1 + x_1_1^2*x_1_2",
        "x_1_1^3 + x_1_2^3 + x_2_1^3",
        "x_1_1^2*x_2_1 - x_1_2^3 + 2*x_1_1*x_1_2*x_2_1",
    ]
    for text in cases:
        f = P(text)
        for p in (3, 5, 7):
            brute = frobenius_power_bruteforce(f, p)
            v = fedder_check(f, p)
            assert v.fpure == bool(brute.terms), (text, p)
            if v.fpure:
                assert brute.terms == {(p - 1,) * 3: brute.terms[(p - 1,) * 3]}
                assert v.witness == (p - 1,) * 3


def test_capped_power_is_already_bracket_reduced():
    rng = random.Random(3002)
    for _ in range(60):
        f = random_poly(rng, CTX, ZZ, max_terms=3, max_exp=2)
        if not f:
            continue
        for p in (2, 3, 5):
            g = f.with_domain(GF(p)).pow_capped(p - 1, cap=p)
            assert all(e < p for m in g.terms for e in m)


def test_squarefree_unit_monomial_is_fpure_for_every_prime():
    rng = random.Random(3003)
    for _ in range(40):
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        if not any(exps):
            continue
        f = MvPolynomial(CTX, ZZ, {exps: rng.choice([1, -1])})
        for p in (2, 3, 5, 7):
            assert fedder_check(f, p).fpure


def killed(n, p):
    """check_fpure's input: the killed P over GF(p) in its survivors, and
    the survivors' (i, j)."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    f = _killed_P(n).with_context(VarContext(var(i, j) for i, j in cells)).with_domain(GF(p))
    return f, cells


def test_half_power_matches_a_split_power_on_the_killed_P():
    # the Fedder cell (5, 11): the coefficient of t in f^10, read off the
    # half power h = f^5 as in fedder_check, must equal the one read off
    # f^4 * f^6, powers formed by chains of other lengths
    p = 11
    f, cells = killed(5, p)
    t = (p - 1,) * len(cells)
    h = f.pow_capped(5, cap=p)
    assert h.mul_coefficient(h, t) == 1
    assert f.pow_capped(4, cap=p).mul_coefficient(f.pow_capped(6, cap=p), t) == 1


# x_1_1, x_1_2, x_2_1 as (i, j): -(i^2 + j^2) does not single out one top term
SQUARES = [-(i * i + j * j) for i, j in ((1, 1), (1, 2), (2, 1))]


def test_weight_changes_no_verdict_on_homogeneous_cubics():
    # degree 3 in 3 variables, so every p > 2 takes the pruned half-power route
    rng = random.Random(3004)
    cubics = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    for _ in range(60):
        f = MvPolynomial(CTX, ZZ, {m: rng.randint(-3, 3) for m in rng.sample(cubics, rng.randint(1, 4))})
        if not f:
            continue
        for p in (3, 5, 7, 11, 13):
            plain = fedder_check(f, p)
            for weight in ([rng.randint(-5, 5) for _ in range(3)], [0, 0, 0], SQUARES):
                assert fedder_check(f, p, weight=weight) == plain, (f, p, weight)


def test_fermat_cubic_is_fpure_iff_p_is_1_mod_3_under_every_weight():
    f = P("x_1_1^3 + x_1_2^3 + x_2_1^3")
    for p in (5, 7, 11, 13, 17, 19):
        for weight in (None, [3, -1, 2], [0, 0, 0], SQUARES):
            v = fedder_check(f, p, weight=weight)
            assert v.fpure == (p % 3 == 1), (p, weight)
            assert v.witness == ((p - 1,) * 3 if p % 3 == 1 else None)


def test_weight_changes_no_verdict_on_the_killed_P():
    rng = random.Random(3005)
    w = WINDOWS["fedder"]
    for n in range(w.lo, w.hi + 1):
        for p in w.primes + (11,):
            f, cells = killed(n, p)
            plain = fedder_check(f, p)
            for weight in ([rng.randint(-9, 9) for _ in cells], [0] * len(cells), [-(i * i + j * j) for i, j in cells]):
                assert fedder_check(f, p, weight=weight) == plain, (n, p, weight)


def test_pruned_check_fpure_agrees_with_the_unweighted_check():
    w = WINDOWS["fedder"]
    window = [(n, p) for n in range(w.lo, w.hi + 1) for p in w.primes if (n, p) not in w.skipped]
    for n, p in window + [(6, 2), (6, 3), (6, 5)]:
        assert check_fpure(n, p, force=True) == fedder_check(killed(n, p)[0], p), (n, p)


def test_check_fpure_6_7():
    # out of the window: without the weight this cell forms 142 million term pairs
    v = check_fpure(6, 7, force=True)
    assert v.fpure
    assert v.witness == (6,) * 15


def test_a_weight_must_match_the_variables():
    with pytest.raises(ContextError):
        fedder_check(P("x_1_1*x_1_2*x_2_1"), 5, weight=[1, 2])
