"""Fedder-criterion engine: the membership test and its half-power route,
cross-checked against brute force."""

import random

import pytest

from diagvar.errors import DomainError
from diagvar.fpurity import fedder_check
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
        if f.is_zero:
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
        if f.is_zero:
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
