"""Polynomial core: parsing, formatting, arithmetic, capped powers,
substitution, and the canonical-form contracts."""

import math
import random

import pytest

from diagvar.errors import ContextError, DomainError, PolyParseError
from diagvar.polyring import (
    GF,
    ZZ,
    Domain,
    MvPolynomial,
    VarContext,
    _is_prime,
    _pack,
    _unpack,
    format_poly,
    parse_poly,
)
from oracles import pow_then_delete, random_poly

CTX2 = VarContext.matrix(2)
CTX3 = VarContext.matrix(3)


def P(text, ctx=CTX2, dom=ZZ):
    return parse_poly(text, ctx, dom)


# -- domains -------------------------------------------------------------


def test_domain_prime_validation():
    GF(2)
    GF(3)
    GF(2**31 - 1)
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(DomainError):
            GF(bad)


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, limit, d))
    assert [_is_prime(p) for p in range(limit)] == sieve
    assert _is_prime(2**31 - 1)
    assert not _is_prime(46337**2)  # 2147117569, the square of a prime


def test_domain_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert ZZ == Domain()
    assert ZZ != GF(2)


# -- contexts ------------------------------------------------------------


def test_matrix_context_order():
    assert CTX2.names == ("x_1_1", "x_1_2", "x_2_1", "x_2_2")


def test_context_rejects_duplicates():
    with pytest.raises(ContextError):
        VarContext(["a", "a"])


def test_unknown_variable():
    with pytest.raises(ContextError):
        CTX2.index("x_3_1")


# -- parsing -------------------------------------------------------------


def test_parse_difference_of_variables():
    f = P("x_2_2 - x_1_1")
    assert f.terms == {(0, 0, 0, 1): 1, (1, 0, 0, 0): -1}


def test_parse_zero():
    assert P("0").terms == {}


def test_parse_squarefree_cubic():
    f = P("x_1_1*x_1_2*x_2_1", CTX3)
    assert f.terms == {(1, 1, 0, 1, 0, 0, 0, 0, 0): 1}


def test_parse_coefficients_and_powers():
    f = P("3*x_1_1^2 - 2*x_2_2 + 7")
    assert f.terms == {(2, 0, 0, 0): 3, (0, 0, 0, 1): -2, (0, 0, 0, 0): 7}


def test_parse_leading_minus():
    assert P("-x_1_1") == -P("x_1_1")


def test_parse_combines_like_terms():
    assert P("x_1_1 + x_1_1") == P("2*x_1_1")
    assert P("x_1_1 - x_1_1").terms == {}


def test_parse_repeated_factor_multiplies():
    assert P("x_1_1*x_1_1") == P("x_1_1^2")


def test_parse_modp_reduces():
    f = P("5*x_1_1 + 3", dom=GF(3))
    assert f.terms == {(1, 0, 0, 0): 2}


def test_parse_errors_report_position():
    with pytest.raises(PolyParseError) as e:
        P("x_1_1 + $")
    assert e.value.position == 8
    with pytest.raises(PolyParseError):
        P("")
    with pytest.raises(PolyParseError):
        P("x_1_1 x_2_2")
    with pytest.raises(PolyParseError):
        P("2*3")
    with pytest.raises(PolyParseError):
        P("x_1_1^0")
    with pytest.raises(PolyParseError):
        P("x_1_1^-2")
    with pytest.raises(ContextError):
        P("x_9_9")
    with pytest.raises(ContextError):
        P("t")


# -- formatting ----------------------------------------------------------


def test_format_zero():
    assert format_poly(MvPolynomial.zero(CTX2, ZZ)) == "0"


def test_format_degree_tie_orders_row_major():
    f = MvPolynomial(CTX2, ZZ, {(0, 0, 0, 1): 1, (1, 0, 0, 0): -1})
    assert format_poly(f) == "-x_1_1 + x_2_2"


def test_format_degree_descends():
    assert format_poly(P("x_1_1 + x_1_1^2")) == "x_1_1^2 + x_1_1"


def test_format_constants_and_units():
    assert format_poly(P("1")) == "1"
    assert format_poly(P("-1")) == "-1"
    assert format_poly(P("-x_1_1 - 1")) == "-x_1_1 - 1"
    assert format_poly(P("2*x_1_1^3*x_2_2")) == "2*x_1_1^3*x_2_2"


def test_format_five_term_specialized_polynomial():
    text = (
        "-x_1_1^2*x_2_2 + x_1_1*x_1_2*x_2_1 - x_1_1*x_1_3*x_3_1"
        " + x_1_1*x_2_2^2 - x_1_2*x_2_1*x_2_2"
    )
    f = P(text, CTX3)
    assert format_poly(f) == text
    assert "x_1_1*x_2_2^2" in format_poly(f)


def test_parse_format_round_trip_randomized():
    rng = random.Random(1001)
    for dom in (ZZ, GF(5)):
        for _ in range(150):
            f = random_poly(rng, CTX3, dom, max_terms=6, max_exp=3, coeff_range=9)
            assert parse_poly(format_poly(f), CTX3, dom) == f


# -- ring arithmetic -----------------------------------------------------


def test_additive_identity():
    f = P("x_1_1*x_2_2 - 3")
    assert f + MvPolynomial.zero(CTX2, ZZ) == f


def test_variable_product():
    assert P("x_1_1") * P("x_1_2") == P("x_1_1*x_1_2")


def test_characteristic_two_cancellation():
    x = P("x_1_1", dom=GF(2))
    assert (x + x).terms == {}


def test_context_mismatch_raises():
    with pytest.raises(ContextError):
        P("x_1_1") + P("x_1_1", CTX3)
    with pytest.raises(DomainError):
        P("x_1_1") * P("x_1_1", dom=GF(3))


def test_scalar_multiplication():
    assert 3 * P("x_1_1") == P("3*x_1_1")
    assert P("x_1_1") * -1 == P("-x_1_1")


def test_int_minus_polynomial():
    assert 1 - P("x_1_1") == P("1 - x_1_1")
    assert 2 - P("x_1_1 + 2", dom=GF(3)) == P("2*x_1_1", dom=GF(3))


def test_ring_axioms_randomized():
    rng = random.Random(1002)
    ctx = VarContext.matrix(2)  # 4 variables
    one = MvPolynomial.one(ctx, ZZ)
    zero = MvPolynomial.zero(ctx, ZZ)
    for _ in range(120):
        f = random_poly(rng, ctx, ZZ, max_terms=4, max_exp=2)
        g = random_poly(rng, ctx, ZZ, max_terms=4, max_exp=2)
        h = random_poly(rng, ctx, ZZ, max_terms=4, max_exp=2)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f
        assert f * one == f
        assert f - f == zero


def test_modp_results_are_canonical():
    rng = random.Random(1003)
    dom = GF(7)
    for _ in range(80):
        f = random_poly(rng, CTX2, dom, coeff_range=30)
        g = random_poly(rng, CTX2, dom, coeff_range=30)
        for h in (f + g, f - g, f * g, -f, f.pow_capped(3, cap=4)):
            assert all(0 < c < 7 for c in h.terms.values())


# -- capped powers -------------------------------------------------------


def test_pow_zero_is_one():
    f = P("x_1_1 + x_2_2")
    assert f.pow_capped(0) == MvPolynomial.one(CTX2, ZZ)
    assert f.pow_capped(0, cap=1) == MvPolynomial.one(CTX2, ZZ)


def test_binomial_square_capped():
    f = P("x_1_1 + x_1_2")
    assert f.pow_capped(2, cap=2) == P("2*x_1_1*x_1_2")


def test_capped_power_of_squarefree_cubic_is_nonzero():
    f = P("x_1_1*x_1_2*x_2_1", CTX3)
    for p in (2, 3, 5):
        capped = f.pow_capped(p - 1, cap=p)
        assert capped == pow_then_delete(f, p - 1, p)
        assert capped.terms


def test_pow_capped_matches_delete_after_power_randomized():
    rng = random.Random(1004)
    ctx = VarContext.matrix(2)
    for _ in range(120):
        f = random_poly(rng, ctx, ZZ, max_terms=3, max_exp=3)
        k = rng.randint(0, 4)
        cap = rng.randint(1, 5)
        assert f.pow_capped(k, cap=cap) == pow_then_delete(f, k, cap)


def test_pow_capped_rejects_bad_arguments():
    f = P("x_1_1")
    with pytest.raises(ValueError):
        f.pow_capped(-1)
    with pytest.raises(ValueError):
        f.pow_capped(2, cap=0)


def test_large_exponents_widen_the_field():
    f = P("x_1_1 + x_2_2")
    g = f.pow_capped(200)
    assert g.coefficient((200, 0, 0, 0)) == 1
    assert g.coefficient((0, 0, 0, 200)) == 1
    assert len(g.terms) == 201


# -- substitution --------------------------------------------------------


def test_substitute_kills_variable():
    f = P("x_2_2 - x_1_1")
    zero = MvPolynomial.zero(CTX2, ZZ)
    assert f.substitute({"x_2_2": zero}) == P("-x_1_1")


def test_substitute_identifies_variables():
    f = P("x_1_1*x_1_2*x_2_1", CTX3)
    x11 = MvPolynomial.variable(CTX3, ZZ, "x_1_1")
    assert f.substitute({"x_1_2": x11, "x_2_1": x11}) == P("x_1_1^3", CTX3)


def test_substitute_identity_map():
    f = P("x_1_1^2 - 3*x_2_2")
    idmap = {name: MvPolynomial.variable(CTX2, ZZ, name) for name in CTX2.names}
    assert f.substitute(idmap) == f


def test_substitute_is_ring_homomorphism_randomized():
    rng = random.Random(1005)
    for _ in range(60):
        f = random_poly(rng, CTX2, ZZ, max_terms=3, max_exp=2)
        g = random_poly(rng, CTX2, ZZ, max_terms=3, max_exp=2)
        s = {
            "x_1_1": random_poly(rng, CTX2, ZZ, max_terms=2, max_exp=1),
            "x_2_2": random_poly(rng, CTX2, ZZ, max_terms=2, max_exp=1),
        }
        assert (f + g).substitute(s) == f.substitute(s) + g.substitute(s)
        assert (f * g).substitute(s) == f.substitute(s) * g.substitute(s)


def test_substitute_unknown_variable_raises():
    with pytest.raises(ContextError):
        P("x_1_1").substitute({"x_9_9": MvPolynomial.one(CTX2, ZZ)})


# -- queries -------------------------------------------------------------


def test_coefficient_lookup():
    f = P("x_1_1*x_1_2*x_2_1", CTX3)
    assert f.coefficient((1, 1, 0, 1, 0, 0, 0, 0, 0)) == 1
    assert f.coefficient((0, 0, 0, 0, 0, 0, 0, 0, 1)) == 0


def test_homogeneous_degree():
    assert P("x_2_2 - x_1_1").homogeneous_degree() == 1
    assert P("x_1_1 + x_1_1^2").homogeneous_degree() is None
    assert P("5").homogeneous_degree() == 0
    with pytest.raises(ValueError):
        P("0").homogeneous_degree()


def test_degree_past_the_per_variable_bound():
    # arity * e = 381 >= 255, and the OR of the keys has degree 255 too, so
    # only the byte sums give the degree: key % 255 reads 0
    f = MvPolynomial(VarContext(["a", "b", "c"]), ZZ, {(127, 127, 1): 1})
    assert (f._w, f.total_degree(), f.homogeneous_degree()) == (8, 255, 255)


def test_leading_monomial_grevlex():
    ctx = VarContext(["a_1_1", "a_1_2", "a_2_1"])
    # same degree: the monomial avoiding the last variable wins
    f = MvPolynomial(ctx, ZZ, {(1, 1, 0): 1, (1, 0, 1): 1})
    assert f.leading_monomial() == (1, 1, 0)
    g = MvPolynomial(ctx, ZZ, {(2, 0, 0): 1, (0, 1, 1): 5})
    assert g.leading_monomial() == (2, 0, 0)


# -- domain moves ---------------------------------------------------------


def test_with_domain_reduces_mod_p():
    f = P("6*x_1_1 + 5")
    g = f.with_domain(GF(3))
    assert g == P("2", dom=GF(3))
    assert f == P("6*x_1_1 + 5")
    with pytest.raises(DomainError, match=r"from GF\(3\) to ZZ"):
        g.with_domain(ZZ)


# -- shared-value concurrency ---------------------------------------------


def test_concurrent_use_of_shared_values_is_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(1006)
    f = random_poly(rng, CTX3, ZZ, max_terms=8, max_exp=3)
    g = random_poly(rng, CTX3, ZZ, max_terms=8, max_exp=3)
    expected = f * g
    cube = f.pow_capped(3, cap=4)
    with ThreadPoolExecutor(max_workers=8) as pool:
        products = list(pool.map(lambda _: f * g, range(32)))
        cubes = list(pool.map(lambda _: f.pow_capped(3, cap=4), range(32)))
    assert all(h == expected for h in products)
    assert all(h == cube for h in cubes)


@pytest.mark.parametrize("w", [8, 16])
def test_unpack_matches_the_per_field_read(w):
    rng = random.Random(w)
    field = (1 << w) - 1
    for arity in (1, 3, 9):
        exps = [(0,) * arity, (field,) * arity] + [
            tuple(rng.randrange(field + 1) for _ in range(arity)) for _ in range(50)
        ]
        for m in exps:
            key = _pack(m, w)
            per_field = tuple((key >> (w * i)) & field for i in range(arity))
            assert _unpack(key, w, arity) == per_field == m
