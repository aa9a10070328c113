"""Fedder-criterion engine: the membership test and the base it runs on,
the initial form under a weight where that is exact, cross-checked against
brute force and, on the killed P, against an unweighted split power read
off exponent tuples."""

import functools
import random
from itertools import product

import pytest

from diagvar import diagvariety, polyring
from diagvar.diagvariety import (
    _fedder_base,
    _killed_survivors,
    build_specialization,
    check_fpure,
    compute_P,
    generic_matrix,
    var,
)
from diagvar.errors import ContextError, DomainError
from diagvar.fpurity import FedderVerdict, fedder_check
from diagvar.guards import WINDOWS
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, parse_poly
from oracles import frobenius_power_bruteforce, random_poly, split_power_coefficient, tuple_with_context

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
    with pytest.raises(DomainError, match=r"from GF\(3\) to GF\(5\)"):
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


@functools.lru_cache(maxsize=None)
def killed_generic(n):
    """The killed P built in the full n-by-n context: kill_s applied to the
    generic matrix, not the survivors' matrix that check_fpure expands."""
    return compute_P(build_specialization(n, "kill_s").apply_to_matrix(generic_matrix(n)), force=True)


@functools.lru_cache(maxsize=None)
def killed(n, p):
    """check_fpure's input, by a route of its own: the killed P of the
    generic matrix restricted to its survivors, over GF(p), and the
    survivors' (i, j)."""
    cells = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n)
    f = tuple_with_context(killed_generic(n), VarContext(var(i, j) for i, j in cells)).with_domain(GF(p))
    return f, cells


@functools.lru_cache(maxsize=None)
def killed_coefficient(n, p, a=None):
    """The coefficient of t = (p-1, ..., p-1) in the killed P^(p-1), read
    off the unweighted split power f^a * f^(p-1-a) by exponent tuples."""
    return split_power_coefficient(killed(n, p)[0], p, a)


def unweighted_verdict(n, p):
    """fedder_check's verdict on the killed P, which is homogeneous of
    degree its variable count, so that t is the one monomial that can
    survive: F-pure with witness t iff killed_coefficient is nonzero."""
    f, cells = killed(n, p)
    assert all(sum(m) == len(cells) for m in f.terms)
    if killed_coefficient(n, p):
        return FedderVerdict(True, (p - 1,) * len(cells), p, len(cells))
    return FedderVerdict(False, None, p, len(cells))


def test_half_power_matches_a_split_power_on_the_killed_P():
    # the Fedder cell (5, 11): the coefficient of t in f^10, read off the
    # half powers f^5 * f^5, must equal the one read off f^4 * f^6, powers
    # formed by chains of other lengths, and check_fpure's power of the
    # initial form must keep t
    p = 11
    f, cells = killed(5, p)
    assert killed_coefficient(5, p) == 1
    assert killed_coefficient(5, p, a=4) == 1
    assert check_fpure(5, p, force=True) == (True, (p - 1,) * len(cells), p, len(cells))


def weigh(weight, m):
    return sum(a * b for a, b in zip(weight, m))


# x_1_1, x_1_2, x_2_1 as (i, j): -(i^2 + j^2) does not single out one top term
SQUARES = [-(i * i + j * j) for i, j in ((1, 1), (1, 2), (2, 1))]


def test_weight_changes_no_verdict_on_homogeneous_cubics():
    # degree 3 in 3 variables, so the base is in_w(f) wherever
    # x_1_1*x_1_2*x_2_1 is a top term, and f elsewhere
    rng = random.Random(3004)
    cubics = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    initial = 0
    for _ in range(60):
        f = MvPolynomial(CTX, ZZ, {m: rng.randint(-3, 3) for m in rng.sample(cubics, rng.randint(1, 4))})
        if not f:
            continue
        for weight in ([rng.randint(-5, 5) for _ in range(3)], [0, 0, 0], SQUARES):
            base = _fedder_base(f, weight)
            initial += base != f
            for p in (2, 3, 5, 7, 11, 13):
                assert fedder_check(base, p) == fedder_check(f, p), (f, p, weight)
    assert initial


def test_fermat_cubic_is_fpure_iff_p_is_1_mod_3_under_every_weight():
    # x_1_1*x_1_2*x_2_1 is not a term, so under every weight the base is f
    f = P("x_1_1^3 + x_1_2^3 + x_2_1^3")
    for weight in (None, [3, -1, 2], [0, 0, 0], SQUARES):
        base = f if weight is None else _fedder_base(f, weight)
        assert base is f
        for p in (5, 7, 11, 13, 17, 19):
            v = fedder_check(base, p)
            assert v.fpure == (p % 3 == 1), (p, weight)
            assert v.witness == ((p - 1,) * 3 if p % 3 == 1 else None)


def test_weight_changes_no_verdict_on_the_killed_P():
    rng = random.Random(3005)
    w = WINDOWS["fedder"]
    for n in range(w.lo, w.hi + 1):
        for p in w.primes + (11,):
            f, cells = killed(n, p)
            plain = unweighted_verdict(n, p)
            for weight in ([rng.randint(-9, 9) for _ in cells], [0] * len(cells), [-(i * i + j * j) for i, j in cells]):
                assert fedder_check(_fedder_base(f, weight), p) == plain, (n, p, weight)


def survivor_weight(f, fn):
    """fn(i, j) for each survivor x_i_j of f's context, in its order."""
    return [fn(int(i), int(j)) for i, j in (name.split("_")[1:] for name in f.ctx.names)]


@pytest.mark.parametrize("n, ties", [(4, 1), (5, 7), (6, 79)])
def test_a_weight_that_ties_m_keeps_every_top_term(n, ties):
    # under -(i^2 + j^2) no term of the killed P weighs more than the
    # product m of the survivors, but other terms weigh as much: the base
    # is in_w(P), m and those terms, and the verdict is still P's
    f, _ = _killed_survivors(n)
    weight = survivor_weight(f, lambda i, j: -(i * i + j * j))
    top = weigh(weight, (1,) * len(weight))
    assert max(weigh(weight, m) for m in f.terms) == top
    base = _fedder_base(f, weight)
    assert dict(base.terms) == {m: c for m, c in f.terms.items() if weigh(weight, m) == top}
    assert len(base.terms) == ties + 1
    # the oracle's half power at (6, 7) forms 142 million term pairs
    for p in (2, 3, 5, 7) if n < 6 else (2, 3, 5):
        assert fedder_check(base, p) == unweighted_verdict(n, p), (n, p)


@pytest.mark.parametrize("n, above", [(4, 4), (5, 31), (6, 1238)])
def test_a_weight_with_terms_above_m_falls_back_to_P(n, above):
    # under i*j every other term of the killed P weighs more than the
    # product m of the survivors, so the base is P itself
    f, _ = _killed_survivors(n)
    weight = survivor_weight(f, lambda i, j: i * j)
    top = weigh(weight, (1,) * len(weight))
    assert sum(weigh(weight, m) > top for m in f.terms) == above
    assert _fedder_base(f, weight) is f
    for p in (2, 3, 5) if n < 6 else (2, 3):
        assert fedder_check(f, p) == unweighted_verdict(n, p), (n, p)


def test_pruned_check_fpure_agrees_with_the_unweighted_check():
    w = WINDOWS["fedder"]
    window = [(n, p) for n in range(w.lo, w.hi + 1) for p in w.primes if (n, p) not in w.skipped]
    for n, p in window + [(6, 2), (6, 3), (6, 5)]:
        assert check_fpure(n, p, force=True) == unweighted_verdict(n, p), (n, p)


def test_weight_changes_no_verdict_or_witness_where_t_is_not_the_only_survivor():
    # where f is not homogeneous of degree its variable count, the base is f
    # under every weight: an initial form there could drop the surviving
    # terms, or change the leading one that is the witness.  Under (1, 1, 1)
    # the first f's initial form is 2*x_1_1*x_1_2*x_2_1, zero mod 2, while
    # f mod 2 is x_1_1, F-pure
    rng = random.Random(3006)
    by_degree = {d: [m for m in product(range(d + 1), repeat=3) if sum(m) == d] for d in (2, 4)}
    polys = [P("2*x_1_1*x_1_2*x_2_1 + x_1_1"), P("x_1_1*x_1_2*x_2_1 + x_1_1^2*x_1_2^2")]
    polys += [random_poly(rng, CTX, ZZ, max_terms=4, max_exp=2) for _ in range(40)]
    for monomials in by_degree.values():
        for _ in range(20):
            terms = {m: rng.randint(-3, 3) for m in rng.sample(monomials, rng.randint(1, 4))}
            polys.append(MvPolynomial(CTX, ZZ, terms))
    for f in polys:
        if not f or f.homogeneous_degree() == len(CTX):
            continue
        for weight in ([rng.randint(-5, 5) for _ in range(3)], [1, 0, 0], [1, 1, 1], SQUARES):
            base = _fedder_base(f, weight)
            for p in (2, 3, 5):
                assert fedder_check(base, p) == fedder_check(f, p), (f, p, weight)
            assert base is f, (f, weight)


def test_check_fpure_forms_p_minus_one_term_pairs(monkeypatch):
    # under -i*j the base is in_w(P) = +-m, one term, so each of the p - 1
    # products pairs one term with one
    for n in range(2, 7):
        _killed_survivors(n)
    pairs = []
    mul_into = polyring._mul_into

    def counting(out, ta, tb, *rest):
        pairs.append(len(ta) * len(tb))
        return mul_into(out, ta, tb, *rest)

    monkeypatch.setattr(polyring, "_mul_into", counting)
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            pairs.clear()
            assert check_fpure(n, p, force=True).fpure, (n, p)
            assert pairs == [1] * (p - 1), (n, p)


def test_the_initial_form_is_read_once_per_n(monkeypatch):
    # the base is cached with P: check_fpure at four primes reads one
    # initial form per n
    calls = []
    initial_form = MvPolynomial.initial_form

    def counting(f, weight):
        calls.append(len(f.ctx))
        return initial_form(f, weight)

    monkeypatch.setattr(MvPolynomial, "initial_form", counting)
    monkeypatch.setattr(diagvariety, "_killed_survivors", functools.lru_cache(_killed_survivors.__wrapped__))
    for n in range(2, 6):
        for p in (2, 3, 5, 7):
            check_fpure(n, p, force=True)
    assert calls == [1, 3, 6, 10]


@pytest.mark.parametrize("n", range(3, 7))
def test_half_power_of_the_killed_P_is_the_top_term_alone(n):
    # m, the product of the survivors, is the only term of in_w(P) under
    # -i*j, with coefficient +-1, so the half power of the base is c^k * m^k
    f, base = _killed_survivors(n)
    nvars = len(f.ctx)
    for p in (3, 5, 7):
        k = (p - 1) // 2
        h = base.with_domain(GF(p)).pow_capped(k, cap=p)
        ((m, c),) = h.terms.items()
        assert m == (k,) * nvars, (n, p)
        assert c in (1, p - 1), (n, p)


def test_check_fpure_6_7():
    # out of the window: on P instead of its initial form this cell forms
    # 142 million term pairs
    v = check_fpure(6, 7, force=True)
    assert v.fpure
    assert v.witness == (6,) * 15


def test_the_fedder_path_reads_no_exponent_tuples(monkeypatch):
    # the killed P, its initial form and the truncated power work on packed
    # keys alone; an exponent tuple read anywhere on them fails here
    def no_tuples(f):
        raise AssertionError("exponent tuples read on the Fedder path")

    monkeypatch.setattr(MvPolynomial, "terms", property(no_tuples))
    _, base = _killed_survivors.__wrapped__(5)
    for p in (3, 5, 7, 11):
        assert fedder_check(base, p) == check_fpure(5, p, force=True)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", ["x_1_1*x_1_2*x_2_1", "x_1_1 + x_1_2*x_2_1"], ids=["homogeneous", "inhomogeneous"])
def test_a_weight_must_match_the_variables(text, p):
    # the homogeneous cubic may take its initial form and the inhomogeneous
    # f never does, but both reject a weight of the wrong length
    for weight in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ContextError):
            _fedder_base(P(text, GF(p)), weight)
