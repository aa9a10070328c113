"""Fedder-criterion engine: the membership test and the base it runs on,
the initial form under a weight where that is exact, cross-checked against
brute force and, on the killed P, against an unweighted split power read
off exponent tuples.  The certificate that check_fpure's base is in_w(P)
is checked against the full-P route of the oracles, and must refuse
every weight and matrix its hypotheses exclude."""

import functools
import math
import random
from itertools import combinations, permutations, product

import pytest

from diagvar import cli, diagvariety, polyring
from diagvar.diagvariety import (
    _fpure_certificate,
    _killed_matrix,
    _P_parts,
    _top_permutations,
    antidiag_unit_coeff,
    build_specialization,
    check_fpure,
    compute_P,
    generic_matrix,
    var,
)
from diagvar.errors import ContextError, DiagvarError, DomainError
from diagvar.fpurity import FedderVerdict, fedder_check
from diagvar.guards import WINDOWS
from diagvar.polymatrix import PolyMatrix
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, parse_poly
from oracles import (
    _fedder_base,
    _killed_survivors,
    frobenius_power_bruteforce,
    random_poly,
    split_power_coefficient,
    tuple_with_context,
)

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
        _fpure_certificate(n)
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


def test_c_of_the_killed_matrix_is_built_once_per_n(monkeypatch):
    # the certificate is cached per n: check_fpure at four primes builds
    # one C per n, and never expands a determinant of the killed P
    built = []
    c_matrix = diagvariety._c_matrix

    def counting(M, *args):
        built.append(M.n)
        return c_matrix(M, *args)

    def expanded(*args, **kwargs):
        raise AssertionError("a determinant expanded on the Fedder path")

    monkeypatch.setattr(diagvariety, "_c_matrix", counting)
    monkeypatch.setattr(diagvariety, "compute_P", expanded)
    monkeypatch.setattr(PolyMatrix, "_det_parts", expanded)
    monkeypatch.setattr(diagvariety, "_fpure_certificate", functools.lru_cache(_fpure_certificate.__wrapped__))
    for n in range(2, 6):
        for p in (2, 3, 5, 7):
            check_fpure(n, p, force=True)
    assert built == [2, 3, 4, 5]


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
    # the certificate's C and initial forms, the oracles' killed P and its
    # initial form, and the truncated power work on packed keys alone; an
    # exponent tuple read anywhere on them fails here
    def no_tuples(f):
        raise AssertionError("exponent tuples read on the Fedder path")

    monkeypatch.setattr(MvPolynomial, "terms", property(no_tuples))
    monkeypatch.setattr(diagvariety, "_fpure_certificate", functools.lru_cache(_fpure_certificate.__wrapped__))
    _, base = _killed_survivors.__wrapped__(5)
    for p in (3, 5, 7, 11):
        assert fedder_check(base, p) == check_fpure(5, p, force=True) == (True, (p - 1,) * 10, p, 10)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", ["x_1_1*x_1_2*x_2_1", "x_1_1 + x_1_2*x_2_1"], ids=["homogeneous", "inhomogeneous"])
def test_a_weight_must_match_the_variables(text, p):
    # the homogeneous cubic may take its initial form and the inhomogeneous
    # f never does, but both reject a weight of the wrong length
    for weight in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ContextError):
            _fedder_base(P(text, GF(p)), weight)


def survivor_product(n, c=1):
    """c * m, m the product of the kill_s survivors, in their ring."""
    ctx = VarContext(var(i, j) for i, j in diagvariety._kept(n, "kill_s"))
    return MvPolynomial.monomial(ctx, ZZ, (1,) * len(ctx), c)


def certified_coefficient(n):
    """c of the certified in_w(P) = c * m."""
    base = _fpure_certificate(n)[0]
    return base.coefficient((1,) * len(base.ctx))


@pytest.mark.parametrize("n", range(1, 8))
def test_the_certificate_base_is_the_full_P_base(n):
    # the oracles' route expands the killed P and reads its initial form;
    # the certificate reads only C's entries, and the two bases agree
    base, wm, _ = _fpure_certificate(n)
    assert base == _killed_survivors(n)[1]
    assert base in (survivor_product(n, 1), survivor_product(n, -1))
    assert wm == sum(-i * j for i, j in diagvariety._kept(n, "kill_s"))


def test_the_certificate_coefficient_is_the_antidiag_coefficient():
    # m is the target of antidiag_unit_coeff under kill_s, and the peeling
    # identity gives the same coefficient from kill_s0 one size down
    for n in range(1, 8):
        c = certified_coefficient(n)
        if n <= 6:
            assert c == antidiag_unit_coeff(n, "kill_s", force=True), n
        if n >= 2:
            sign = -1 if n * (n - 1) // 2 % 2 else 1
            assert c == sign * antidiag_unit_coeff(n - 1, "kill_s0", force=True), n


def test_the_top_weight_is_minus_binomial_n_plus_2_over_4():
    for n in range(1, 12):
        _, wm, gap = _fpure_certificate(n)
        assert wm == -math.comb(n + 2, 4), n
        # up to n = 3 every other permutation of C meets a zero entry
        assert gap is None if n <= 3 else gap > 0, (n, gap)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_forced_check_fpure_past_the_window_expands_no_determinant(n, monkeypatch):
    def expanded(*args, **kwargs):
        raise AssertionError("a determinant expanded on the Fedder path")

    monkeypatch.setattr(diagvariety, "compute_P", expanded)
    monkeypatch.setattr(PolyMatrix, "_det_parts", expanded)
    monkeypatch.setattr(diagvariety, "_fpure_certificate", functools.lru_cache(_fpure_certificate.__wrapped__))
    nvars = n * (n - 1) // 2
    for p in (2, 3, 5, 7):
        assert check_fpure(n, p, force=True) == (True, (p - 1,) * nvars, p, nvars), (n, p)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_certificate_refuses_a_weight_that_ties_m(n):
    # under -(i^2 + j^2) other terms of P weigh as much as m (see
    # test_a_weight_that_ties_m_keeps_every_top_term); the ties show in a
    # diagonal entry of C whose initial form has several terms
    with pytest.raises(DiagvarError, match=r"in_w\(C\[2\]\[2\]\) is not one term"):
        _fpure_certificate(n, lambda i, j: -(i * i + j * j))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_certificate_refuses_a_weight_with_terms_above_m(n):
    with pytest.raises(DiagvarError, match="the identity is not a top-weight permutation"):
        _fpure_certificate(n, lambda i, j: i * j)


def cell_weight(n, values):
    """A weight given by its value at each kill_s survivor, in row-major order."""
    return dict(zip(diagvariety._kept(n, "kill_s"), values)).__getitem__


def test_the_certificate_refuses_permutations_tied_at_the_top():
    # every survivor weighs -2 but x_2_1, which weighs -1: the identity and
    # one other permutation of C reach the top weight, each diagonal entry
    # has one top term and they multiply to m, yet in_w(P) has two terms
    weight = cell_weight(4, (-2, -2, -2, -1, -2, -2))
    with pytest.raises(DiagvarError, match="2 permutations of C reach the top weight"):
        _fpure_certificate.__wrapped__(4, lambda i, j: weight((i, j)))
    f, _ = _killed_survivors(4)
    assert len(f.initial_form([weight(c) for c in diagvariety._kept(4, "kill_s")]).terms) == 2


def test_the_certificate_refuses_a_diagonal_that_misses_m():
    # every survivor weighs -2 but x_1_1, which weighs -1: the identity is
    # the one top permutation of C and each diagonal entry has one top
    # term, but their product is not m, and m is not a term of in_w(P)
    weight = cell_weight(4, (-1, -2, -2, -2, -2, -2))
    with pytest.raises(DiagvarError, match="multiply to a term other than"):
        _fpure_certificate.__wrapped__(4, lambda i, j: weight((i, j)))
    f, _ = _killed_survivors(4)
    top = f.initial_form([weight(c) for c in diagvariety._kept(4, "kill_s")])
    assert not top.coefficient((1,) * 6)


def test_the_certificate_refuses_a_c_that_is_not_homogeneous(monkeypatch):
    # x_1_1 + x_1_1^2 in place of x_1_1 keeps every initial form of C, so
    # every other check passes, but P is no longer homogeneous
    def inhomogeneous(n, label):
        M, cells = _killed_matrix(n, label)
        x = M.rows[0][0]
        rows = [list(row) for row in M.rows]
        rows[0][0] = x + x * x
        return PolyMatrix(rows), cells

    monkeypatch.setattr(diagvariety, "_killed_matrix", inhomogeneous)
    with pytest.raises(DiagvarError, match="row 1 of C is not homogeneous of degree 1"):
        _fpure_certificate.__wrapped__(4)


def test_a_refused_certificate_makes_the_cli_exit_2(monkeypatch, capsys):
    # work the certificate cannot do is an error, never a "not F-pure"
    wrong = functools.lru_cache(lambda n: _fpure_certificate.__wrapped__(n, lambda i, j: i * j))
    monkeypatch.setattr(diagvariety, "_fpure_certificate", wrong)
    assert cli.main(["fedder", "--n", "4", "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert not out and "fedder certificate at n = 4" in err


def brute_top_permutations(a):
    """_top_permutations' triple, by summing every permutation."""
    picks = {s: [a[r][k] for r, k in enumerate(s)] for s in permutations(range(len(a)))}
    sums = {s: sum(xs) for s, xs in picks.items() if None not in xs}
    top = max(sums.values(), default=None)
    others = [x for s, x in sums.items() if s != tuple(range(len(a)))]
    return top, sum(x == top for x in sums.values()), max(others, default=None)


def test_top_permutations_counts_every_permutation_at_the_top():
    assert _top_permutations([[0, 0], [0, 0]]) == (0, 2, 0)
    assert _top_permutations([[0] * 3] * 3) == (0, 6, 0)
    assert _top_permutations([[1, 0], [0, 1]]) == (2, 1, 0)
    assert _top_permutations([[0, 1], [1, 0]]) == (2, 1, 2)
    assert _top_permutations([[5, None], [None, 7]]) == (12, 1, None)
    assert _top_permutations([[None, None], [0, 0]]) == (None, 0, None)
    assert _top_permutations([]) == (0, 1, None)
    rng = random.Random(3007)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.choice((None, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        assert _top_permutations(a) == brute_top_permutations(a), a


def reversal_bound(S):
    """-sum s_i * s_(r+1-i) over the sorted set S: by the rearrangement
    inequality, the largest weight -sum i * s(i) of a permutation s of S."""
    s = sorted(S)
    return -sum(a * b for a, b in zip(s, reversed(s)))


def test_the_rearrangement_bound_of_each_entry_of_c():
    # in integers alone: U[r][k] is the bound at the r smallest indices
    # other than k + 1 (1-based), -C(r+2, 3) when k >= r and below it when
    # k < r, so every permutation but the identity sums below the diagonal
    for n in range(1, 17):
        U = [[reversal_bound([i for i in range(1, n + 1) if i != k + 1][:r]) for k in range(n)] for r in range(n)]
        for r in range(n):
            for k in range(n):
                if k >= r:
                    assert U[r][k] == -math.comb(r + 2, 3), (n, r, k)
                else:
                    assert U[r][k] < U[r][r], (n, r, k)
        if n <= 8:
            assert _top_permutations(U)[:2] == (sum(U[r][r] for r in range(n)), 1), n
    # the bound is the largest weight over every r-set S without k + 1 and
    # every permutation of it, reached only by reversing the r smallest
    for n in range(1, 7):
        for r in range(n):
            for k in range(n):
                best = []
                for S in combinations([i for i in range(1, n + 1) if i != k + 1], r):
                    for s in permutations(S):
                        best.append((-sum(i * j for i, j in zip(S, s)), s))
                top = max(x for x, _ in best)
                S0 = [i for i in range(1, n + 1) if i != k + 1][:r]
                assert top == reversal_bound(S0)
                assert [s for x, s in best if x == top] == [tuple(reversed(S0))]


def test_the_diagonal_top_weights_of_c_reach_the_rearrangement_bound(monkeypatch):
    # the top weight a[r][k] of each entry of C lies at or below U[r][k],
    # and reaches it on the diagonal
    seen = []
    top_permutations = diagvariety._top_permutations
    monkeypatch.setattr(diagvariety, "_top_permutations", lambda a: seen.append(a) or top_permutations(a))
    for n in range(1, 9):
        _fpure_certificate.__wrapped__(n)
        a = seen.pop()
        for r in range(n):
            for k in range(n):
                bound = reversal_bound([i for i in range(1, n + 1) if i != k + 1][:r])
                assert a[r][k] is None or a[r][k] <= bound, (n, r, k)
            assert a[r][r] == -math.comb(r + 2, 3), (n, r)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_coefficient_of_m_carries_over_to_the_generic_P(n):
    # killing variables keeps every monomial in the survivors, so m has the
    # same coefficient in the generic P as in the killed one
    X = generic_matrix(n)
    above = set(diagvariety._kept(n, "kill_s"))
    m = tuple(int(c in above) for c in diagvariety._kept(n))
    total = sum(part.coefficient(m) for part in _P_parts(X, n, force=True))
    assert total == certified_coefficient(n)


def square_coefficient(f, m):
    """The coefficient of m in f^2, as the tuple sum of f[a] * f[m - a]."""
    terms = dict(f.terms.items())
    return sum(c * terms.get(tuple(x - y for x, y in zip(m, a)), 0) for a, c in terms.items())


@pytest.mark.parametrize("n", range(1, 5))
def test_the_coefficient_of_m_squared_carries_over_to_the_generic_P_squared(n):
    # the same at p = 3, over Z and so mod 3: m^2 = m^(p-1) has the same
    # coefficient in the generic P^2 as in the killed P^2, where it is
    # c^2 = 1 as m is the one top term
    P = compute_P(generic_matrix(n), force=True)
    above = set(diagvariety._kept(n, "kill_s"))
    m2 = tuple(2 * int(c in above) for c in diagvariety._kept(n))
    assert square_coefficient(P, m2) == square_coefficient(_killed_survivors(n)[0], (2,) * len(above)) == 1
