"""Property tests of the polynomial ring.  Exponents are drawn on both sides
of the packing limits (127/128 for 8-bit fields, 32767/32768 for 16-bit
ones), so products re-pack their operands at a wider field width."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagvar.errors import ContextError
from diagvar.polymatrix import PolyMatrix
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, _bound_masks, _mul_into, _reduce_in_place, format_poly
from oracles import (
    perm_det_poly,
    pow_then_delete,
    tuple_format_poly,
    tuple_initial_form,
    tuple_product,
    tuple_substitute,
    tuple_with_context,
)

CTX = VarContext(["a", "b", "c"])
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(124, 131), st.integers(16380, 16400))
MONOMIALS = st.tuples(EXPONENTS, EXPONENTS, EXPONENTS)
CAPS = st.one_of(st.integers(1, 5), st.integers(126, 130), st.integers(254, 258))
PROPERTY = settings(deadline=None, max_examples=50)


def polys(dom, coeffs=st.integers(-5, 5), max_terms=4, monomials=MONOMIALS):
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(lambda t: MvPolynomial(CTX, dom, t))


@PROPERTY
@given(polys(ZZ), polys(ZZ), polys(ZZ))
def test_ring_axioms(f, g, h):
    zero = MvPolynomial.zero(CTX, ZZ)
    one = MvPolynomial.one(CTX, ZZ)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f
    assert f * one == f
    assert f - f == zero


@PROPERTY
@given(st.sampled_from([ZZ, GF(2), GF(7)]), st.data())
def test_product_matches_tuple_oracle(dom, data):
    f = data.draw(polys(dom, st.integers(-30, 30)))
    g = data.draw(polys(dom, st.integers(-30, 30)))
    assert f * g == tuple_product(f, g)


@PROPERTY
@given(polys(GF(7), st.integers(-30, 30)), polys(GF(7), st.integers(-30, 30)), st.integers(0, 3), CAPS)
# (a^2 + a*b + 3*b^2)^2 has 7*a^2*b^2, a term that cancels mod 7
@example(MvPolynomial(CTX, GF(7), {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 3}), MvPolynomial(CTX, GF(7)), 2, 5)
def test_modp_results_are_canonical(f, g, k, cap):
    for h in (f, f + g, f - g, f * g, -f, 3 * f, f.pow_capped(k, cap=cap)):
        assert all(0 < c < 7 for c in h.terms.values())


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_modp_matrix_results_are_canonical(n, data):
    # products and minors accumulate unreduced coefficients in dicts of
    # their own, and each must leave them reduced, with no zero stored
    entry = polys(GF(7), st.integers(-30, 30), max_terms=3, monomials=st.tuples(*[st.integers(0, 2)] * 3))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    A, B = PolyMatrix(data.draw(square)), PolyMatrix(data.draw(square))
    for h in [A._det(None), A.char_poly()] + [f for row in (A * B).rows for f in row]:
        assert all(0 < c < 7 for c in h.terms.values())


@PROPERTY
@given(st.sampled_from([0, 62, 126, 16382]), st.integers(0, 3), st.data())
def test_pow_capped_matches_power_then_delete(offset, k, data):
    # exponents near offset, so the power's exponents sit near k * offset,
    # and a cap drawn around there keeps some terms and deletes others
    exps = st.one_of(st.integers(0, 2), st.integers(offset, offset + 3))
    f = data.draw(polys(ZZ, monomials=st.tuples(exps, exps, exps), max_terms=3))
    cap = data.draw(st.one_of(st.integers(1, 6), st.integers(max(1, k * offset - 3), k * (offset + 3) + 3)))
    assert f.pow_capped(k, cap=cap) == pow_then_delete(f, k, cap)


# exponents on both sides of the 8-bit and 16-bit field limits, so a
# weight is read off keys of one, two and three bytes per field
WIDE_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(125, 130), st.integers(32765, 32770))
# weights of every sign, some wide enough that a weight needs two bytes
WEIGHTS = st.one_of(st.sampled_from((1, -2, 3, 0, -1, 2, -3, 300, -300, 129)), st.integers(-70000, 70000))


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.data())
def test_initial_form_matches_the_tuple_oracle(dom, data):
    f = data.draw(polys(dom, st.integers(-30, 30), max_terms=5, monomials=st.tuples(*[WIDE_EXPONENTS] * 3)))
    weight = data.draw(st.tuples(*[WEIGHTS] * len(CTX)))
    assert f.initial_form(weight) == tuple_initial_form(f, weight)
    with pytest.raises(ContextError):
        f.initial_form(weight[:2])
    with pytest.raises(ContextError):
        f.initial_form(weight + (1,))


@PROPERTY
@given(st.sampled_from([ZZ, GF(2), GF(7)]), st.tuples(*[WEIGHTS] * 3), st.data())
def test_initial_form_of_a_product_is_the_product_of_initial_forms(dom, weight, data):
    # Z and Z/p are domains, so the top coefficients' product is nonzero
    f = data.draw(polys(dom, st.integers(-30, 30), monomials=st.tuples(*[WIDE_EXPONENTS] * 3)))
    g = data.draw(polys(dom, st.integers(-30, 30), monomials=st.tuples(*[WIDE_EXPONENTS] * 3)))
    assert (f * g).initial_form(weight) == f.initial_form(weight) * g.initial_form(weight)


SUBST_MONOMIALS = st.tuples(st.integers(0, 70), st.one_of(st.integers(0, 3), st.integers(64, 70)), st.integers(0, 2))


@PROPERTY
@given(
    polys(ZZ, monomials=SUBST_MONOMIALS, max_terms=3),
    polys(ZZ, monomials=SUBST_MONOMIALS, max_terms=3),
    polys(ZZ, monomials=st.tuples(st.integers(4, 6), st.integers(0, 2), st.integers(0, 1)), max_terms=2),
)
@example(
    MvPolynomial(CTX, ZZ, {(0, 64, 0): 1}),
    MvPolynomial.one(CTX, ZZ),
    MvPolynomial(CTX, ZZ, {(4, 0, 0): 1}),
)
def test_substitute_is_ring_homomorphism(f, g, s):
    # under b -> s, b^64 maps to exponents of a of 256 and more, past the
    # 8-bit field that holds f, g and s
    asg = {"b": s}
    assert f.substitute(asg) == tuple_substitute(f, CTX.index("b"), s)
    assert (f * g).substitute(asg) == f.substitute(asg) * g.substitute(asg)
    assert (f + g).substitute(asg) == f.substitute(asg) + g.substitute(asg)


DEGREE_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(124, 131), st.integers(32764, 32771))


@st.composite
def degree_polys(draw):
    # about half the draws are made homogeneous by raising c in every term
    # to the largest total degree, so both answers of homogeneous_degree occur
    terms = draw(st.lists(st.tuples(DEGREE_EXPONENTS, DEGREE_EXPONENTS, DEGREE_EXPONENTS), min_size=1, max_size=4))
    if draw(st.booleans()):
        top = max(map(sum, terms))
        terms = [(a, b, c + top - a - b - c) for a, b, c in terms]
    return MvPolynomial(CTX, ZZ, {m: draw(st.integers(1, 5)) for m in terms})


@PROPERTY
@given(degree_polys(), degree_polys())
# fields of 8 bits, degree 381 > 255, and a mixed-degree polynomial
@example(MvPolynomial(CTX, ZZ, {(127, 127, 127): 1}), MvPolynomial(CTX, ZZ, {(1, 0, 0): 1, (0, 2, 1): 1}))
# degree 255 = 3 * 85 in 8-bit fields, where the key is 0 modulo 2**8 - 1
@example(MvPolynomial(CTX, ZZ, {(85, 85, 85): 1}), MvPolynomial(CTX, ZZ, {(0, 0, 1): 1}))
# 8-bit fields where arity * e = 381 passes 255 but the OR of the keys
# has degree 255, so key % 255 (= 0) is not the degree
@example(MvPolynomial(CTX, ZZ, {(127, 127, 1): 1}), MvPolynomial(CTX, ZZ, {(0, 0, 1): 1}))
# 16-bit fields past the modular bound, whose high bytes weigh 256
@example(MvPolynomial(CTX, ZZ, {(32767, 32767, 1): 1}), MvPolynomial(CTX, ZZ, {(0, 0, 1): 1}))
def test_degrees_match_tuple_sums(f, g):
    # f * g is packed at a width chosen from a bound, which can be wider
    # than its exponents need
    for h in (f, g, f * g, f + g):
        degs = {sum(m) for m in h.terms}
        assert h.total_degree() == max(degs)
        assert h.homogeneous_degree() == (degs.pop() if len(degs) == 1 else None)


@PROPERTY
@given(polys(ZZ, st.integers(-30, 30), max_terms=6), polys(ZZ, max_terms=2))
@example(MvPolynomial.zero(CTX, ZZ), MvPolynomial.zero(CTX, ZZ))
@example(MvPolynomial.constant(CTX, ZZ, -3), MvPolynomial.one(CTX, ZZ))
# a negative leading term, a constant and a degree tie, in 16-bit fields
@example(
    MvPolynomial(CTX, ZZ, {(200, 0, 1): -1, (0, 1, 200): 8, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 5}),
    MvPolynomial(CTX, ZZ, {(1, 0, 0): 1}),
)
def test_format_matches_the_tuple_oracle(f, g):
    # f * g is packed at a width chosen from a bound, which can be wider
    # than its exponents need
    for h in (f, f * g):
        for dom in (ZZ, GF(7)):
            assert format_poly(h.with_domain(dom)) == tuple_format_poly(h.with_domain(dom))


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.data())
def test_bounded_product_with_a_loose_bound_is_the_product(dom, data):
    # a bound at or above every exponent of the product deletes nothing, so
    # the masked loop must agree with the unmasked one
    f = data.draw(polys(dom, st.integers(-30, 30)))
    g = data.draw(polys(dom, st.integers(-30, 30)))
    fg = f * g
    slack = data.draw(st.tuples(*[st.integers(0, 3)] * len(CTX)))
    bound = tuple(max((m[i] for m in fg.terms), default=0) + slack[i] for i in range(len(CTX)))
    w = fg._w  # the width the product was packed at holds every exponent
    out: dict = {}
    _mul_into(out, f._at(w), g._at(w), 1, _bound_masks(bound, w))
    assert MvPolynomial._raw(CTX, dom, _reduce_in_place(out, dom.p), fg._e, w) == fg


BOUNDED_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(124, 131))


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.integers(1, 3), st.data())
def test_bounded_determinant_is_the_determinant_restricted(dom, n, data):
    # the bounded determinant is the determinant restricted, by tuple
    # arithmetic, to the monomials within the bound; entries hold exponents
    # on both sides of the bound, and beside the 8-bit packing limit
    entry = polys(dom, st.integers(-30, 30), max_terms=3, monomials=st.tuples(*[BOUNDED_EXPONENTS] * len(CTX)))
    M = PolyMatrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    bound = data.draw(st.tuples(*[st.one_of(st.integers(0, 6), st.integers(124, 262))] * len(CTX)))
    full = perm_det_poly(M.rows, CTX, dom)
    kept = {m: c for m, c in full.terms.items() if all(x <= b for x, b in zip(m, bound))}
    assert M._det(bound) == MvPolynomial(CTX, dom, kept)


# zero patterns for the determinant's live-minor pruning: a minor is formed
# only when the rows below it can fill its remaining columns through nonzero
# entries, so supports with zero rows and columns, supports that no
# permutation fills (k rows inside k - 1 columns), and the killed shapes
# (zero at i + j >= n - 1 or i + j >= n, 0-based) must all leave the
# determinant as the permutation expansion gives it
SHAPES = ("random", "zero row", "zero column", "singular", "kill_s", "kill_s0")


@st.composite
def supported_matrices(draw, dom, max_n, exponents=st.integers(0, 3)):
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(SHAPES))
    keep = [[True] * n for _ in range(n)]
    if shape == "random":
        keep = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))
    elif shape in ("zero row", "zero column"):
        z = draw(st.integers(0, n - 1))
        keep = [[(i if shape == "zero row" else j) != z for j in range(n)] for i in range(n)]
    elif shape == "singular" and n > 1:
        k = draw(st.integers(2, n))
        rows = draw(st.permutations(range(n)))[:k]
        cols = draw(st.permutations(range(n)))[: k - 1]
        keep = [[i not in rows or j in cols for j in range(n)] for i in range(n)]
    elif shape in ("kill_s", "kill_s0"):
        edge = n - 1 if shape == "kill_s" else n
        keep = [[i + j < edge for j in range(n)] for i in range(n)]
    entry = polys(dom, st.integers(-30, 30), max_terms=2, monomials=st.tuples(*[exponents] * len(CTX)))
    zero = MvPolynomial.zero(CTX, dom)
    return PolyMatrix([[draw(entry) if keep[i][j] else zero for j in range(n)] for i in range(n)])


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.data())
def test_determinant_with_zero_patterns_matches_the_permutation_expansion(dom, data):
    M = data.draw(supported_matrices(dom, 5, st.one_of(st.integers(0, 3), st.integers(126, 129))))
    full = perm_det_poly(M.rows, CTX, dom)
    assert M._det(None) == full
    bound = data.draw(st.tuples(*[st.one_of(st.integers(0, 6), st.integers(124, 262))] * len(CTX)))
    kept = {m: c for m, c in full.terms.items() if all(x <= b for x, b in zip(m, bound))}
    assert M._det(bound) == MvPolynomial(CTX, dom, kept)


def shifted_by_expansion(M: PolyMatrix, ctx: VarContext, name: str) -> MvPolynomial:
    """det(name*I - M) by permutation expansion over ctx, the entries moved
    into ctx by tuple rebuilding."""
    t = MvPolynomial.variable(ctx, M.dom, name)
    rows = [[tuple_with_context(f, ctx) for f in row] for row in M.rows]
    shifted = [[t - f if i == j else -f for j, f in enumerate(row)] for i, row in enumerate(rows)]
    return perm_det_poly(shifted, ctx, M.dom)


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.data())
def test_characteristic_polynomials_match_the_permutation_expansion(dom, data):
    # char_poly appends t above the context; _char_poly also takes a
    # variable the context already holds and no entry uses, as lemma2 takes
    # x_n_n, here one that sits between the entries' fields
    M = data.draw(supported_matrices(dom, 4))
    assert M.char_poly() == shifted_by_expansion(M, CTX.with_var("t"), "t")
    inner = VarContext(["a", "x_4_4", "b", "c"])
    Mi = M.map_entries(lambda f: tuple_with_context(f, inner))
    assert Mi._char_poly("x_4_4") == shifted_by_expansion(Mi, inner, "x_4_4")
