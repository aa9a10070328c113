"""Property tests of the polynomial ring.  Exponents are drawn on both sides
of the packing limits (127/128 for 8-bit fields, 32767/32768 for 16-bit
ones), so products re-pack their operands at a wider field width."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext
from oracles import pow_then_delete, tuple_product, tuple_substitute

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
    fg = f * g
    assert fg == tuple_product(f, g)
    probe = data.draw(MONOMIALS)
    for m in list(fg.terms) + [probe]:
        assert f.mul_coefficient(g, m) == fg.coefficient(m)


@PROPERTY
@given(polys(GF(7), st.integers(-30, 30)), polys(GF(7), st.integers(-30, 30)), st.integers(0, 3), CAPS)
# (a^2 + a*b + 3*b^2)^2 has 7*a^2*b^2, a term that cancels mod 7
@example(MvPolynomial(CTX, GF(7), {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 3}), MvPolynomial(CTX, GF(7)), 2, 5)
def test_modp_results_are_canonical(f, g, k, cap):
    for h in (f, f + g, f - g, f * g, -f, 3 * f, f.pow_capped(k, cap=cap)):
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


def weigh(weight, m):
    return sum(a * b for a, b in zip(weight, m))


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.sampled_from([0, 62, 126, 16382]), st.integers(0, 3), st.data())
def test_pow_capped_with_a_floor_keeps_the_power_above_it(dom, offset, k, data):
    # the floored power is the capped power restricted, by tuple arithmetic,
    # to the terms of weight >= floor; weights of every sign, and floors
    # drawn at and beside the weights the power's terms reach
    exps = st.one_of(st.integers(0, 2), st.integers(offset, offset + 3))
    f = data.draw(polys(dom, st.integers(-30, 30), monomials=st.tuples(exps, exps, exps), max_terms=4))
    cap = data.draw(st.one_of(st.integers(1, 6), st.integers(max(1, k * offset - 3), k * (offset + 3) + 3)))
    weight = data.draw(st.tuples(*[st.sampled_from((1, -2, 3, 0, -1, 2, -3))] * len(CTX)))
    full = pow_then_delete(f, k, cap)
    # the top weights first: hypothesis tries the first entries most
    reached = sorted({weigh(weight, m) for m in full.terms}, reverse=True)
    floor = data.draw(st.sampled_from(reached) if reached else st.integers(-20, 20)) + data.draw(st.integers(-1, 1))
    kept = {m: c for m, c in full.terms.items() if weigh(weight, m) >= floor}
    assert f.pow_capped(k, cap=cap, weight=weight, floor=floor) == MvPolynomial(CTX, dom, kept)


SUBST_MONOMIALS = st.tuples(st.integers(0, 70), st.one_of(st.integers(0, 3), st.integers(64, 70)), st.integers(0, 2))


@PROPERTY
@given(
    polys(ZZ, monomials=SUBST_MONOMIALS, max_terms=3),
    polys(ZZ, monomials=SUBST_MONOMIALS, max_terms=3),
    polys(ZZ, monomials=st.tuples(st.integers(4, 6), st.integers(0, 2), st.integers(0, 1)), max_terms=2),
)
def test_substitute_is_ring_homomorphism(f, g, s):
    # under b -> s, b^64 maps to exponents of a of 256 and more, past the
    # 8-bit field that holds f, g and s
    asg = {"b": s}
    assert f.substitute(asg) == tuple_substitute(f, CTX.index("b"), s)
    assert (f * g).substitute(asg) == f.substitute(asg) * g.substitute(asg)
    assert (f + g).substitute(asg) == f.substitute(asg) + g.substitute(asg)


def test_mul_coefficient_of_a_monomial_past_the_field():
    # packed in 8-bit fields, a^16400 would read as a^16 * b^64
    f = MvPolynomial(CTX, ZZ, {(16, 0, 0): 1})
    g = MvPolynomial(CTX, ZZ, {(0, 64, 0): 1})
    assert f.mul_coefficient(g, (16, 64, 0)) == 1
    assert f.mul_coefficient(g, (16400, 0, 0)) == 0


def test_mul_coefficient_of_a_power_past_the_field():
    # h = a^200 + 2*a^100*b + b^2 must be packed wider than 8 bits: in 8-bit
    # fields a^200 * a^100*b = a^300*b would carry into b's field and read
    # as a^44 * b^2
    h = MvPolynomial(CTX, ZZ, {(100, 0, 0): 1, (0, 1, 0): 1}).pow_capped(2)
    assert h.mul_coefficient(h, (300, 1, 0)) == 4
    assert h.mul_coefficient(h, (44, 2, 0)) == 0


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
def test_degrees_match_tuple_sums(f, g):
    # f * g is packed at a width chosen from a bound, which can be wider
    # than its exponents need
    for h in (f, g, f * g, f + g):
        degs = {sum(m) for m in h.terms}
        assert h.total_degree() == max(degs)
        assert h.homogeneous_degree() == (degs.pop() if len(degs) == 1 else None)


@PROPERTY
@given(st.sampled_from([ZZ, GF(7)]), st.data())
def test_bounded_product_with_a_loose_bound_is_the_product(dom, data):
    # a bound at or above every exponent of the product deletes nothing, so
    # the masked loop must agree with the unmasked one
    f = data.draw(polys(dom, st.integers(-30, 30)))
    g = data.draw(polys(dom, st.integers(-30, 30)))
    fg = f._mul(g, None)
    slack = data.draw(st.tuples(*[st.integers(0, 3)] * len(CTX)))
    bound = tuple(max((m[i] for m in fg.terms), default=0) + slack[i] for i in range(len(CTX)))
    assert f._mul(g, bound) == fg
