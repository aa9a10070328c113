"""The D(X) construction, the built-in specializations, and the structural
identity checks, pinned against displayed values and independent expansion."""

import itertools
import random

import pytest

from diagvar.diagvariety import (
    SopNormalForm,
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
from diagvar import diagvariety, intlattice, polymatrix, polyring
from diagvar.errors import ContextError, DomainError, SizeGuardError
from diagvar.guards import LIMITS, describe
from diagvar.intlattice import IntMatrix, antidiagonal_ones, int_det, power_diagonal_check
from diagvar.polymatrix import PolyMatrix, polymatrix_from_json
from diagvar.polyring import GF, ZZ, MvPolynomial, VarContext, _width, parse_poly
from oracles import (
    _above_antidiag_exps,
    evaluate,
    frobenius_power_bruteforce,
    int_P,
    perm_det_poly,
    random_poly,
    sop_by_polynomial_P,
    tuple_with_context,
)

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


@pytest.mark.parametrize("n", range(1, 8))
def test_generic_matrix_keeps_every_cell_in_the_matrix_context(n):
    X = generic_matrix(n)
    assert X.ctx == VarContext.matrix(n)
    assert entry_texts(X) == [[f"x_{i}_{j}" for j in range(1, n + 1)] for i in range(1, n + 1)]


@pytest.mark.parametrize("n", [0, -1])
def test_generic_matrix_rejects_a_size_below_1(n):
    with pytest.raises(ValueError, match="must be positive"):
        generic_matrix(n)


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


def defined_cells(n, label, mode=None):
    """The cells each label keeps, written from the words of the README:
    kill_s zeroes every cell on and below the main anti-diagonal, the cells
    (i, n + 1 - i) and those right of them, and kill_s0 only those strictly
    below it; sop keeps the kill_s cells; tilde zeroes the last row and/or
    column except the corner; the generic matrix (None) keeps every cell."""
    grid = set(itertools.product(range(1, n + 1), repeat=2))
    antidiagonal = {(i, n + 1 - i) for i in range(1, n + 1)}
    on_or_below = {(i, j) for i, j in grid if any((i, k) in antidiagonal for k in range(1, j + 1))}
    if label in ("kill_s", "sop"):
        return grid - on_or_below
    if label == "kill_s0":
        return grid - (on_or_below - antidiagonal)
    if label == "tilde":
        last_row = {(n, j) for j in range(1, n)} if mode in ("row", "both") else set()
        last_column = {(i, n) for i in range(1, n)} if mode in ("column", "both") else set()
        return grid - last_row - last_column
    return grid


LABELS = [(None, None), ("kill_s", None), ("kill_s0", None), ("sop", None)] + [
    ("tilde", mode) for mode in diagvariety.TILDE_MODES
]


@pytest.mark.parametrize("label, mode", LABELS)
@pytest.mark.parametrize("n", range(1, 8))
def test_each_label_keeps_the_cells_its_definition_names(monkeypatch, n, label, mode):
    kept = defined_cells(n, label, mode)
    assert diagvariety._kept(n, label, mode) == sorted(kept)
    names = {f"x_{i}_{j}": (i, j) for i, j in itertools.product(range(1, n + 1), repeat=2)}
    if label is not None:
        asg = build_specialization(n, label, mode).assignments
        assert {names[v] for v, g in asg.items() if not g} == set(names.values()) - kept
        x11 = MvPolynomial.variable(VarContext.matrix(n), ZZ, "x_1_1")
        assert {names[v] for v, g in asg.items() if g} == (kept - {(1, 1)} if label == "sop" else set())
        assert all(g == x11 for g in asg.values() if g)
    built = []
    if label in (None, "kill_s", "kill_s0"):
        built.append(diagvariety._grid_matrix(n, label)[0])
    if label == "tilde":
        c_matrix = diagvariety._c_matrix
        monkeypatch.setattr(diagvariety, "_c_matrix", lambda M: built.append(M) or c_matrix(M))
        diagvariety._tilde_c(n, mode)
        assert built[0].ctx == VarContext.matrix(n)
    if label == "sop":
        powers = intlattice.diag_of_powers_matrix
        monkeypatch.setattr(intlattice, "diag_of_powers_matrix", lambda A: built.append(A) or powers(A))
        sop_normal_form(n, force=True)
    for M in built:
        entries = {(i + 1, j + 1): e for i, row in enumerate(M.rows) for j, e in enumerate(row)}
        assert {c for c, e in entries.items() if e} == kept


@pytest.mark.parametrize("mode", diagvariety.TILDE_MODES)
@pytest.mark.parametrize("n", range(1, 6))
def test_tilde_c_equals_c_of_the_substituted_tilde_matrix(n, mode):
    X = build_specialization(n, "tilde", mode).apply_to_matrix(generic_matrix(n))
    assert diagvariety._tilde_c(n, mode) == diagvariety._c_matrix(X)


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


def test_p_generic_guard(monkeypatch):
    # the pair budget refuses the last level of det C(M) before forming
    # any of it: the determinant that C(M) is read off forms 4,514 pairs,
    # and det C(M) forms only the 110,556 of the levels below the refused
    # one
    pairs = [0]

    def mul_into(out, ta, tb, *args, inner=polymatrix._mul_into):
        pairs[0] += len(ta) * len(tb)
        return inner(out, ta, tb, *args)

    monkeypatch.setattr(polymatrix, "_mul_into", mul_into)
    with pytest.raises(SizeGuardError, match="^pair guard"):
        compute_P(generic_matrix(6))
    assert pairs == [4514 + 110556]
    # a silly forced 1x1 call goes through the force path
    assert compute_P(generic_matrix(1), force=True) == 1


def test_p_guard_on_a_specialized_n8_matrix_comes_before_any_work(monkeypatch):
    # the char polys of size 7 and the n = 8 determinant are each within
    # their own budgets, so only compute_P's own guard can refuse this
    M = specialized(8, "kill_s")

    def no_work(*args):
        raise AssertionError("a determinant was started")

    monkeypatch.setattr(PolyMatrix, "_det", no_work)
    monkeypatch.setattr(polymatrix, "_subset_det", no_work)
    with pytest.raises(SizeGuardError, match="^polymatrix guard: 1 <= n <= 7; got n = 8$"):
        compute_P(M)


def test_p_generic_n5_matches_the_determinant_of_d():
    # the top of the pofx window, past what the sympy oracle reaches
    X = generic_matrix(5)
    P = compute_P(X)
    assert len(P.terms) == 89520
    assert P == diag_matrix(X)._det(None)


def _first_row_fields(M) -> int:
    """The number of M's ring variables in its first row; the ring is
    row-major, so they are its first fields."""
    return sum(name.startswith("x_1_") for name in M.ctx.names)


@pytest.mark.parametrize(
    "label, n",
    [("generic", n) for n in range(1, 6)] + [("kill_s", n) for n in range(2, 8)] + [("tilde", n) for n in range(2, 6)],
)
def test_p_parts_split_the_whole_by_the_first_row(monkeypatch, label, n):
    # each part holds one exponent vector of the first row's variables, no
    # two parts hold the same one, and together they hold exactly P's
    # terms, formed from as many term pairs as P is
    if label == "generic":
        M = generic_matrix(n)
    elif label == "kill_s":
        M = diagvariety._killed_matrix(n, "kill_s")[0]
    else:
        M = specialized(n, "tilde", "both")
    pairs = []

    def counted(out, ta, tb, *args, inner=polymatrix._mul_into):
        pairs[-1] += len(ta) * len(tb)
        return inner(out, ta, tb, *args)

    monkeypatch.setattr(polymatrix, "_mul_into", counted)
    fields = _first_row_fields(M)
    pairs.append(0)
    whole = dict(compute_P(M).terms.items())
    pairs.append(0)
    parts = [dict(part.terms.items()) for part in diagvariety._P_parts(M, fields)]
    grades = [{m[:fields] for m in part} for part in parts]
    assert all(len(g) == 1 for g in grades)
    assert len(set.union(*grades)) == len(parts)
    union = {m: c for part in parts for m, c in part.items()}
    assert union == whole and sum(map(len, parts)) == len(whole)
    assert pairs[0] == pairs[1]


def test_p_parts_of_the_generic_n5_at_integer_points():
    # evaluated term by term in plain integers, with no ring arithmetic, the
    # parts of P sum to det D(A) at each point A
    rng = random.Random(1902)
    points = [[rng.randint(-3, 3) for _ in range(25)] for _ in range(2)]
    values = [0, 0]
    for part in diagvariety._P_parts(generic_matrix(5), 5):
        for i, point in enumerate(points):
            values[i] += evaluate(part.terms, point)
    dets = [int_P(IntMatrix([a[5 * i : 5 * i + 5] for i in range(5)])) for a in points]
    assert values == dets and any(dets)


def _check_at_integer_points(P, n, kept, seed) -> None:
    """AssertionError unless P, evaluated term by term in plain integers,
    is int_P(a) at 2 seeded n-by-n matrices a, and nonzero at one.  Each a
    is nonzero in [-3, 3] at each cell (i, j), 1-based, for which kept(i, j)
    holds, so that every monomial of P counts, and zero elsewhere; each
    variable x_i_j of P's ring is read from a by its name."""
    rng = random.Random(seed)
    cells = [tuple(int(k) for k in name.split("_")[1:]) for name in P.ctx.names]
    values = []
    for _ in range(2):
        a = [[rng.choice((-3, -2, -1, 1, 2, 3)) if kept(i, j) else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
        values.append(evaluate(P.terms, [a[i - 1][j - 1] for i, j in cells]))
        assert values[-1] == int_P(IntMatrix(a))
    assert any(values)


@pytest.mark.parametrize("label, n", [("kill_s", n) for n in range(1, 8)] + [("kill_s0", n) for n in range(1, 7)])
def test_killed_p_at_integer_points(label, n):
    # P of each kill is taken in the ring of its survivors, which are read
    # here from the definition, so a survivor missing from the ring shows
    top = n if label == "kill_s" else n + 1
    P = compute_P(diagvariety._killed_matrix(n, label)[0])
    _check_at_integer_points(P, n, lambda i, j: i + j <= top, f"{label}-{n}")


@pytest.mark.parametrize("mode", diagvariety.TILDE_MODES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tilde_p_at_integer_points(mode, n):
    # the last row and/or column is zero except the corner
    zero_row, zero_col = mode in ("row", "both"), mode in ("column", "both")
    P = compute_P(specialized(n, "tilde", mode))

    def kept(i, j):
        return (i, j) == (n, n) or not (zero_row and i == n or zero_col and j == n)

    _check_at_integer_points(P, n, kept, f"tilde-{mode}-{n}")


@pytest.mark.parametrize("n", [6, 9, 12])
def test_det_c_of_a_constant_matrix_is_its_p(n):
    # det C(A) = det D(A) far past the polynomial window: C is read off the
    # shifted determinant, D(A) is built from integer powers of A
    rng = random.Random(f"c-{n}")
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    ctx = VarContext([])
    M = PolyMatrix([[MvPolynomial.constant(ctx, ZZ, x) for x in row] for row in a])
    assert diagvariety._c_matrix(M)._det(None) == int_P(IntMatrix(a)) != 0


def test_killed_determinant_forms_only_completable_minors(monkeypatch):
    # the last row of the killed matrix is zero, so C[n-1][k] = 0 for
    # k < n - 1 and only one minor on the top n - 1 rows can be completed;
    # forming all n of them, the DP would form 14,420 term pairs at n = 6
    M = specialized(6, "kill_s")
    P = diag_matrix(M)._det(None)
    C = diagvariety._c_matrix(M)
    pairs = []

    def counted(out, ta, tb, *args, inner=polymatrix._mul_into):
        pairs.append(len(ta) * len(tb))
        return inner(out, ta, tb, *args)

    monkeypatch.setattr(polymatrix, "_mul_into", counted)
    assert C._det(None) == P
    assert sum(pairs) == 3742


@pytest.mark.parametrize("dom", [ZZ, GF(2), GF(3)], ids=repr)
def test_p_matches_the_permutation_expansion_of_d_on_random_entries(dom):
    # the context holds t and _t: compute_P's characteristic polynomials
    # take their variable from the field above the context, not by name
    ctx = VarContext(["t", "_t", "x_1_1"])
    rng = random.Random(2031 + (dom.p or 0))
    for n in (1, 2, 3, 4):
        for _ in range(4):
            M = PolyMatrix([[random_poly(rng, ctx, dom, max_terms=3) for _ in range(n)] for _ in range(n)])
            assert compute_P(M) == perm_det_poly(diag_matrix(M).rows, ctx, dom), (n, M.rows)


def c_by_principal_minors(M):
    """C(M) from its definition: entry (r, k) is (-1)^r times the sum of the
    r-by-r principal minors of M that avoid index k, each minor expanded by
    permutations."""
    n, ctx, dom = M.n, M.ctx, M.dom
    minors = {
        S: perm_det_poly([[M.rows[i][j] for j in S] for i in S], ctx, dom)
        for r in range(n)
        for S in itertools.combinations(range(n), r)
    }
    zero = MvPolynomial.zero(ctx, dom)
    return [
        [sum((f for S, f in minors.items() if len(S) == r and k not in S), zero) * (-1) ** r for k in range(n)]
        for r in range(n)
    ]


def assert_c_matches_its_definition(M):
    # tuple terms, so a stored zero or an unreduced coefficient fails
    C = diagvariety._c_matrix(M)
    for r, (row, expected) in enumerate(zip(C.rows, c_by_principal_minors(M))):
        for k, (f, g) in enumerate(zip(row, expected)):
            assert dict(f.terms) == dict(g.terms), (r, k, M.rows)


@pytest.mark.parametrize("exps", [(0, 1, 2), (0, 1, 130)], ids=["width-8", "width-16"])
@pytest.mark.parametrize("dom", [ZZ, GF(2), GF(3)], ids=repr)
def test_c_matches_the_principal_minors_on_random_entries(dom, exps):
    # the context holds t and _t: C's variables t_k take the fields above
    # the context, not names; exponents up to 130 need 16-bit fields
    ctx = VarContext(["t", "_t", "x_1_1"])
    rng = random.Random(2041 + (dom.p or 0) + exps[-1])

    def entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            m = tuple(rng.choice(exps) for _ in ctx.names)
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        return MvPolynomial(ctx, dom, terms)

    for n in (1, 2, 3, 4, 5):
        for _ in range(3 if n < 5 else 1):
            assert_c_matches_its_definition(PolyMatrix([[entry() for _ in range(n)] for _ in range(n)]))


def test_c_keeps_each_exponent_bound_within_its_field_width():
    # one row of a^60 and three of ones: 3 * 60, a bound on row 3 of C from
    # the largest entry alone, passes what an 8-bit field holds, and the
    # sum over the rows, 60 + 3, does not
    ctx = VarContext(["a"])
    heavy, one = MvPolynomial.monomial(ctx, ZZ, [60]), MvPolynomial.one(ctx, ZZ)
    M = PolyMatrix([[heavy] * 4] + [[one] * 4] * 3)
    for row in diagvariety._c_matrix(M).rows:
        for f in row:
            assert _width(f._e) <= f._w, (f._e, f._w)
    assert_c_matches_its_definition(M)


@pytest.mark.parametrize("n", [4, 5])
def test_c_of_sop_over_gf2_is_reduced(n):
    # every survivor is x_1_1, so distinct principal minors share one
    # monomial, and their sum must be reduced mod 2
    dom = GF(2)
    X = generic_matrix(n).map_entries(lambda f: f.with_domain(dom))
    assert_c_matches_its_definition(build_specialization(n, "sop", dom=dom).apply_to_matrix(X))


def test_p_of_a_json_matrix_whose_entries_use_t():
    M = polymatrix_from_json({"n": 2, "entries": [["t", "1"], ["0", "x_2_2*t"]]})
    assert "t" in M.ctx
    assert str(compute_P(M)) == "x_2_2*t - t"
    M = polymatrix_from_json(
        {"n": 3, "entries": [["t", "x_1_2", "1"], ["t^2", "x_2_2*t", "x_2_3"], ["x_3_1", "2", "t - x_3_3"]]}
    )
    assert compute_P(M) == perm_det_poly(diag_matrix(M).rows, M.ctx, M.dom)


def test_specialized_guard_names_the_shared_budget():
    n = LIMITS["polymatrix"].hi + 1
    message = f"^polymatrix guard: {describe('polymatrix')}; got n = {n}$"
    M = specialized(n, "kill_s")
    with pytest.raises(SizeGuardError, match=message):
        compute_P(M)
    with pytest.raises(SizeGuardError, match=message):
        diag_matrix(M)


def ones_poly(n):
    """The anti-triangular ones matrix as constant polynomials: every layer
    runs on it forced one past its row in a few milliseconds."""
    ctx = VarContext.matrix(1)
    return PolyMatrix([[MvPolynomial.constant(ctx, ZZ, a) for a in row] for row in antidiagonal_ones(n).rows])


@pytest.mark.parametrize(
    "row, make, call",
    [
        ("polymatrix", ones_poly, PolyMatrix.char_poly),
        ("polymatrix", ones_poly, diag_matrix),
        ("polymatrix", ones_poly, compute_P),
        ("power_diagonal", antidiagonal_ones, power_diagonal_check),
    ],
    ids=["char_poly", "diag_matrix", "compute_P", "power_diagonal_check"],
)
def test_layer_budget_one_past_comes_before_any_work(monkeypatch, row, make, call):
    n = LIMITS[row].hi + 1
    M = make(n)

    def no_work(*args):
        raise AssertionError("a product or a determinant was started")

    with monkeypatch.context() as m:
        for name in ("_det", "_char_poly", "__mul__"):
            m.setattr(PolyMatrix, name, no_work)
        m.setattr(IntMatrix, "__mul__", no_work)
        m.setattr(polymatrix, "_subset_det", no_work)
        m.setattr(intlattice, "int_det", no_work)
        with pytest.raises(SizeGuardError, match=f"^{row} guard: {describe(row)}; got n = {n}$"):
            call(M)
    call(M, force=True)


SPEC_LABELS = [("kill_s", None), ("kill_s0", None), ("sop", None)] + [("tilde", m) for m in diagvariety.TILDE_MODES]


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_to_matrix_is_substitute_entrywise(n):
    X = generic_matrix(n)
    for M in (X, X * X, (X * X).map_entries(lambda f: f.with_domain(GF(3)))):
        for label, mode in SPEC_LABELS:
            s = build_specialization(n, label, mode, M.dom)
            assert s.apply_to_matrix(M) == M.map_entries(lambda f: f.substitute(s.assignments)), (label, mode)


def test_apply_to_matrix_returns_untouched_entries_as_they_are():
    X = generic_matrix(4)
    Xs = build_specialization(4, "kill_s").apply_to_matrix(X)
    for i in range(4):
        for j in range(4):
            if i + j + 2 <= 4:
                assert Xs.rows[i][j] is X.rows[i][j]
            else:
                assert not Xs.rows[i][j]


def test_apply_to_matrix_builds_the_mask_per_field_width():
    # entries packed at 16 bits and at 8 share one specialization: the mask
    # of the replaced fields made at one width must not be read at the other
    ctx = VarContext.matrix(2)
    entries = ["x_1_1^200 + x_2_2", "x_1_2", "x_2_1*x_2_2^300 + x_1_1^129", "x_1_1"]
    rows = [[parse_poly(t, ctx, ZZ) for t in entries[:2]], [parse_poly(t, ctx, ZZ) for t in entries[2:]]]
    spec = build_specialization(2, "kill_s")
    got = spec.apply_to_matrix(PolyMatrix(rows))
    assert [str(f) for row in got.rows for f in row] == ["x_1_1^200", "0", "x_1_1^129", "x_1_1"]
    assert got.rows[1][1] is rows[1][1]


def test_apply_to_matrix_checks_the_assignments_against_the_matrix():
    with pytest.raises(ContextError):
        build_specialization(3, "kill_s").apply_to_matrix(generic_matrix(4))
    with pytest.raises(DomainError):
        build_specialization(3, "kill_s", dom=GF(2)).apply_to_matrix(generic_matrix(3))


def test_specialize_then_build_commutes_with_build_then_substitute():
    for n in (2, 3, 4):
        X = generic_matrix(n)
        P = compute_P(X)
        labels = [("kill_s", None), ("kill_s0", None), ("sop", None)] + [
            ("tilde", m) for m in ("row", "column", "both")
        ]
        for label, mode in labels:
            s = build_specialization(n, label, mode)
            assert compute_P(s.apply_to_matrix(X)) == P.substitute(s.assignments), (n, label, mode)


# -- block factorization ------------------------------------------------------


def test_block_factorization_n2():
    assert verify_block_factorization(2, "both")


def test_block_factorization_forced_at_n1():
    # X0 is empty: P(X0) = 1 and det(x_1_1 * I - X0) = 1, one part, and P
    # of any 1-by-1 matrix is 1
    assert list(diagvariety._corner_side(1)) == [MvPolynomial.one(generic_matrix(1).ctx, ZZ)]
    for mode in ("row", "column", "both"):
        assert verify_block_factorization(1, mode, force=True), mode


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
    rhs = p0 * tuple_with_context(c.substitute({"t": x33}), ctx)
    assert lhs == rhs
    assert verify_block_factorization(3, "both")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tilde_c_is_the_same_matrix_in_every_mode(n):
    # the killed row or column enters no principal minor of a
    # block-triangular matrix, so C of the three modes agree term by term,
    # in key order, field width and exponent bound
    Cs = [diagvariety._tilde_c(n, mode) for mode in ("row", "column", "both")]
    for C in Cs[1:]:
        for row, row_both in zip(C.rows, Cs[0].rows):
            for f, g in zip(row, row_both):
                assert list(f._t.items()) == list(g._t.items())
                assert (f._w, f._e) == (g._w, g._e)


def test_three_modes_expand_the_corner_determinant_once(monkeypatch):
    # the shared corner forms 49,329 pairs at n = 5, 23,989 of them in
    # det C and 24,180 in the right side's product; each mode adds only its
    # own C, 268 pairs, so the three form 50,133 pairs
    diagvariety._corner_identity.cache_clear()
    pairs = [0]

    def mul_into(out, ta, tb, *args, inner=polyring._mul_into):
        pairs[0] += len(ta) * len(tb)
        return inner(out, ta, tb, *args)

    monkeypatch.setattr(polyring, "_mul_into", mul_into)
    monkeypatch.setattr(polymatrix, "_mul_into", mul_into)
    for mode in ("row", "column", "both"):
        assert verify_block_factorization(5, mode)
    assert pairs == [50133]


def test_block_factorization_expands_its_own_determinant_when_c_differs(monkeypatch):
    # a shared C that differs from a mode's own C lends no verdict: the
    # mode expands det C against the same right side
    other = PolyMatrix.identity(generic_matrix(3).ctx, ZZ, 3)
    monkeypatch.setattr(diagvariety, "_corner_identity", lambda n: (other, False))
    for mode in ("row", "column", "both"):
        assert verify_block_factorization(3, mode), mode
    side = diagvariety._corner_side
    monkeypatch.setattr(diagvariety, "_corner_identity", lambda n: (other, True))
    monkeypatch.setattr(diagvariety, "_corner_side", lambda n: (-part for part in side(n)))
    for mode in ("row", "column", "both"):
        assert not verify_block_factorization(3, mode), mode


@pytest.mark.parametrize("edit", ["last-part-dropped", "one-part-added"])
def test_a_right_side_one_part_short_or_long_fails_every_mode(monkeypatch, edit):
    # the sides are compared part by part; a part more or less on one side
    # is a difference, even where every pair formed agrees
    side = diagvariety._corner_side

    def edited(n):
        parts = list(side(n))
        if edit == "last-part-dropped":
            return parts[:-1]
        return parts + [parts[-1] * MvPolynomial.variable(parts[-1].ctx, ZZ, "x_1_1")]

    monkeypatch.setattr(diagvariety, "_corner_side", edited)
    monkeypatch.setattr(diagvariety, "_corner_identity", diagvariety._corner_identity.__wrapped__)
    for mode in diagvariety.TILDE_MODES:
        assert not verify_block_factorization(4, mode), mode


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_corner_side_at_integer_points(n):
    # evaluated term by term in plain integers, the right side's parts sum
    # to P of the point with the tilde-both cells zeroed, and to
    # P(A0) * det(a_n_n * I - A0) for its leading block A0
    rng = random.Random(2024 + n)
    points = [
        [[rng.randint(-3, 3) if (i < n - 1) == (j < n - 1) else 0 for j in range(n)] for i in range(n)]
        for _ in range(2)
    ]
    values = [0, 0]
    for part in diagvariety._corner_side(n):
        for k, a in enumerate(points):
            values[k] += evaluate(part.terms, [x for row in a for x in row])
    for value, a in zip(values, points):
        A0 = [row[: n - 1] for row in a[: n - 1]]
        corner = [[a[-1][-1] * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(A0)]
        assert value == int_P(IntMatrix(a)) == int_P(IntMatrix(A0)) * int_det(IntMatrix(corner))
    assert any(values)


def test_block_factorization_guard():
    with pytest.raises(SizeGuardError):
        verify_block_factorization(6)


# -- the killed matrix in its survivors' ring ---------------------------------


def test_killed_matrix_cells_n3():
    assert diagvariety._killed_matrix(3, "kill_s")[1] == [(1, 1), (1, 2), (2, 1)]
    assert diagvariety._killed_matrix(3, "kill_s0")[1] == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("label", ["kill_s", "kill_s0"])
@pytest.mark.parametrize("n", range(1, 8))
def test_killed_matrix_is_the_killed_generic_matrix_in_its_survivors_ring(n, label):
    M, cells = diagvariety._killed_matrix(n, label)
    # row 1 keeps n - 1 cells under kill_s and n under kill_s0, and each
    # row one fewer than the row above, starting at column 1
    top = n - 1 if label == "kill_s" else n
    assert len(cells) == top * (top + 1) // 2
    assert cells == [(i, j) for i in range(1, n + 1) for j in range(1, top + 2 - i)]
    assert M.ctx.names == tuple(f"x_{i}_{j}" for i, j in cells)
    generic = specialized(n, label)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = M.rows[i - 1][j - 1]
            if (i, j) in cells:
                assert str(entry) == f"x_{i}_{j}"
            else:
                assert not entry
            assert tuple_with_context(entry, generic.ctx) == generic.rows[i - 1][j - 1]


@pytest.mark.parametrize("n", range(2, 13))
def test_the_kill_s_block_is_kill_s0_one_size_down(n):
    M = diagvariety._killed_matrix(n, "kill_s")[0]
    X0 = diagvariety._killed_matrix(n - 1, "kill_s0")[0]
    block = PolyMatrix([row[: n - 1] for row in M.rows[: n - 1]])
    assert block.ctx == X0.ctx
    assert block == X0


def test_the_ones_matrix_has_its_ones_at_the_kill_s0_cells():
    # the integer lemmas' ones matrix and the kill_s0 kill cut the grid at
    # the same anti-diagonal
    for n in range(1, 13):
        A = antidiagonal_ones(n)
        ones = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if A.rows[i - 1][j - 1]]
        assert ones == diagvariety._kept(n, "kill_s0"), n
        assert {x for row in A.rows for x in row} == ({1} if n == 1 else {0, 1})


@pytest.mark.parametrize("n", range(2, 8))
def test_the_peeling_factor_is_chi_of_x0_at_zero(n):
    # chi_X0(0) = det(-X0) = (-1)^(n-1) det X0, expanded over permutations
    X0, cells = diagvariety._killed_matrix(n - 1, "kill_s0")
    chi_at_0 = perm_det_poly(X0.rows, X0.ctx, X0.dom) * (-1) ** (n - 1)
    antidiagonal = MvPolynomial.monomial(X0.ctx, ZZ, [int(j == n - i) for i, j in cells])
    assert chi_at_0 == antidiagonal * (-1) ** (n * (n - 1) // 2)


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


@pytest.mark.parametrize("n", range(3, 7))
def test_peeling_sides_match_the_generic_ring_route(monkeypatch, n):
    sides = []
    compute = diagvariety.compute_P
    monkeypatch.setattr(diagvariety, "compute_P", lambda M, **kw: sides.append(compute(M, **kw)) or sides[-1])
    assert verify_peeling_identity(n)
    lhs, rhs = sides
    assert len(lhs.ctx) == len(rhs.ctx) == n * (n - 1) // 2
    # the same sides in the n^2-variable ring, from the generic matrix
    X = specialized(n, "kill_s")
    generic_lhs = compute_P(X)
    generic_rhs = compute_P(PolyMatrix([row[: n - 1] for row in X.rows[: n - 1]]))
    assert tuple_with_context(lhs, X.ctx) == generic_lhs
    assert tuple_with_context(rhs, X.ctx) == generic_rhs
    exps = [0] * len(X.ctx)
    for i in range(1, n):
        exps[X.ctx.index(f"x_{i}_{n - i}")] = 1
    assert generic_lhs == generic_rhs * MvPolynomial.monomial(X.ctx, ZZ, exps) * (-1) ** (n * (n - 1) // 2)


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


def test_antidiag_coeff_agrees_between_the_two_kills():
    # kill_s0 keeps the anti-diagonal itself, which the target never uses
    for n in range(2, 7):
        assert antidiag_unit_coeff(n, "kill_s") == antidiag_unit_coeff(n, "kill_s0"), n


@pytest.mark.parametrize("label, size", [("kill_s", 0), ("kill_s0", 1)])
def test_antidiag_coeff_expands_the_ring_of_its_kill(monkeypatch, label, size):
    # both kills give the same coefficient at every n, so no value can tell
    # a wrong kill_s0 cut; the ring C is built in can
    rings = []
    c_matrix = diagvariety._c_matrix
    monkeypatch.setattr(diagvariety, "_c_matrix", lambda M, *a: rings.append(M.ctx) or c_matrix(M, *a))
    for n in range(1, 7):
        antidiag_unit_coeff(n, label, force=True)
        names = set(rings[-1].names)
        assert len(names) == (n - 1 + size) * (n + size) // 2, n
        antidiagonal = {f"x_{i}_{n + 1 - i}" for i in range(1, n + 1)}
        assert (antidiagonal <= names) if size else not (antidiagonal & names), n


def test_antidiag_coeff_forced_n1_is_the_empty_product():
    assert antidiag_unit_coeff(1, force=True) == 1
    assert antidiag_unit_coeff(1, "kill_s0", force=True) == 1


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
    for n in range(2, 8):
        nf = sop_normal_form(n, force=True)
        assert (nf.sign, nf.exponent) == sop_by_polynomial_P(n), n
        assert nf.exponent == n * (n - 1) // 2
        if n in (5, 6):
            X = generic_matrix(n)
            Xs = build_specialization(n, "sop").apply_to_matrix(X)
            full = perm_det_poly(diag_matrix(Xs).rows, X.ctx, X.dom)
            exps = [0] * len(X.ctx)
            exps[X.ctx.index("x_1_1")] = nf.exponent
            assert full == MvPolynomial.monomial(X.ctx, ZZ, exps, nf.sign)


def test_sop_sign_is_the_peeled_lemma4_determinant():
    # the sop matrix is x_1_1 times antidiagonal_ones(n - 1) bordered by
    # zeros; peeling gives the sign (-1)^(n(n-1)/2) times its det_diag
    for n in range(2, 17):
        det_diag = power_diagonal_check(antidiagonal_ones(n - 1), force=True).det_diag
        assert sop_normal_form(n, force=True).sign == (-1) ** (n * (n - 1) // 2) * det_diag, n


def test_sop_normal_form_forced_n1():
    assert sop_normal_form(1, force=True) == SopNormalForm(1, 0)


@pytest.mark.parametrize("det", [2, 0])
def test_sop_normal_form_rejects_a_non_unit_determinant(monkeypatch, det):
    # patched on the module, as the benchmark's tracer wraps it
    # the sign is returned as computed, for the caller to judge
    monkeypatch.setattr(diagvariety.intlattice, "int_det", lambda A: det)
    assert sop_normal_form(3) == SopNormalForm(sign=det, exponent=3)


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
        g = tuple_with_context(f, VarContext(names)).with_domain(GF(p))
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
