"""The size tables: every check function refuses sizes outside its window
unless forced, --help prints each window and layer row, the suite
enumerated from the windows is the cell set the benchmark pins, and only
`guard` and the pair budget raise SizeGuardError.  The pair budget: an
unforced compute_P stops any determinant DP that would form more term
pairs."""

import ast
import json
import time
from pathlib import Path

import pytest

import diagvar
from diagvar import cli, diagvariety, polymatrix
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
from diagvar.errors import SizeGuardError
from diagvar.guards import LIMITS, PAIR_BUDGET, WINDOWS, describe, guard
from diagvar.intlattice import verify_inverse_bands
from diagvar.polymatrix import PolyMatrix

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"

# the function each check's window guards, called unforced at size n;
# lemma4's function is limited by the power_diagonal row of LIMITS instead
GUARDED = {
    "pofx": cli.cell_pofx,
    "lemma2": verify_block_factorization,
    "induction": verify_peeling_identity,
    "antidiag": antidiag_unit_coeff,
    "sop": sop_normal_form,
    "fedder": lambda n: check_fpure(n, 2),
    "lemma5": verify_inverse_bands,
}


def test_every_window_but_lemma4_guards_a_function():
    assert set(GUARDED) == set(WINDOWS) - {"lemma4"}


@pytest.mark.parametrize("check", list(GUARDED))
def test_unforced_call_outside_window_fails_fast(check):
    w = WINDOWS[check]
    outside = [w.hi + 1] + ([w.lo - 1] if w.lo - 1 >= 1 else [])
    for n in outside:
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match=f"^{check} guard"):
            GUARDED[check](n)
        assert time.perf_counter() - start < 2.0, (check, n)


def test_guard_passes_inside_window_and_when_forced():
    for check, w in {**WINDOWS, **LIMITS}.items():
        for n in (w.lo, w.hi):
            guard(check, n, p=w.primes[0] if w.primes else None)
        guard(check, w.hi + 1, force=True)


def _size_guard_raisers(tree: ast.Module, module: str) -> list:
    """The innermost function around each `raise SizeGuardError` in tree,
    as module.function (module alone at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "SizeGuardError":
                    found.append(scope)
            visit(child, scope)

    visit(tree, module)
    return found


def test_size_policy_lives_in_guard_and_the_pair_budget():
    # every bound on n is a row of WINDOWS or LIMITS, checked by guard();
    # the pair budget is counted inside the determinant DP
    raisers, constants = [], []
    for path in sorted(Path(diagvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        raisers += _size_guard_raisers(tree, path.stem)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            constants += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_GUARD")]
    assert sorted(raisers) == ["guards.guard", "polymatrix._subset_det"]
    assert constants == []


def _dp_pairs(monkeypatch) -> list:
    """Patch the determinant DP so that each run appends the term pairs its
    products form (counted through _mul_into) to the returned list."""
    pairs = []
    running = []

    def subset_det(*args, inner=polymatrix._subset_det, **kwargs):
        pairs.append(0)
        running.append(True)
        try:
            yield from inner(*args, **kwargs)
        finally:
            running.pop()

    def mul_into(out, ta, tb, *args, inner=polymatrix._mul_into):
        if running:
            pairs[-1] += len(ta) * len(tb)
        return inner(out, ta, tb, *args)

    monkeypatch.setattr(polymatrix, "_subset_det", subset_det)
    monkeypatch.setattr(polymatrix, "_mul_into", mul_into)
    return pairs


def test_windows_keep_the_internal_routes_within_the_layer_budgets(monkeypatch):
    # _det, _char_poly and _c_matrix check no size budget of their own, and
    # only an unforced compute_P hands them the pair budget; every unforced
    # cell at its window's top, and compute_P at its own row (kill_s at
    # n = 7 is the largest P it lets through), must keep the sizes they
    # reach within the one polymatrix row and every DP they run within the
    # pair budget.  _c_matrix expands one determinant of size n
    # through _shifted_det, so its size is recorded with the determinants;
    # _char_poly's goes through the same route in polymatrix
    sizes = {"_det": set(), "_char_poly": set()}

    def record_det(self, *args, inner=PolyMatrix._det):
        sizes["_det"].add(self.n)
        return inner(self, *args)

    def recorder(key, inner):
        def record(rows, *args):
            sizes[key].add(len(rows))
            return inner(rows, *args)

        return record

    monkeypatch.setattr(PolyMatrix, "_det", record_det)
    monkeypatch.setattr(polymatrix, "_shifted_det", recorder("_char_poly", polymatrix._shifted_det))
    monkeypatch.setattr(diagvariety, "_shifted_det", recorder("_det", diagvariety._shifted_det))
    pairs = _dp_pairs(monkeypatch)
    # the fedder cells build the killed P afresh, not from the cache
    monkeypatch.setattr(diagvariety, "_killed_survivors", diagvariety._killed_survivors.__wrapped__)
    # and the lemma2 cells expand their shared corner afresh
    monkeypatch.setattr(diagvariety, "_corner_identity", diagvariety._corner_identity.__wrapped__)
    primes = sorted({p for w in WINDOWS.values() for p in w.primes})
    cells = cli._suite_cells(max(w.hi for w in WINDOWS.values()), primes, cli.SUITE_CHECKS)
    for check, kw in cells:
        if kw["n"] == WINDOWS[check].hi:
            assert cli._run_cell((check, kw))["pass"], (check, kw)
    n = LIMITS["polymatrix"].hi
    for label in ("sop", "kill_s"):
        compute_P(build_specialization(n, label).apply_to_matrix(generic_matrix(n)))
    assert n in sizes["_det"] and WINDOWS["lemma2"].hi - 1 in sizes["_char_poly"]
    assert max(sizes["_det"] | sizes["_char_poly"]) <= LIMITS["polymatrix"].hi, sizes
    assert 343222 in pairs and max(pairs) <= PAIR_BUDGET


def _tilde(n: int) -> PolyMatrix:
    return build_specialization(n, "tilde", "both").apply_to_matrix(generic_matrix(n))


@pytest.mark.parametrize(
    "M, per_dp",
    [(_tilde(3), [18, 23]), (generic_matrix(3), [31, 27])],
    ids=["largest-in-the-final-det", "largest-in-a-c-matrix-dp"],
)
def test_pair_budget_passes_at_the_largest_dp_and_stops_one_pair_below(monkeypatch, M, per_dp):
    # per DP: the determinant that C(M) is read off, then det C(M); on the
    # generic matrix the first also forms det M, which C(M) drops, and so
    # forms more pairs than det C(M).  Each DP is held to the budget alone
    pairs = _dp_pairs(monkeypatch)
    P = compute_P(M)
    assert pairs == per_dp
    top = max(per_dp)
    monkeypatch.setattr(diagvariety, "PAIR_BUDGET", top)
    assert compute_P(M) == P
    monkeypatch.setattr(diagvariety, "PAIR_BUDGET", top - 1)
    with pytest.raises(SizeGuardError, match=f"^pair guard: .* more than {top - 1} term pairs$"):
        compute_P(M)
    assert compute_P(M, force=True) == P


@pytest.mark.parametrize(
    "n, label, mode, formed",
    [
        (6, "tilde", "both", [1380, 55436]),
        (7, "kill_s0", None, [1548, 49833]),
    ],
    ids=["tilde-both-6", "kill_s0-7"],
)
def test_unforced_P_past_the_pair_budget_stops_within_it(monkeypatch, n, label, mode, formed):
    # both pass every other guard; forced, tilde "both" at n = 6 forms
    # 23,772,960 pairs in its last DP level, and kill_s0 at n = 7 more.
    # Each level is counted whole before it is formed, so det C(M), the
    # last DP, stops once the levels below the refused one are formed
    M = build_specialization(n, label, mode).apply_to_matrix(generic_matrix(n))
    pairs = _dp_pairs(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match=f"pair guard: .* {PAIR_BUDGET} term pairs"):
        compute_P(M)
    assert time.perf_counter() - start < 2.0
    assert pairs == formed


# the layer row each command's --n help prints beside its window
HELP_LIMITS = {
    "pofx": f"specialized at n <= {LIMITS['polymatrix'].hi} while",
    "lemma4": f"any n <= {LIMITS['power_diagonal'].hi} runs unforced",
}


@pytest.mark.parametrize("check", list(WINDOWS))
def test_help_prints_the_window(capsys, check):
    with pytest.raises(SystemExit) as e:
        cli.main([check, "--help"])
    assert e.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert describe(check) in out
    if check in HELP_LIMITS:
        assert HELP_LIMITS[check] in out


def test_suite_help_prints_every_window(capsys):
    with pytest.raises(SystemExit):
        cli.main(["suite", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for check in WINDOWS:
        assert f"{check} {describe(check)}" in out


def test_suite_cells_match_benchmark_pins():
    # a window edit that changes the benchmark's pinned workload fails here
    labels = set()
    for check, kw in cli._suite_cells(12, [2, 3, 5, 7], cli.SUITE_CHECKS):
        parts = [check, f"n={kw['n']}"] + ([f"p={kw['p']}"] if "p" in kw else [])
        labels.add(" ".join(parts + [str(kw[k]) for k in ("mode", "spec") if k in kw]))
    assert labels == set(json.loads(PINS.read_text())["suite"])
