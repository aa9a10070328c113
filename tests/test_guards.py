"""The window table: every check function refuses sizes outside its window
unless forced, --help prints each window, and the suite enumerated from the
table is the cell set the benchmark pins."""

import json
import time
from pathlib import Path

import pytest

from diagvar import cli
from diagvar.diagvariety import (
    antidiag_unit_coeff,
    check_fpure,
    compute_P,
    generic_matrix,
    sop_normal_form,
    verify_block_factorization,
    verify_peeling_identity,
)
from diagvar.errors import SizeGuardError
from diagvar.guards import WINDOWS, describe, guard
from diagvar.intlattice import verify_inverse_bands

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"

# the function each check's window guards, called unforced at size n;
# lemma4's function is limited by power_diagonal_check's own budget instead
GUARDED = {
    "pofx": lambda n: compute_P(generic_matrix(n)),
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
        with pytest.raises(SizeGuardError, match="guard"):
            GUARDED[check](n)
        assert time.perf_counter() - start < 2.0, (check, n)


def test_guard_passes_inside_window_and_when_forced():
    for check, w in WINDOWS.items():
        for n in (w.lo, w.hi):
            guard(check, n, p=w.primes[0] if w.primes else None)
        guard(check, w.hi + 1, force=True)


@pytest.mark.parametrize("check", list(WINDOWS))
def test_help_prints_the_window(capsys, check):
    with pytest.raises(SystemExit) as e:
        cli.main([check, "--help"])
    assert e.value.code == 0
    assert describe(check) in " ".join(capsys.readouterr().out.split())


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
