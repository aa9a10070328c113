"""The sizes each check and each layer covers: the package's one size policy.

The paper's identities hold for every n; an exact check covers a finite
window of n.  These two tables are the one place that window is written.
`WINDOWS` holds each check's window: the check functions refuse sizes
outside it unless forced, `diagvar suite` runs every cell inside it, and
`diagvar <cmd> --help` prints it.  `LIMITS` holds the bounds of the layers
that any input can reach: one bound on the 2^n states of the polynomial
matrix layer (`char_poly`, `diag_matrix`, `compute_P`) and one on
`power_diagonal_check`.  Every public function that has a bound calls
`guard` with its row once, before any work, and `--force` skips every row.
`PAIR_BUDGET` is counted where the work is: each determinant DP of an
unforced `compute_P`, whatever the matrix's shape, stops before it forms
more term pairs (`_subset_det` counts them).  The internal routes check
nothing, as every window lies within the layer rows.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SizeGuardError

__all__ = ["PAIR_BUDGET", "Window", "WINDOWS", "LIMITS", "describe", "guard"]

# kill_s at n = 7, the largest P that passes, forms 343,222 in its largest
# DP; tilde "both" at n = 6 would form 25.6M in its last (27 s, 1.8 GiB on a
# 2-vCPU Xeon VM), and the budget stops it before that DP's last level, after
# 55,436 pairs of it (0.15 s and 18 MiB for the whole CLI run).
PAIR_BUDGET = 2**20


class Window(NamedTuple):
    lo: int
    hi: int
    primes: tuple = ()
    skipped: tuple = ()  # (n, p) cells left out of the window


WINDOWS = {
    "pofx": Window(1, 5),  # P of the fully generic matrix
    "lemma2": Window(2, 5),
    "induction": Window(3, 6),
    "antidiag": Window(2, 6),
    "sop": Window(2, 6),
    # the skipped cell costs milliseconds; it stays out until the benchmark's
    # pinned suite set is re-pinned with it
    "fedder": Window(2, 5, primes=(2, 3, 5, 7), skipped=((5, 7),)),
    # lemma4's function is limited by the power_diagonal row; this window
    # sets only the suite's cells
    "lemma4": Window(2, 8),
    "lemma5": Window(2, 12),
}

LIMITS = {
    # D(M), C(M) and P(M) of any matrix, specialized or not, and char_poly
    "polymatrix": Window(1, 7),
    "power_diagonal": Window(1, 10),
}


def describe(check: str) -> str:
    """The window of one check or layer as text, as --help and guard errors
    print it."""
    w = WINDOWS.get(check) or LIMITS[check]
    text = f"{w.lo} <= n <= {w.hi}"
    if w.primes:
        text += f", p in {{{','.join(map(str, w.primes))}}}"
    for n, p in w.skipped:
        text += f", except (n, p) = ({n}, {p})"
    return text


def guard(check: str, n: int, force: bool = False, p: int | None = None) -> None:
    """Raise SizeGuardError unless (n, p) lies in the check's or layer's
    window or the call is forced."""
    if force:
        return
    w = WINDOWS.get(check) or LIMITS[check]
    if w.lo <= n <= w.hi and (p is None or (p in w.primes and (n, p) not in w.skipped)):
        return
    got = f"n = {n}" if p is None else f"(n, p) = ({n}, {p})"
    raise SizeGuardError(f"{check} guard: {describe(check)}; got {got}")
