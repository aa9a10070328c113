"""The window of sizes each check covers: the package's one size policy.

The paper's identities hold for every n; an exact check covers a finite
window of n.  This table is the one place that window is written.  The
check functions refuse sizes outside it unless forced, `diagvar suite` runs
every cell inside it, and `diagvar <cmd> --help` prints it.  Budgets that
limit one layer on any input (the polynomial determinant and characteristic
polynomial, `diag_matrix`, `int_det`, `power_diagonal_check`) stay with the
function they limit.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SizeGuardError

__all__ = ["Window", "WINDOWS", "describe", "guard"]


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
    # lemma4's function is limited by power_diagonal_check's budget; this
    # window sets only the suite's cells
    "lemma4": Window(2, 8),
    "lemma5": Window(2, 12),
}


def describe(check: str) -> str:
    """The window of one check as text, as --help and guard errors print it."""
    w = WINDOWS[check]
    text = f"{w.lo} <= n <= {w.hi}"
    if w.primes:
        text += f", p in {{{','.join(map(str, w.primes))}}}"
    for n, p in w.skipped:
        text += f", except (n, p) = ({n}, {p})"
    return text


def guard(check: str, n: int, force: bool = False, p: int | None = None) -> None:
    """Raise SizeGuardError unless (n, p) lies in the check's window or the
    call is forced."""
    if force:
        return
    w = WINDOWS[check]
    if w.lo <= n <= w.hi and (p is None or (p in w.primes and (n, p) not in w.skipped)):
        return
    got = f"n = {n}" if p is None else f"(n, p) = ({n}, {p})"
    raise SizeGuardError(f"{check} guard: {describe(check)}; got {got}")
