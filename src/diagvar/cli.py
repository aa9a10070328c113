"""Command-line front end: compute objects, run individual checks, or run
the whole desk-scale suite with machine-readable reports.

Exit codes: 0 when every executed check passed, 1 when any check failed,
2 on usage errors, guard violations or a report that cannot be written.
Reports are deterministic for a fixed configuration; DIAGVAR_THREADS caps
suite parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import diagvariety, intlattice
from .errors import DiagvarError
from .guards import LIMITS, PAIR_BUDGET, WINDOWS, describe, guard
from .polymatrix import polymatrix_from_json
from .polyring import GF, format_poly

SUITE_CHECKS = tuple(WINDOWS)
SPEC_LABELS = {"s": "kill_s", "s0": "kill_s0"}
# the cells a check runs at one n, as (keyword, values); fedder's values are
# the suite's default --primes, which replace them
VARIANTS = {
    "lemma2": ("mode", diagvariety.TILDE_MODES),
    "antidiag": ("spec", tuple(SPEC_LABELS)),
    "fedder": ("p", (2, 3, 5)),
}


def load_matrix(path: str, reader):
    """Load a matrix JSON file through reader, one of the *_from_json loaders."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise DiagvarError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DiagvarError(f"{path}: invalid JSON: {e}") from e
    return reader(obj)


def _record(check: str, n=None, p=None, passed=True, detail=None, force=False) -> dict:
    """One report record; a record of work run past a size guard says so."""
    detail = detail or {}
    if force:
        detail["forced"] = True
    return {"check": check, "n": n, "p": p, "pass": bool(passed), "detail": detail}


# -- one function per suite cell; each returns a single report record ---------


def cell_pofx(n: int, force: bool = False) -> dict:
    guard("pofx", n, force)
    # P is read one part at a time, the terms that share their exponents of
    # the first row's variables, so its terms are never held all at once
    terms, degrees, kept = 0, set(), []
    for part in diagvariety._P_parts(diagvariety.generic_matrix(n), n, force=force):
        terms += len(part.terms)
        degrees.update(part._degrees())
        if terms <= 64:
            kept.append(part)
        del part  # the next part is formed without this one
    expected = n * (n - 1) // 2
    degree = degrees.pop() if len(degrees) == 1 else None
    detail = {
        "poly": format_poly(sum(kept[1:], kept[0])) if terms <= 64 else None,
        "terms": terms,
        "degree": degree,
        "expected_degree": expected,
    }
    return _record("pofx", n=n, passed=degree == expected, detail=detail, force=force)


def cell_lemma2(n: int, mode: str, force: bool = False) -> dict:
    ok = diagvariety.verify_block_factorization(n, mode, force=force)
    return _record("lemma2", n=n, passed=ok, detail={"mode": mode}, force=force)


def cell_induction(n: int, force: bool = False) -> dict:
    ok = diagvariety.verify_peeling_identity(n, force=force)
    return _record("induction", n=n, passed=ok, force=force)


def cell_antidiag(n: int, spec: str, force: bool = False) -> dict:
    coeff = diagvariety.antidiag_unit_coeff(n, SPEC_LABELS[spec], force=force)
    detail = {"spec": spec, "coeff": coeff}
    return _record("antidiag", n=n, passed=abs(coeff) == 1, detail=detail, force=force)


def cell_sop(n: int, force: bool = False) -> dict:
    nf = diagvariety.sop_normal_form(n, force=force)
    detail = {"sign": nf.sign, "exponent": nf.exponent}
    return _record("sop", n=n, passed=abs(nf.sign) == 1, detail=detail, force=force)


def cell_fedder(n: int, p: int, force: bool = False) -> dict:
    GF(p)  # validates primality
    verdict = diagvariety.check_fpure(n, p, force=force)
    detail = {
        "fpure": verdict.fpure,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "var_count": verdict.var_count,
    }
    return _record("fedder", n=n, p=p, passed=verdict.fpure, detail=detail, force=force)


def cell_lemma4(n: int, force: bool = False) -> dict:
    return _lemma4_record(intlattice.antidiagonal_ones(n), force)


def _lemma4_record(A, force: bool) -> dict:
    report = intlattice.power_diagonal_check(A, force=force)
    detail = {"a": report.a, "b": report.b, "det_diag": report.det_diag}
    return _record("lemma4", n=A.n, passed=report.a == report.b, detail=detail, force=force)


def cell_lemma5(n: int, force: bool = False) -> dict:
    report = intlattice.verify_inverse_bands(n, force=force)
    ok = report.b2 and report.odd and report.span and abs(report.p_of_a) == 1
    detail = {
        "b2": report.b2,
        "odd": report.odd,
        "span": report.span,
        "p_of_a": report.p_of_a,
    }
    return _record("lemma5", n=n, passed=ok, detail=detail, force=force)


def _run_cell(cell) -> dict:
    name, kwargs = cell
    return _CELL_FUNCS[name](**kwargs)


_CELL_FUNCS = {
    "pofx": cell_pofx,
    "lemma2": cell_lemma2,
    "induction": cell_induction,
    "antidiag": cell_antidiag,
    "sop": cell_sop,
    "fedder": cell_fedder,
    "lemma4": cell_lemma4,
    "lemma5": cell_lemma5,
}


def _cell(check: str, n: int, key, v, force: bool = False) -> tuple:
    kwargs = {"n": n} if key is None else {"n": n, key: v}
    return check, dict(kwargs, force=True) if force else kwargs


def _suite_cells(max_n: int, primes, checks) -> list:
    """Every cell of the selected checks inside its window, up to max_n."""
    # run in WINDOWS order and sort the report afterwards: the run order sets the peak RSS
    cells = []
    for check, w in WINDOWS.items():
        if check not in checks:
            continue
        key, values = VARIANTS.get(check, (None, (None,)))
        if key == "p":
            values = primes
        for n in range(w.lo, min(max_n, w.hi) + 1):
            for v in values:
                if (n, v) not in w.skipped:
                    cells.append(_cell(check, n, key, v))
    return cells


def _thread_cap() -> int:
    raw = os.environ.get("DIAGVAR_THREADS")
    if raw is None:
        return 1
    try:
        v = int(raw)
    except ValueError:
        raise DiagvarError(f"DIAGVAR_THREADS must be an integer, got {raw!r}") from None
    if v < 0:
        raise DiagvarError("DIAGVAR_THREADS must be non-negative")
    if v == 0:
        return os.cpu_count() or 1
    return v


def _run_cells(cells) -> list:
    cap = _thread_cap()
    if cap > 1 and len(cells) > 1 and hasattr(os, "fork"):
        return _run_forked(cells, min(cap, len(cells)))
    return [_run_cell(c) for c in cells]


def _run_forked(cells, workers: int) -> list:
    """The records of cells, run on forked workers that pull cell indices
    from one pipe.  An error is re-raised as the serial run would: that of
    the lowest failing index."""
    import pickle
    import signal

    todo, feed = os.pipe()
    # every index as 2 bytes in one write: it fits PIPE_BUF, so the write
    # cannot block and each 2-byte read takes one whole index
    os.write(feed, b"".join(i.to_bytes(2, "little") for i in range(len(cells))))
    os.close(feed)
    live = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(cells, todo, w)
            os.close(w)
            live[pid] = r
        triples = []
        for pid, r in list(live.items()):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(live.pop(pid))
            if status:
                raise DiagvarError(f"suite worker {pid} exited with status {status}")
            triples += pickle.loads(data)
    finally:
        os.close(todo)
        for pid, r in live.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    triples.sort()
    for _, _, err in triples:
        if err is not None:
            raise err
    return [record for _, record, _ in triples]


def _work(cells, todo: int, out: int) -> None:
    """A forked worker's body: run the cells whose indices it reads from
    todo and pickle (index, record, exception) triples into out.  It ends
    in os._exit, so it never returns into the CLI or flushes the inherited
    stdio buffers a second time."""
    import pickle

    status = 1
    try:
        done = []
        while chunk := os.read(todo, 2):
            i = int.from_bytes(chunk, "little")
            try:
                done.append((i, _run_cell(cells[i]), None))
            except Exception as e:
                done.append((i, None, e))
        with open(out, "wb") as fh:
            pickle.dump(done, fh)
        status = 0
    finally:
        os._exit(status)


# -- command handlers ----------------------------------------------------------


def _handle_check(args) -> list:
    """The cells of args.command at --n, run serially: the variant chosen on
    the command line, or every variant of the check."""
    key, values = VARIANTS.get(args.command, (None, (None,)))
    chosen = vars(args).get(key)
    if chosen is not None:
        values = (chosen,)
    return [_run_cell(_cell(args.command, args.n, key, v, args.force)) for v in values]


def _handle_pofx(args) -> list:
    if args.mode and not args.spec:
        raise DiagvarError("--mode needs --spec tilde")
    if not (args.matrix or args.spec):
        return _handle_check(args)
    M = load_matrix(args.matrix, polymatrix_from_json) if args.matrix else diagvariety.generic_matrix(args.n)
    detail = {}
    if args.spec:
        # built in M's own context, which holds t when a file entry uses it
        asg = diagvariety._assignment(M.n, SPEC_LABELS.get(args.spec, args.spec), args.mode, M.ctx, M.dom)
        M = diagvariety.Specialization(asg).apply_to_matrix(M)
        detail["spec"] = args.spec
    P = diagvariety.compute_P(M, force=args.force)
    detail.update(poly=format_poly(P), terms=len(P.terms))
    return [_record("pofx", n=M.n, detail=detail, force=args.force)]


def _handle_lemma4(args) -> list:
    if args.matrix:
        return [_lemma4_record(load_matrix(args.matrix, intlattice.intmatrix_from_json), args.force)]
    return _handle_check(args)


def _record_key(r: dict):
    detail = r.get("detail") or {}
    return (
        r["check"],
        r.get("n") or 0,
        r.get("p") or 0,
        str(detail.get("mode") or detail.get("spec") or ""),
    )


def _handle_suite(args) -> list:
    primes = _parse_primes(args.primes)
    checks = _parse_checks(args.checks)
    if "fedder" in checks:
        for p in primes:
            if p not in WINDOWS["fedder"].primes:
                raise DiagvarError(f"fedder: p must be one of {WINDOWS['fedder'].primes}, got {p}")
    cells = _suite_cells(args.max_n, sorted(set(primes)), checks)
    if not cells:
        raise DiagvarError(f"the selected checks have no cells at --max-n {args.max_n}")
    return sorted(_run_cells(cells), key=_record_key)


def _parse_primes(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p = int(part)
        except ValueError:
            raise DiagvarError(f"--primes: {part!r} is not an integer") from None
        GF(p)  # validates primality
        out.append(p)
    if not out:
        raise DiagvarError("--primes must name at least one prime")
    return out


def _parse_checks(text: str | None) -> list:
    if not text:
        return list(SUITE_CHECKS)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in SUITE_CHECKS:
            raise DiagvarError(f"unknown check {part!r}; valid: {', '.join(SUITE_CHECKS)}")
        out.append(part)
    return out


# -- rendering -----------------------------------------------------------------


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def _render_text(records, command: str) -> str:
    if command == "pofx":
        return "\n".join(r["detail"].get("poly") or f"({r['detail'].get('terms')} terms)" for r in records) + "\n"
    lines = []
    for r in records:
        head = f"[{'PASS' if r['pass'] else 'FAIL'}] {r['check']}"
        if r.get("n") is not None:
            head += f" n={r['n']}"
        if r.get("p") is not None:
            head += f" p={r['p']}"
        detail = r.get("detail") or {}
        tail = " ".join(f"{k}={_fmt_value(v)}" for k, v in detail.items() if v is not None)
        lines.append(head + (" " + tail if tail else ""))
    total = len(records)
    passed = sum(1 for r in records if r["pass"])
    if command == "suite":
        lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines) + "\n"


def _render_json(records) -> str:
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


# -- argument parsing ----------------------------------------------------------


def positive_int(text: str) -> int:
    """The --n argument: argparse exits 2 on a size below 1, forced or not."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"matrix size must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagvar",
        description="Exact checks for the matrix-of-diagonals determinant P(X) = det(D(X)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, n_help=None, matrix_help=None):
        """A subcommand.  With matrix_help it also takes --matrix, which
        fixes the size and so excludes --n."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        if name in WINDOWS:
            n_help = n_help or f"matrix size; runs unforced at {describe(name)}"
            if matrix_help:
                size = p.add_mutually_exclusive_group(required=True)
                size.add_argument("--n", type=positive_int, help=n_help)
                size.add_argument("--matrix", help=matrix_help)
            else:
                p.add_argument("--n", type=positive_int, required=True, help=n_help)
            p.add_argument("--force", action="store_true", help="override size guards (marked in the report)")
        p.set_defaults(handler=_handle_check)
        return p

    p = add(
        "pofx",
        "compute P for the generic or a specialized matrix",
        n_help=f"matrix size; runs unforced at {describe('pofx')} for the generic matrix, "
        f"and specialized at n <= {LIMITS['polymatrix'].hi} while no determinant passes {PAIR_BUDGET} term pairs",
        matrix_help="JSON file with a polynomial matrix",
    )
    p.add_argument("--spec", choices=("s", "s0", "sop", "tilde"))
    p.add_argument("--mode", choices=diagvariety.TILDE_MODES, help="needs --spec tilde")
    p.set_defaults(handler=_handle_pofx)

    p = add("lemma2", "verify the corner-block factorization of P")
    p.add_argument("--mode", choices=diagvariety.TILDE_MODES)

    add("induction", "verify the anti-diagonal peeling identity")

    p = add("antidiag", "coefficient of the above-anti-diagonal monomial in specialized P")
    p.add_argument("--spec", choices=VARIANTS["antidiag"][1])

    add("sop", "normal form of P under the system-of-parameters specialization")

    p = add("fedder", "F-purity of the killed hypersurface over F_p")
    p.add_argument("--p", type=int, required=True)

    p = add(
        "lemma4",
        "power-diagonal span equivalences for a unimodular matrix",
        n_help=f"size of the anti-triangular ones matrix; the suite runs {describe('lemma4')}, "
        f"and any n <= {LIMITS['power_diagonal'].hi} runs unforced",
        matrix_help="JSON file with an integer matrix",
    )
    p.set_defaults(handler=_handle_lemma4)

    add("lemma5", "closed forms for the inverse of the anti-triangular ones matrix")

    p = add("suite", "run every check over its window, up to --max-n")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--primes", default=",".join(map(str, VARIANTS["fedder"][1])))
    windows = "; ".join(f"{c} {describe(c)}" for c in WINDOWS)
    p.add_argument("--checks", default=None, help=f"comma list; default all checks. Windows: {windows}")
    p.set_defaults(handler=_handle_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        records = args.handler(args)
    except (DiagvarError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = _render_json(records)
    else:
        payload = _render_text(records, args.command)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if all(r["pass"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
