"""Command-line front end: compute objects, run individual checks, or run
the whole desk-scale suite with machine-readable reports.

Exit codes: 0 when every executed check passed, 1 when any check failed,
2 on usage errors or guard violations.  Reports are deterministic for a
fixed configuration; DIAGVAR_THREADS caps suite parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import diagvariety, intlattice
from .errors import DiagvarError, NormalFormError
from .guards import WINDOWS, describe
from .polymatrix import polymatrix_from_json
from .polyring import GF, format_poly

SUITE_CHECKS = tuple(WINDOWS)
DEFAULT_PRIMES = (2, 3, 5)
SPEC_LABELS = {"s": "kill_s", "s0": "kill_s0"}
# the cells a check runs at one n, as (keyword, values); fedder's values are
# the selected primes
VARIANTS = {"lemma2": ("mode", diagvariety.TILDE_MODES), "antidiag": ("spec", tuple(SPEC_LABELS))}


def load_matrix(path: str, kind: str):
    """Load a matrix JSON file; kind is 'poly' or 'int'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise DiagvarError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DiagvarError(f"{path}: invalid JSON: {e}") from e
    if kind == "poly":
        return polymatrix_from_json(obj)
    if kind == "int":
        return intlattice.intmatrix_from_json(obj)
    raise ValueError(f"unknown matrix kind {kind!r}")


def _record(check: str, n=None, p=None, passed=True, detail=None, force=False) -> dict:
    """One report record; a record of work run past a size guard says so."""
    detail = detail or {}
    if force:
        detail["forced"] = True
    return {"check": check, "n": n, "p": p, "pass": bool(passed), "detail": detail}


# -- one function per suite cell; each returns a single report record ---------


def cell_pofx(n: int, force: bool = False) -> dict:
    P = diagvariety.compute_P(diagvariety.generic_matrix(n), force=force)
    expected = n * (n - 1) // 2
    degree = P.homogeneous_degree()
    detail = {
        "poly": format_poly(P) if len(P.terms) <= 64 else None,
        "terms": len(P.terms),
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
    try:
        nf = diagvariety.sop_normal_form(n, force=force)
    except NormalFormError as e:
        return _record("sop", n=n, passed=False, detail={"error": str(e)}, force=force)
    return _record("sop", n=n, detail={"sign": nf.sign, "exponent": nf.exponent}, force=force)


def cell_fedder(n: int, p: int, force: bool = False) -> dict:
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


def cell_lemma5(n: int, j_max: int | None = None, force: bool = False) -> dict:
    report = intlattice.verify_inverse_bands(n, j_max, force=force)
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


def _suite_cells(max_n: int, primes, checks) -> list:
    """Every cell of the selected checks inside its window, up to max_n."""
    variants = dict(VARIANTS, fedder=("p", primes))
    cells = []
    for check, w in WINDOWS.items():
        if check not in checks:
            continue
        key, values = variants.get(check, (None, (None,)))
        for n in range(w.lo, min(max_n, w.hi) + 1):
            for v in values:
                if (n, v) not in w.skipped:
                    cells.append((check, {"n": n} if key is None else {"n": n, key: v}))
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
    if cap > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cap, len(cells))) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]


# -- command handlers ----------------------------------------------------------


def _handle_pofx(args) -> list:
    if args.matrix:
        M = load_matrix(args.matrix, "poly")
        if args.spec:
            spec = diagvariety.build_specialization(M.n, SPEC_LABELS.get(args.spec, args.spec), args.mode)
            M = spec.apply_to_matrix(M)
        P = diagvariety.compute_P(M, force=args.force)
        detail = {"poly": format_poly(P), "terms": len(P.terms)}
        return [_record("pofx", n=M.n, detail=detail, force=args.force)]
    n = _require_n(args)
    if args.spec:
        M = diagvariety.generic_matrix(n)
        spec = diagvariety.build_specialization(n, SPEC_LABELS.get(args.spec, args.spec), args.mode)
        P = diagvariety.compute_P(spec.apply_to_matrix(M), force=args.force)
        detail = {"poly": format_poly(P), "terms": len(P.terms), "spec": args.spec}
        return [_record("pofx", n=n, detail=detail, force=args.force)]
    return [cell_pofx(n, force=args.force)]


def _require_n(args) -> int:
    if args.n is None:
        raise DiagvarError("--n is required")
    return args.n


def _handle_lemma2(args) -> list:
    modes = [args.mode] if args.mode else VARIANTS["lemma2"][1]
    return [cell_lemma2(args.n, mode, force=args.force) for mode in modes]


def _handle_induction(args) -> list:
    return [cell_induction(args.n, force=args.force)]


def _handle_antidiag(args) -> list:
    specs = [args.spec] if args.spec else VARIANTS["antidiag"][1]
    return [cell_antidiag(args.n, spec, force=args.force) for spec in specs]


def _handle_sop(args) -> list:
    return [cell_sop(args.n, force=args.force)]


def _handle_fedder(args) -> list:
    GF(args.p)  # validates primality
    return [cell_fedder(args.n, args.p, force=args.force)]


def _handle_lemma4(args) -> list:
    if args.matrix:
        return [_lemma4_record(load_matrix(args.matrix, "int"), args.force)]
    return [cell_lemma4(_require_n(args), force=args.force)]


def _handle_lemma5(args) -> list:
    return [cell_lemma5(args.n, args.j_max, force=args.force)]


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
        p = int(part)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagvar",
        description="Exact checks for the matrix-of-diagonals determinant P(X) = det(D(X)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, n_help=None, n_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        if name in WINDOWS:
            n_help = n_help or f"matrix size; runs unforced at {describe(name)}"
            p.add_argument("--n", type=int, required=n_required, help=n_help)
            p.add_argument("--force", action="store_true", help="override size guards (marked in the report)")
        return p

    p = add(
        "pofx",
        "compute P for the generic or a specialized matrix",
        n_help=f"matrix size; runs unforced at {describe('pofx')} for the generic matrix, "
        f"and at n <= {diagvariety.SPECIALIZED_GUARD} specialized",
        n_required=False,
    )
    p.add_argument("--spec", choices=("s", "s0", "sop", "tilde"))
    p.add_argument("--mode", choices=diagvariety.TILDE_MODES)
    p.add_argument("--matrix", help="JSON file with a polynomial matrix")
    p.set_defaults(handler=_handle_pofx)

    p = add("lemma2", "verify the corner-block factorization of P")
    p.add_argument("--mode", choices=diagvariety.TILDE_MODES)
    p.set_defaults(handler=_handle_lemma2)

    p = add("induction", "verify the anti-diagonal peeling identity")
    p.set_defaults(handler=_handle_induction)

    p = add("antidiag", "coefficient of the above-anti-diagonal monomial in specialized P")
    p.add_argument("--spec", choices=VARIANTS["antidiag"][1])
    p.set_defaults(handler=_handle_antidiag)

    p = add("sop", "normal form of P under the system-of-parameters specialization")
    p.set_defaults(handler=_handle_sop)

    p = add("fedder", "F-purity of the killed hypersurface over F_p")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(handler=_handle_fedder)

    p = add(
        "lemma4",
        "power-diagonal span equivalences for a unimodular matrix",
        n_help=f"size of the anti-triangular ones matrix; the suite runs {describe('lemma4')}, "
        f"and any n <= {intlattice.POWER_SPAN_GUARD} runs unforced",
        n_required=False,
    )
    p.add_argument("--matrix", help="JSON file with an integer matrix")
    p.set_defaults(handler=_handle_lemma4)

    p = add("lemma5", "closed forms for the inverse of the anti-triangular ones matrix")
    p.add_argument("--j-max", type=int, default=None, dest="j_max")
    p.set_defaults(handler=_handle_lemma5)

    p = add("suite", "run every check over its window, up to --max-n")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--primes", default=",".join(str(q) for q in DEFAULT_PRIMES))
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if all(r["pass"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
