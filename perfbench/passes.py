"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/passes.py --workload killed --seed 1 --trace 0

Imports diagvar from the checkout's ``src`` directory, runs every operation
of the workload once, and prints one JSON line: the pass's wall time (from
the first operation to the last output digest, imports excluded), peak
resident memory, one ``[label, result, error]`` entry per operation and,
with ``--trace 1``, the per-layer self times and counts.  Comparing the
results with the pinned values is left to the caller (``check.py``).

Each pass needs its own process: ``diagvariety._killed_P`` is an
``lru_cache``, so a second pass in one process would skip P.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

SUITE_ARGV = ["suite", "--max-n", "12", "--primes", "2,3,5,7", "--format", "json"]
# fields of a suite record that can decide a verdict; the rest is display
VERDICT_FIELDS = ("terms", "degree", "coeff", "sign", "exponent", "fpure", "witness", "det_diag", "p_of_a")
FEDDER_CELLS = [(n, p) for n in range(2, 7) for p in (2, 3, 5, 7) if (n, p) != (6, 7)] + [(5, 11), (5, 13)]
INTLATTICE_SPANS = (
    "int_det",
    "unimodular_inverse",
    "int_pow",
    "diag_of_powers_matrix",
    "spans_Zn",
    "power_diagonal_check",
    "verify_inverse_bands",
)
DIAGVARIETY_SPANS = (
    "diag_matrix",
    "compute_P",
    "verify_block_factorization",
    "verify_peeling_identity",
    "antidiag_unit_coeff",
    "sop_normal_form",
    "check_fpure",
)


def import_diagvar():
    """Import diagvar from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import diagvar
    import diagvar.cli

    if Path(diagvar.__file__).resolve().parent != src / "diagvar":
        raise ImportError(f"diagvar imported from {diagvar.__file__}, expected {src / 'diagvar'}")
    return diagvar


def random_unimodular(rng: random.Random, n: int):
    """Identity after 2n random row additions with multiplier +-1, so the
    determinant is 1 by construction."""
    from diagvar.intlattice import IntMatrix

    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


# -- workloads -----------------------------------------------------------------
# each builds its inputs from the seed and returns run(tracer), which performs
# the operations and returns one [label, result, error] entry per operation


def run_ops(ops, tracer):
    """Run (label, thunk) operations; a thunk returns a JSON-ready dict."""
    outputs = []
    for label, thunk in ops:
        if tracer is not None:
            tracer.op = label
        try:
            outputs.append([label, thunk(), None])
        except Exception as e:  # an operation that raises counts as failed
            outputs.append([label, None, f"{type(e).__name__}: {e}"])
    return outputs


def suite_workload(seed: int):
    from diagvar import cli

    def run(tracer):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(SUITE_ARGV)
        except Exception as e:
            return [["diagvar suite", None, f"{type(e).__name__}: {e}"]]
        out = []
        for r in json.loads(buf.getvalue()):
            label = " ".join(
                [r["check"], f"n={r['n']}"]
                + ([f"p={r['p']}"] if r["p"] is not None else [])
                + [str(r["detail"][k]) for k in ("mode", "spec") if k in r["detail"]]
            )
            result = {"pass": r["pass"]}
            result.update((k, r["detail"][k]) for k in VERDICT_FIELDS if k in r["detail"])
            out.append([label, result, None])
        if code != 0:
            out.append(["diagvar suite", None, f"exit code {code}"])
        return out

    return run


def killed_workload(seed: int):
    from diagvar import diagvariety, format_poly

    def kill_s_P(n):
        X = diagvariety.generic_matrix(n)
        P = diagvariety.compute_P(diagvariety.build_specialization(n, "kill_s").apply_to_matrix(X))
        return {"terms": len(P.terms), "sha256": hashlib.sha256(format_poly(P).encode()).hexdigest()}

    ops = [(f"compute_P kill_s n={n}", lambda n=n: kill_s_P(n)) for n in range(2, 7)]
    ops += [
        (f"antidiag_unit_coeff n=6 {spec}", lambda spec=spec: {"coeff": diagvariety.antidiag_unit_coeff(6, spec)})
        for spec in ("kill_s", "kill_s0")
    ]
    for n, p in FEDDER_CELLS:

        def fedder(n=n, p=p):
            v = diagvariety.check_fpure(n, p, force=True)
            return {"fpure": v.fpure, "witness": list(v.witness) if v.witness is not None else None}

        ops.append((f"check_fpure n={n} p={p}", fedder))
    return lambda tracer: run_ops(ops, tracer)


def lattice_workload(seed: int):
    from diagvar import intlattice

    def power_check(A):
        r = intlattice.power_diagonal_check(A, force=True)
        return {"a": r.a, "b": r.b, "det_diag": r.det_diag}

    def bands(n):
        r = intlattice.verify_inverse_bands(n)
        return {"b2": r.b2, "odd": r.odd, "span": r.span, "p_of_a": r.p_of_a}

    ops = [(f"power_diagonal_check ones n={n}", lambda n=n: power_check(intlattice.antidiagonal_ones(n))) for n in range(2, 21)]
    ops += [(f"verify_inverse_bands n={n}", lambda n=n: bands(n)) for n in range(2, 13)]
    rng = random.Random(seed)
    for n in range(4, 11):
        A = random_unimodular(rng, n)

        def unimodular(A=A):
            r = intlattice.power_diagonal_check(A)
            return {"a": r.a, "b": r.b}

        ops.append((f"power_diagonal_check unimodular n={n}", unimodular))
    return lambda tracer: run_ops(ops, tracer)


WORKLOADS = {
    "suite": suite_workload,
    "suite-par": suite_workload,
    "killed": killed_workload,
    "lattice": lattice_workload,
}


# -- tracing -------------------------------------------------------------------


def _terms_of(args, result):
    return sum(len(a.terms) for a in args if hasattr(a, "terms"))


def _pairs(args, result):
    return len(args[0].terms) * len(args[1].terms)


def _terms_out(args, result):
    return len(result.terms)


def install_tracing(tracer, workload: str) -> None:
    """Wrap the layer entry points.  For suite-par only the CLI boundary is
    wrapped: its cells run in pool workers, whose spans would be lost."""
    from diagvar import cli, diagvariety, fpurity, intlattice, polymatrix, polyring

    tracer.wrap(cli, "main", "cli.main")
    if workload == "suite-par":
        return
    run_cell = cli._run_cell

    def labelled_cell(cell):
        tracer.op = cell[0] + " " + " ".join(f"{k}={v}" for k, v in cell[1].items())
        return run_cell(cell)

    cli._run_cell = labelled_cell

    M = polyring.MvPolynomial
    # every product (__mul__, the determinant DP, pow_capped) goes through _mul
    tracer.wrap(M, "_mul", "polyring.mul", leaf=True, count=("term_pairs", _pairs))
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        tracer.wrap(M, attr, "polyring.addsub", leaf=True, count=("terms_in", _terms_of))
    tracer.wrap(M, "pow_capped", "polyring.pow_capped", leaf=True, count=("terms_out", _terms_out))
    tracer.wrap(M, "substitute", "polyring.substitute", leaf=True)

    PM = polymatrix.PolyMatrix
    # det() and the bounded determinant of antidiag_unit_coeff both run _det
    tracer.wrap(PM, "_det", "polymatrix.det", count=("terms_out", _terms_out))
    tracer.wrap(PM, "__mul__", "polymatrix.matmul")
    tracer.wrap(PM, "char_poly", "polymatrix.char_poly")

    for name in DIAGVARIETY_SPANS:
        count = ("terms_out", _terms_out) if name == "compute_P" else None
        tracer.wrap(diagvariety, name, f"diagvariety.{name}", count=count)
    diagvariety.fedder_check = tracer.wrap(fpurity, "fedder_check", "fpurity.fedder_check")

    for name in INTLATTICE_SPANS:
        tracer.wrap(intlattice, name, f"intlattice.{name}")
    add = intlattice.ZLattice.add

    def add_and_measure(lat, vec):
        grew = add(lat, vec)
        bits = max((abs(x).bit_length() for row in lat.rows for x in row), default=0)
        key = "intlattice.zlattice.max_bits"
        tracer.counts[key] = max(tracer.counts[key], bits)
        return grew

    intlattice.ZLattice.add = add_and_measure


# -- entry point ---------------------------------------------------------------


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import_diagvar()
    run = WORKLOADS[workload](seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracing(tracer, workload)

    t0 = time.perf_counter()
    outputs = run(tracer)
    wall = time.perf_counter() - t0

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {"wall_s": wall, "peak_rss_kb": rss_kb, "outputs": outputs, "trace": None}
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.jsonl")
        out["trace"] = {
            "self_times": tracer.self_times(),
            "counts": dict(tracer.counts),
            "cli_records": sum(1 for o in outputs if o[1] is not None) if workload.startswith("suite") else 0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
