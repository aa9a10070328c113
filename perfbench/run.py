"""The diagvar benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; needs only the standard library and the
checkout's ``src/diagvar``.  Workloads:

- suite      ``diagvar suite --max-n 12 --primes 2,3,5,7 --format json``,
             serial: the north-star command, and the only one that runs
             every layer, the CLI included
- killed     compute_P of kill_s for n=2..6, antidiag_unit_coeff at n=6 and
             the Fedder cells: truncated mod-p products (pow_capped) and the
             bounded determinant, which the suite barely runs
- suite-par  the suite with DIAGVAR_THREADS=2: the CLI's process-pool path,
             whose wall time is set by the slowest cell
- lattice    the integer layer alone: the ones family n=2..20 (ZLattice
             coefficient swell), the inverse bands n=2..12 and one seeded
             random unimodular matrix per n=4..10 (the a = b = False branch)

BENCHMARK.json gates changes on suite, suite-par and killed.  lattice is
left out of the gate because its big-integer work is the most sensitive to
the host's speed swings; run it by hand for a change to intlattice.

A run first times ``setup_s`` (a fresh interpreter importing diagvar, and
diagvar.cli for the CLI workloads) several times, then runs passes until
``--seconds`` is used up.  Every pass is a fresh interpreter
(``passes.py``); its outputs are compared with ``pins.json`` (``check.py``).

``--trace 0`` reports the end-to-end metrics: the median pass ``wall_s``,
the median ``setup_s`` and the median ``peak_rss_mb`` of the pass process.
The fail ratio (failed / attempted operations) is printed by name and
carried by the result's ``attempted`` and ``failed`` counts.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: ``<module>.<function>.calls`` and ``.self_s`` for every
wrapped function, the exact counts, and the traced wall time, the tracing
overhead (traced minus untraced median wall) and the residual (traced wall
not covered by any span's self time).  The spans of the last traced pass
are written to ``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
a readable report and the run's metadata.  Exit status: 0 when every
operation passed, 1 when any failed, 2 when the checkout has no diagvar.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import load_pins, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "suite-par", "killed", "lattice")
SETUP_SAMPLES = 4
RUN_DEADLINE_S = 170  # every run ends within the 180 s a run may take

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SPANS = (
    "polyring.mul",
    "polyring.addsub",
    "polyring.pow_capped",
    "polyring.substitute",
    "polymatrix.det",
    "polymatrix.matmul",
    "polymatrix.char_poly",
    "diagvariety.diag_matrix",
    "diagvariety.compute_P",
    "diagvariety.verify_block_factorization",
    "diagvariety.verify_peeling_identity",
    "diagvariety.antidiag_unit_coeff",
    "diagvariety.sop_normal_form",
    "diagvariety.check_fpure",
    "fpurity.fedder_check",
    "intlattice.int_det",
    "intlattice.unimodular_inverse",
    "intlattice.int_pow",
    "intlattice.diag_of_powers_matrix",
    "intlattice.spans_Zn",
    "intlattice.power_diagonal_check",
    "intlattice.verify_inverse_bands",
    "cli.main",
)
COUNTS = (
    ("polyring.mul.term_pairs", "count"),
    ("polyring.addsub.terms_in", "count"),
    ("polyring.pow_capped.terms_out", "count"),
    ("polymatrix.det.terms_out", "count"),
    ("diagvariety.compute_P.terms_out", "count"),
    ("intlattice.zlattice.max_bits", "bit"),
)
PER_LAYER = (
    [(f"{s}.calls", "count") for s in SPANS]
    + [(f"{s}.self_s", "s") for s in SPANS]
    + list(COUNTS)
    + [("cli.records", "count"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.residual_s", "s")]
)


def child_env(workload: str, seed: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("DIAGVAR_THREADS", None)
    if workload == "suite-par":
        env["DIAGVAR_THREADS"] = "2"
    # the seed fixes string hashing too, so a seed reproduces its run
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def time_setup(workload: str, env: dict) -> float:
    modules = "diagvar, diagvar.cli" if workload.startswith("suite") else "diagvar"
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}"
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls for the exit in steps of up to
    # 50 ms, which would quantize the measurement
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, traced: bool, env: dict, timeout: float):
    """One pass in a fresh interpreter; None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    # its own session, so a timeout also kills suite-par's pool workers
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0:
        sys.stderr.write(err)
        return None
    return json.loads(out.splitlines()[-1])


def calibration_s() -> float:
    """A fixed pure-Python loop, timed, to record how fast the box was."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git installed
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "diagvar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "calibration_s": calibration_s(),
    }


def spread(xs) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, min {min(xs):.4f}, max {max(xs):.4f}, n={len(xs)}"


def layer_metrics(traced: list, untraced_wall: float) -> dict:
    values: dict = {name: [] for name, _ in PER_LAYER}
    for p in traced:
        tr = p["trace"]
        for span in SPANS:
            calls, self_s = tr["self_times"].get(span, (0, 0.0))
            values[f"{span}.calls"].append(calls)
            values[f"{span}.self_s"].append(self_s)
        for name, _ in COUNTS:
            values[name].append(tr["counts"].get(name, 0))
        values["cli.records"].append(tr["cli_records"])
        values["trace.wall_s"].append(p["wall_s"])
        covered = sum(s for _, s in tr["self_times"].values())
        values["trace.residual_s"].append(p["wall_s"] - covered)
    # counts repeat exactly from pass to pass; median_low keeps them whole
    out = {
        name: (statistics.median if unit == "s" else statistics.median_low)(values[name])
        for name, unit in PER_LAYER
        if values[name]
    }
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diagvar benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "diagvar" / "__init__.py").is_file():
        print(f"no diagvar package under {SRC}; run from the root of a diagvar checkout", file=sys.stderr)
        return 2

    pins = load_pins()
    env = child_env(args.workload, args.seed)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    # setup is sampled before the loop and again before every round, so its
    # median spans the run as the pass median does
    setups = [time_setup(args.workload, env) for _ in range(SETUP_SAMPLES)]

    kinds = (False, True) if args.trace else (False,)
    passes: dict = {k: [] for k in kinds}
    attempted = 0
    problems: dict = {}
    t0 = time.perf_counter()
    rounds = 0
    while True:
        setups.append(time_setup(args.workload, env))
        for traced in kinds:
            left = RUN_DEADLINE_S - (time.perf_counter() - started)
            p = run_pass(args.workload, args.seed, traced, env, left)
            n, probs = verify(args.workload, p["outputs"] if p else [], pins)
            attempted += n
            for label, why in probs.items():
                problems.setdefault(label, []).append(why)
            if p is not None:
                passes[traced].append(p)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > args.seconds or time.perf_counter() - started > RUN_DEADLINE_S / 2:
            break
    failed = sum(len(v) for v in problems.values())

    walls = [p["wall_s"] for p in passes[False]]
    rss = [p["peak_rss_kb"] / 1024 for p in passes[False]]
    print(f"workload {args.workload}, seed {args.seed}, {rounds} round(s) in {time.perf_counter() - t0:.1f} s")
    for label, whys in sorted(problems.items()):
        print(f"FAIL {label}: {whys[0]}" + (f" (and {len(whys) - 1} more passes)" if len(whys) > 1 else ""))
    print(f"fail_ratio    {failed}/{attempted} operations ({failed / max(attempted, 1):.4f})")
    measured = bool(walls) and all(passes.values())
    metrics: dict = {}
    if measured:
        print(f"wall_s        {statistics.median(walls):.4f} s median ({spread(walls)})")
        print(f"setup_s       {statistics.median(setups):.4f} s median ({spread(setups)})")
        print(f"peak_rss_mb   {statistics.median(rss):.2f} MiB median ({spread(rss)})")
        if args.trace:
            values = layer_metrics(passes[True], statistics.median(walls))
            for name, unit in PER_LAYER:
                print(f"  {name:48s} {values[name]:.6g} {unit}")
            wall, resid = values["trace.wall_s"], values["trace.residual_s"]
            print(
                f"span self times cover {wall - resid:.4f} s of the traced wall {wall:.4f} s; "
                f"residual {resid:.4f} s ({resid / wall:.2%}); tracing overhead {values['trace.overhead_s']:.4f} s"
            )
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            values = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
            metrics = {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END}
    meta.update(
        wall_samples=walls,
        traced_wall_samples=[p["wall_s"] for p in passes.get(True, [])],
        setup_samples=setups,
    )
    print("meta " + json.dumps(meta))
    correct = failed == 0 and measured
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
