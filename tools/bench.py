"""Paired benchmark runs of a parent checkout against this one, written to
BENCH_<label>.json at the root of this checkout.

    python3 tools/bench.py --label NAME --parent DIR

For each workload that BENCHMARK.json gates, 10 pairs of

    python3 perfbench/run.py --workload W --seed S --seconds 6 --trace 0

are run, one side in the parent checkout DIR and one in this checkout, each
with its own perfbench and src.  Pair i uses seed 71 + i on both sides, and
the side that runs first alternates from pair to pair, the parent first in
pair 0.  Give DIR a path as long as this checkout's, as a run's paths enter
its interpreter's memory.

The file holds, per workload and end-to-end metric of BENCHMARK.json, each
run's median (``runs``, one per pair), the median and q1-q3 of each side's
runs (``statistics.quantiles``, exclusive method) and the pairs each side
wins, by the metric's ``better`` direction, ties counting for neither.  Per
workload and side it keeps each run's attempted and failed operation counts
and the metadata run.py prints, without its raw sample lists; and whether
PYTHONDONTWRITEBYTECODE was set, which decides whether each run byte-compiles
diagvar afresh.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
FIRST_SEED = 71
PAIRS = 10
RUN_ARGS = ("--seconds", "6", "--trace", "0")
# run.py's per-sample lists; each run's medians are kept instead
SAMPLE_KEYS = ("wall_samples", "traced_wall_samples", "setup_samples")


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One run.py run in checkout: its result line and its metadata."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *RUN_ARGS]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    metas = [line[len("meta ") :] for line in lines if line.startswith("meta ")]
    if proc.returncode not in (0, 1) or not metas:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} measured nothing")
    meta = json.loads(metas[-1])
    for key in SAMPLE_KEYS:
        meta.pop(key, None)
    return result, meta


def summary(runs: list) -> dict:
    """One side's run medians, with their median and quartiles."""
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def wins(parent: list, change: list, better: str) -> dict:
    """The pairs each side wins; ties count for neither."""
    gain = [(p - c) if better == "lower" else (c - p) for p, c in zip(parent, change)]
    return {"parent": sum(g < 0 for g in gain), "change": sum(g > 0 for g in gain)}


def document(label: str, spec: dict, runs: dict, no_bytecode: bool) -> dict:
    """The BENCH file for runs[workload][side], a list of (result, meta)
    per pair, under the end-to-end metrics of spec, BENCHMARK.json."""
    pairs = len(next(iter(runs.values()))["parent"])
    workloads = {}
    for workload, by_side in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r, _ in by_side[side]] for side in SIDES}
            metrics[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **{side: summary(values[side]) for side in SIDES},
                "wins": wins(values["parent"], values["change"], m["better"]),
            }
        workloads[workload] = {
            "metrics": metrics,
            **{
                key: {side: [r[key] for r, _ in by_side[side]] for side in SIDES}
                for key in ("attempted", "failed")
            },
            "meta": {side: [meta for _, meta in by_side[side]] for side in SIDES},
        }
    return {
        "label": label,
        "command": ["perfbench/run.py", *RUN_ARGS],
        "pairs": pairs,
        "seeds": [FIRST_SEED + i for i in range(pairs)],
        "first": [SIDES[i % 2] for i in range(pairs)],
        "PYTHONDONTWRITEBYTECODE": no_bytecode,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired benchmark runs of a parent checkout against this one")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error("--label may hold only letters, digits, '.', '_' and '-'")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent} has no perfbench/run.py")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w["name"]: {side: [] for side in SIDES} for w in spec["workloads"]}
    for workload, by_side in runs.items():
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                by_side[side].append(run_once(checkouts[side], workload, FIRST_SEED + i))
            print(f"{workload} pair {i + 1}/{PAIRS}", file=sys.stderr)
    out = document(args.label, spec, runs, bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
