"""Self-test of the benchmark's output checks: every check can fail.

    python3 perfbench/selftest.py

Runs one real pass of suite, killed and lattice and requires that each
matches pins.json.  Then, for every pinned value of every operation, it
corrupts that one value and requires the check to fail exactly that
operation, so fail_ratio rises above zero.  It also requires failures for a
missing operation, an unpinned one, one that raised, and a seeded
unimodular matrix on which Lemma 4's conditions disagree.  Finally it
checks that BENCHMARK.json names exactly the metrics run.py reports.
Exit status 0 when all of this holds.
"""

from __future__ import annotations

import copy
import json
import sys

from check import UNPINNED_PREFIX, load_pins, verify
from run import END_TO_END, PER_LAYER, ROOT, child_env, run_pass

SEED = 1


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value[:-1] + ("0" if value[-1:] != "0" else "1")
    if isinstance(value, list):
        return value + [0]
    if value is None:
        return 0
    raise TypeError(f"no corruption for {value!r}")


def main() -> int:
    pins = load_pins()
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    for workload in ("suite", "killed", "lattice"):
        p = run_pass(workload, SEED, False, child_env(workload, SEED), 170)
        if p is None:
            errors.append(f"{workload}: the pass did not complete")
            continue
        outputs = p["outputs"]
        attempted, problems = verify(workload, outputs, pins)
        expect(not problems, f"{workload}: real outputs fail: {problems}")
        corruptions = 0
        for label, fields in pins[workload].items():
            for field, value in fields.items():
                bad = copy.deepcopy(pins)
                bad[workload][label][field] = corrupted(value)
                _, probs = verify(workload, outputs, bad)
                expect(set(probs) == {label}, f"{workload}: corrupting {label}.{field} failed {sorted(probs)}")
                corruptions += 1
        first = outputs[0][0]
        _, probs = verify(workload, outputs[1:], pins)
        expect(set(probs) == {first}, f"{workload}: a missing operation is not caught")
        _, probs = verify(workload, outputs + [["extra op", {}, None]], pins)
        expect(set(probs) == {"extra op"}, f"{workload}: an unpinned operation is not caught")
        _, probs = verify(workload, [[first, None, "RuntimeError: boom"]] + outputs[1:], pins)
        expect(set(probs) == {first}, f"{workload}: a raising operation is not caught")
        print(f"{workload}: real outputs pass ({attempted} operations); {corruptions} corrupted pins each fail 1/{attempted}")

        if workload == "lattice":
            bad = [
                [label, {**r, "a": not r["a"]} if label.startswith(UNPINNED_PREFIX) else r, e]
                for label, r, e in outputs
            ]
            _, probs = verify(workload, bad, pins)
            n_random = sum(label.startswith(UNPINNED_PREFIX) for label, _, _ in outputs)
            expect(len(probs) == n_random > 0, "lattice: a Lemma 4 disagreement is not caught")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        expect(listed == list(reported), f"BENCHMARK.json {key} differs from the metrics run.py reports")

    for e in errors:
        print("SELFTEST FAIL:", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
