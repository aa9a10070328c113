"""Compare a pass's outputs with the pinned values in pins.json.

An operation fails when it raised, when its result differs from its pin,
when the suite reports it as FAIL (``pass`` is pinned), when it is missing,
or when it is not pinned at all: the pinned label set is the workload's
operation set, so a changed suite guard table reads as a changed workload
rather than as a speed change.  The seeded unimodular matrices of
``lattice`` cannot be pinned; Lemma 4 requires a == b on them instead.
"""

from __future__ import annotations

import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
# workload -> key of its pins in pins.json
PIN_SET = {"suite": "suite", "suite-par": "suite", "killed": "killed", "lattice": "lattice"}
UNPINNED_PREFIX = "power_diagonal_check unimodular "


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify(workload: str, outputs, pins: dict):
    """Return (attempted, problems): problems maps each failed operation's
    label to the reason."""
    expected = pins[PIN_SET[workload]]
    problems: dict = {}
    seen = set()
    for label, result, error in outputs:
        seen.add(label)
        if error is not None:
            problems[label] = f"raised or exited with {error}"
        elif label in expected:
            if result != expected[label]:
                problems[label] = f"got {result}, pinned {expected[label]}"
        elif not label.startswith(UNPINNED_PREFIX):
            problems[label] = "operation is not pinned"
        elif result.get("a") != result.get("b"):
            problems[label] = f"Lemma 4 conditions disagree: {result}"
    for label in expected.keys() - seen:
        problems[label] = "missing from the output"
    return len(seen | expected.keys()), problems
