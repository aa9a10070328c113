"""The mutation harness's table stays in step with the source: each
snippet occurs exactly once in its file, and each named test exists.  The
mutants themselves run only under `python3 tools/mutants.py`."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_snippet_occurs_once_and_its_tests_exist(m):
    assert mutants.mutated((ROOT / m.path).read_text(), m) != (ROOT / m.path).read_text()
    for node in m.tests:
        path, name = node.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(), node
