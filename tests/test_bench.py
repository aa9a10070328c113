"""The BENCH files `tools/bench.py` writes: the schema of every committed
one, each summary checked against the runs it summarizes, and the writer's
own output held to the same checks."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
META_KEYS = {"workload", "seed", "git_sha", "src_sha256", "python", "nproc", "loadavg_start", "calibration_s"}


def check_bench(doc: dict) -> None:
    """AssertionError unless doc is a BENCH file of 10 alternating pairs per
    workload BENCHMARK.json gates, whose medians, quartiles and wins are
    those of its runs."""
    pairs = doc["pairs"]
    assert pairs == 10
    assert doc["command"] == ["perfbench/run.py", "--seconds", "6", "--trace", "0"]
    assert doc["seeds"] == list(range(71, 71 + pairs))
    assert doc["first"] == [SIDES[i % 2] for i in range(pairs)]
    assert isinstance(doc["PYTHONDONTWRITEBYTECODE"], bool)
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, w in doc["workloads"].items():
        assert list(w["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            got = w["metrics"][m["name"]]
            assert (got["unit"], got["better"], got["bound"]) == (m["unit"], m["better"], m["bound"])
            for side in SIDES:
                runs = got[side]["runs"]
                assert len(runs) == pairs
                q1, _, q3 = statistics.quantiles(runs, n=4)
                assert got[side]["median"] == statistics.median(runs), (name, m["name"], side)
                assert (got[side]["q1"], got[side]["q3"]) == (q1, q3), (name, m["name"], side)
            sign = 1 if m["better"] == "lower" else -1
            gains = [sign * (p - c) for p, c in zip(got["parent"]["runs"], got["change"]["runs"])]
            assert got["wins"] == {"parent": sum(g < 0 for g in gains), "change": sum(g > 0 for g in gains)}
        for side in SIDES:
            attempted, failed = w["attempted"][side], w["failed"][side]
            assert len(attempted) == len(failed) == pairs
            assert all(isinstance(f, int) and 0 <= f <= a for a, f in zip(attempted, failed))
            metas = w["meta"][side]
            assert [m["seed"] for m in metas] == doc["seeds"]
            assert all(META_KEYS <= set(m) and m["workload"] == name for m in metas)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_each_committed_bench_file_holds_the_summaries_of_its_runs(path):
    doc = json.loads(path.read_text())
    assert path.name == f"BENCH_{doc['label']}.json"
    check_bench(doc)


def test_the_writer_stores_the_median_and_quartiles_of_each_sides_runs():
    # ten runs per side, whose median differs from that of the last nine
    values = {
        "parent": [5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        "change": [4.5, 0.5, 2.5, 2.0, 3.5, 7.0, 6.0, 7.5, 8.5, 9.5],
    }
    runs = {
        w["name"]: {
            side: [
                (
                    {"metrics": {m["name"]: {"value": v} for m in SPEC["end_to_end"]}, "attempted": 69, "failed": 0},
                    {key: None for key in META_KEYS} | {"workload": w["name"], "seed": 71 + i},
                )
                for i, v in enumerate(values[side])
            ]
            for side in SIDES
        }
        for w in SPEC["workloads"]
    }
    doc = bench.document("synthetic", SPEC, runs, False)
    check_bench(doc)
    wall = doc["workloads"]["suite"]["metrics"]["wall_s"]
    assert (wall["parent"]["median"], wall["change"]["median"]) == (5.5, 5.25)
    assert wall["wins"] == {"parent": 2, "change": 8}


def _checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    return path


def test_a_parent_path_of_another_length_is_refused(tmp_path, monkeypatch, capsys):
    # a run's paths enter its interpreter's memory, so the two sides must
    # run from paths of one length
    monkeypatch.setattr(bench, "ROOT", _checkout(tmp_path / "change"))
    for name in ("parent1", "paren"):
        with pytest.raises(SystemExit) as exit_:
            bench.main(["--label", "x", "--parent", str(_checkout(tmp_path / name))])
        assert exit_.value.code == 2
        assert "they must match" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/BENCH_*.json"))


def test_a_parent_path_of_the_same_length_is_run(tmp_path, monkeypatch):
    change = _checkout(tmp_path / "change")
    (change / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(bench, "ROOT", change)
    ran = []

    def run_once(checkout, workload, seed):
        ran.append(checkout)
        result = {"metrics": {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}, "attempted": 1, "failed": 0}
        return result, {key: None for key in META_KEYS} | {"workload": workload, "seed": seed}

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--label", "x", "--parent", str(_checkout(tmp_path / "parent"))]) == 0
    assert set(ran) == {change, tmp_path / "parent"}
    check_bench(json.loads((change / "BENCH_x.json").read_text()))
