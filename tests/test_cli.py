"""Command-line behavior: output formats, exit codes, determinism, and
matrix loading diagnostics."""

import json

import pytest

from diagvar import cli
from diagvar.errors import NormalFormError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pofx_n2_prints_polynomial(capsys):
    code, out, err = run(capsys, "pofx", "--n", "2")
    assert code == 0
    assert out == "-x_1_1 + x_2_2\n"


def test_pofx_specialized(capsys):
    code, out, _ = run(capsys, "pofx", "--n", "3", "--spec", "s")
    assert code == 0
    assert out == "x_1_1*x_1_2*x_2_1\n"


def test_sop_json_record(capsys):
    code, out, _ = run(capsys, "sop", "--n", "4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == [
        {
            "check": "sop",
            "detail": {"exponent": 6, "sign": -1},
            "n": 4,
            "p": None,
            "pass": True,
        }
    ]


def test_fedder_cell(capsys):
    code, out, _ = run(capsys, "fedder", "--n", "3", "--p", "2", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["pass"] is True
    assert record["detail"]["witness"] == [1, 1, 1]


def test_fedder_rejects_composite_p(capsys):
    code, _, err = run(capsys, "fedder", "--n", "3", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_lemma2_runs_all_modes_by_default(capsys):
    code, out, _ = run(capsys, "lemma2", "--n", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["detail"]["mode"] for r in records] == ["row", "column", "both"]
    assert all(r["pass"] for r in records)


def test_antidiag_both_specs(capsys):
    code, out, _ = run(capsys, "antidiag", "--n", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["detail"]["spec"] for r in records] == ["s", "s0"]
    assert all(r["detail"]["coeff"] == 1 for r in records)


def test_lemma4_and_lemma5(capsys):
    code, out, _ = run(capsys, "lemma4", "--n", "4", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["detail"]["a"] and record["detail"]["b"]

    code, out, _ = run(capsys, "lemma5", "--n", "6", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["pass"]
    assert abs(record["detail"]["p_of_a"]) == 1


def test_guard_violation_exits_2_and_names_guard(capsys):
    code, _, err = run(capsys, "pofx", "--n", "9")
    assert code == 2
    assert "guard" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["lemma5"])  # missing required --n
    assert e.value.code == 2


def test_unknown_check_in_suite(capsys):
    code, _, err = run(capsys, "suite", "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_suite_with_no_cells_is_a_usage_error(capsys):
    code, out, err = run(capsys, "suite", "--max-n", "0")
    assert code == 2
    assert out == ""
    assert "no cells" in err


def test_suite_rejects_fedder_prime_outside_table(capsys):
    code, out, err = run(capsys, "suite", "--primes", "11", "--checks", "fedder")
    assert code == 2
    assert out == ""
    assert "got 11" in err


def test_suite_small_all_pass(capsys):
    code, out, _ = run(
        capsys, "suite", "--max-n", "3", "--primes", "2,3", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert records and all(r["pass"] for r in records)
    checks = {r["check"] for r in records}
    assert checks == {"pofx", "lemma2", "induction", "antidiag", "sop", "fedder", "lemma4", "lemma5"}


def test_suite_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "suite", "--max-n", "2", "--primes", "2", "--format", "json")
    _, out2, _ = run(capsys, "suite", "--max-n", "2", "--primes", "2", "--format", "json")
    assert out1 == out2


def test_suite_records_are_canonically_ordered(capsys):
    _, out, _ = run(capsys, "suite", "--max-n", "3", "--primes", "3,2", "--format", "json")
    records = json.loads(out)
    keys = [
        (r["check"], r["n"] or 0, r["p"] or 0, str(r["detail"].get("mode") or r["detail"].get("spec") or ""))
        for r in records
    ]
    assert keys == sorted(keys)


def test_suite_respects_checks_subset(capsys):
    code, out, _ = run(
        capsys, "suite", "--max-n", "4", "--checks", "sop,lemma5", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert {r["check"] for r in records} == {"sop", "lemma5"}


def test_suite_parallel_matches_serial(capsys, monkeypatch):
    _, serial, _ = run(capsys, "suite", "--max-n", "2", "--primes", "2,3", "--format", "json")
    monkeypatch.setenv("DIAGVAR_THREADS", "2")
    _, parallel, _ = run(capsys, "suite", "--max-n", "2", "--primes", "2,3", "--format", "json")
    assert serial == parallel


def test_bad_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("DIAGVAR_THREADS", "many")
    code, _, err = run(capsys, "suite", "--max-n", "2")
    assert code == 2
    assert "DIAGVAR_THREADS" in err


def test_failing_check_exits_1(capsys, monkeypatch):
    def broken(n, force=False):
        raise NormalFormError("synthetic defect")

    monkeypatch.setattr(cli.diagvariety, "sop_normal_form", broken)
    code, out, _ = run(capsys, "sop", "--n", "3", "--format", "json")
    assert code == 1
    (record,) = json.loads(out)
    assert record["pass"] is False
    assert "synthetic defect" in record["detail"]["error"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "sop", "--n", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["check"] == "sop"


def test_load_int_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 1], [1, 0]]}))
    code, out, _ = run(capsys, "lemma4", "--matrix", str(path), "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["detail"]["a"] is True


def test_load_matrix_ragged_names_row(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 1], [1]]}))
    code, _, err = run(capsys, "lemma4", "--matrix", str(path))
    assert code == 2
    assert "row 2" in err


def test_load_poly_matrix_unknown_variable(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [["x_1_1", "x_9_9"], ["0", "0"]]}))
    code, _, err = run(capsys, "pofx", "--matrix", str(path))
    assert code == 2
    assert "x_9_9" in err


def test_load_poly_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"n": 2, "entries": [["1", "x_1_1"], ["1", "x_2_2"]]})
    )
    code, out, _ = run(capsys, "pofx", "--matrix", str(path))
    assert code == 0
    # P of a constant-plus-variable matrix, printed as text
    assert out.strip()


@pytest.mark.parametrize(
    "argv, matrix",
    [
        pytest.param(["induction", "--n", "6"], None, id="induction"),
        pytest.param(["pofx", "--matrix"], {"n": 2, "entries": [["1", "x_1_1"], ["1", "x_2_2"]]}, id="pofx-matrix"),
        pytest.param(["pofx", "--n", "3", "--spec", "s"], None, id="pofx-spec"),
        pytest.param(["lemma4", "--matrix"], {"n": 2, "entries": [[1, 1], [1, 0]]}, id="lemma4-matrix"),
        pytest.param(["lemma5", "--n", "13"], None, id="lemma5-past-guard"),
    ],
)
def test_force_is_marked_in_report(tmp_path, capsys, argv, matrix):
    if matrix is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        argv = argv + [str(path)]
    code, out, _ = run(capsys, *argv, "--force", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["detail"]["forced"] is True
