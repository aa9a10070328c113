"""Command-line behavior: output formats, exit codes, determinism, and
matrix loading diagnostics."""

import json
import os
import select

import pytest

from diagvar import cli
from diagvar.errors import DiagvarError, NormalFormError
from diagvar.guards import WINDOWS


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


def test_lemma2_forced_at_n1_passes_every_mode(capsys):
    code, out, err = run(capsys, "lemma2", "--n", "1", "--force", "--format", "json")
    assert code == 0, err
    records = json.loads(out)
    assert [r["detail"]["mode"] for r in records] == ["row", "column", "both"]
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize(
    "argv, key, value",
    [
        pytest.param(["lemma2", "--n", "3", "--mode", "row"], "mode", "row", id="lemma2-row"),
        pytest.param(["antidiag", "--n", "3", "--spec", "s0"], "spec", "s0", id="antidiag-s0"),
    ],
)
def test_a_chosen_variant_runs_alone(capsys, argv, key, value):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["detail"][key] == value
    assert record["pass"] is True


@pytest.mark.parametrize(
    "check, n, extra",
    [
        ("pofx", 3, []),
        ("lemma2", 3, []),
        ("lemma2", 3, ["--mode", "both"]),
        ("induction", 4, []),
        ("antidiag", 4, []),
        ("antidiag", 4, ["--spec", "s"]),
        ("sop", 4, []),
        ("fedder", 3, ["--p", "3"]),
        ("lemma4", 4, []),
        ("lemma5", 4, []),
    ],
)
def test_single_command_records_equal_the_suites(capsys, check, n, extra):
    _, suite, _ = run(capsys, "suite", "--max-n", str(n), "--primes", "2,3", "--checks", check, "--format", "json")
    code, out, _ = run(capsys, check, "--n", str(n), *extra, "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records
    key = {"lemma2": "mode", "antidiag": "spec"}.get(check)
    expected = [r for r in json.loads(suite) if r["n"] == n and (check != "fedder" or r["p"] == 3)]
    if extra and key:
        expected = [r for r in expected if r["detail"][key] == extra[1]]
    assert sorted(records, key=json.dumps) == sorted(expected, key=json.dumps)


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
    assert "pofx guard" in err


def test_forced_sop_runs_past_64(capsys):
    # the integer determinant has no bound of its own, so --force reaches
    # it at any n (about 2 s at n = 65 on a 2-vCPU Xeon VM)
    code, out, err = run(capsys, "sop", "--n", "65", "--force")
    assert (code, err) == (0, "")
    assert "sign=1 exponent=2080 forced=true" in out


@pytest.mark.parametrize("target", ["dir", "missing/x.json"], ids=["a-directory", "a-missing-parent"])
def test_unwritable_out_exits_2_and_names_the_path(capsys, tmp_path, target):
    # exit 1 means a check failed; a report that cannot be written is a
    # usage error, reported without a traceback
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / target)
    code, out, err = run(capsys, "sop", "--n", "3", "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["lemma5"])  # missing required --n
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["pofx", "--n", "3", "--mode", "row"], id="pofx-mode-without-spec"),
        pytest.param(["pofx", "--n", "3", "--spec", "sop", "--mode", "row"], id="pofx-sop-mode"),
        pytest.param(["pofx", "--n", "3", "--spec", "s", "--mode", "row"], id="pofx-kill-s-mode"),
    ],
)
def test_pofx_rejects_a_mode_it_would_drop(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "mode" in err


@pytest.mark.parametrize("command", ["pofx", "lemma4"])
def test_n_and_matrix_exclude_each_other(tmp_path, capsys, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 1], [1, 0]]}))
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--n", "3", "--matrix", str(path)])
    assert e.value.code == 2
    assert "not allowed with argument --n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pofx", "lemma4"])
def test_n_or_matrix_is_required(capsys, command):
    with pytest.raises(SystemExit) as e:
        cli.main([command])
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


@pytest.mark.parametrize("primes, bad", [("2,x", "'x'"), ("2.5", "'2.5'"), ("3, ,z7", "'z7'")])
def test_suite_rejects_a_non_integer_prime(capsys, primes, bad):
    code, out, err = run(capsys, "suite", "--primes", primes)
    assert code == 2
    assert out == ""
    assert "--primes" in err and bad in err
    assert "invalid literal" not in err


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


def test_bad_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("DIAGVAR_THREADS", "many")
    code, _, err = run(capsys, "suite", "--max-n", "2")
    assert code == 2
    assert "DIAGVAR_THREADS" in err


def test_negative_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("DIAGVAR_THREADS", "-1")
    code, out, err = run(capsys, "suite", "--max-n", "2")
    assert code == 2
    assert out == ""
    assert "DIAGVAR_THREADS" in err


# -- the forked suite -----------------------------------------------------------

SUITE_12 = ("suite", "--max-n", "12", "--primes", "2,3,5,7")


def assert_no_child_left():
    """Every worker has been reaped: the process has no child, running or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_parallel_matches_serial(capsys, monkeypatch):
    # forked first: its workers fill no cache of this process for the serial run
    forked = {}
    for threads in ("2", "0"):
        monkeypatch.setenv("DIAGVAR_THREADS", threads)
        forked[threads] = [run(capsys, *SUITE_12, "--format", fmt) for fmt in ("json", "text")]
        assert_no_child_left()
    monkeypatch.delenv("DIAGVAR_THREADS")
    serial = [run(capsys, *SUITE_12, "--format", fmt) for fmt in ("json", "text")]
    assert serial[0][0] == 0
    assert forked == {"2": serial, "0": serial}


def _fail_induction_at(monkeypatch, bad):
    real = cli._CELL_FUNCS["induction"]

    def cell(n, force=False):
        if n in bad:
            raise DiagvarError(f"synthetic defect at n={n}")
        return real(n, force)

    monkeypatch.setitem(cli._CELL_FUNCS, "induction", cell)


@pytest.mark.parametrize("bad", [(4,), (3, 5)], ids=["one", "two"])
def test_a_worker_error_is_the_serial_error(capsys, monkeypatch, bad):
    _fail_induction_at(monkeypatch, bad)
    argv = ("suite", "--max-n", "6", "--checks", "induction,lemma5")
    serial = run(capsys, *argv)
    assert serial == (2, "", f"error: synthetic defect at n={bad[0]}\n")
    monkeypatch.setenv("DIAGVAR_THREADS", "2")
    assert run(capsys, *argv) == serial
    assert_no_child_left()


def test_a_worker_that_dies_makes_the_suite_exit_2(capsys, monkeypatch):
    parent = os.getpid()

    def cell(n, force=False):
        if os.getpid() == parent:
            raise RuntimeError("the cell ran in the test process")
        os._exit(3)

    monkeypatch.setitem(cli._CELL_FUNCS, "induction", cell)
    monkeypatch.setenv("DIAGVAR_THREADS", "2")
    code, out, err = run(capsys, "suite", "--max-n", "4", "--checks", "induction,lemma5")
    assert code == 2
    assert out == ""
    assert "worker" in err and "status 3" in err
    assert_no_child_left()


def test_the_suite_runs_serially_where_fork_is_missing(capsys, monkeypatch):
    argv = ("suite", "--max-n", "4", "--format", "json")
    serial = run(capsys, *argv)
    monkeypatch.setenv("DIAGVAR_THREADS", "2")
    monkeypatch.delattr(cli.os, "fork")
    assert run(capsys, *argv) == serial


def test_the_largest_suites_indices_fit_one_atomic_pipe_write():
    max_n = max(w.hi for w in WINDOWS.values())
    cells = cli._suite_cells(max_n, WINDOWS["fedder"].primes, cli.SUITE_CHECKS)
    assert 2 * len(cells) <= select.PIPE_BUF


def test_failing_check_exits_1(capsys, monkeypatch):
    def broken(n, force=False):
        raise NormalFormError("synthetic defect")

    monkeypatch.setattr(cli.diagvariety, "sop_normal_form", broken)
    code, out, _ = run(capsys, "sop", "--n", "3", "--format", "json")
    assert code == 1
    (record,) = json.loads(out)
    assert record["pass"] is False
    assert "synthetic defect" in record["detail"]["error"]


def test_sop_with_a_non_unit_determinant_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.diagvariety.intlattice, "int_det", lambda A: 2)
    code, out, _ = run(capsys, "sop", "--n", "3", "--format", "json")
    assert code == 1
    (record,) = json.loads(out)
    assert record["pass"] is False
    assert "got 2" in record["detail"]["error"]


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


@pytest.mark.parametrize("n", [2.7, True, "2"], ids=["float", "bool", "string"])
def test_load_int_matrix_rejects_a_non_integer_size(tmp_path, capsys, n):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": n, "entries": [[1, 1], [1, 0]]}))
    code, out, err = run(capsys, "lemma4", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert "must be an integer" in err


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


def test_pofx_matrix_whose_entries_use_t(tmp_path, capsys):
    # t is a variable of the loaded context, not one reserved for P's
    # characteristic polynomials
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [["t", "1"], ["0", "x_2_2*t"]]}))
    code, out, err = run(capsys, "pofx", "--matrix", str(path))
    assert (code, out, err) == (0, "x_2_2*t - t\n", "")
    code, out, _ = run(capsys, "pofx", "--matrix", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["detail"] == {"poly": "x_2_2*t - t", "terms": 2}


@pytest.mark.parametrize(
    "argv, matrix",
    [
        pytest.param(["induction", "--n", "6"], None, id="induction"),
        pytest.param(["pofx", "--matrix"], {"n": 2, "entries": [["1", "x_1_1"], ["1", "x_2_2"]]}, id="pofx-matrix"),
        pytest.param(["pofx", "--n", "3", "--spec", "s"], None, id="pofx-spec"),
        pytest.param(["lemma4", "--matrix"], {"n": 2, "entries": [[1, 1], [1, 0]]}, id="lemma4-matrix"),
        pytest.param(["lemma5", "--n", "13"], None, id="lemma5-past-guard"),
        pytest.param(["lemma5", "--n", "1"], None, id="lemma5-n1"),
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
