"""CLI behaviour: exit codes, determinism, formats, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from s3genus2.cli import main
from s3genus2.family import VECTOR_MODULUS_BOUND
from s3genus2.fields import MAX_MODULUS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_range_5_100(capsys, tmp_path):
    out_file = tmp_path / "psi.jsonl"
    code, out, err = run_cli(
        capsys, "psi", "--from", "5", "--to", "100", "--output", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 23  # primes in [5, 100]
    first = json.loads(lines[0])
    assert first == {
        "p": 5, "class": "1mod4", "psi": 3, "h_p": 2, "h_3p": 2, "ok": True,
        "lambdas": [2, 3, 4],
    }
    assert "0 failures" in err


def test_psi_single_prime_7(capsys):
    code, out, _ = run_cli(capsys, "psi", "--from", "7", "--to", "7")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["psi"] == 0 and row["class"] == "7mod12"


def test_psi_usage_error_on_non_prime_range(capsys):
    code, _, err = run_cli(capsys, "psi", "--from", "4", "--to", "4")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "psi", "--from", "24", "--to", "28")
    assert code == 2
    assert "no primes" in err


@pytest.mark.parametrize("command", ["psi", "structure"])
def test_prime_at_the_scan_bound_is_a_usage_error(capsys, monkeypatch, command):
    # 33554467 is the first prime above 2^25; the scan must not start
    monkeypatch.setattr("s3genus2.family._orbit_scan", None)
    code, out, err = run_cli(capsys, command, "--from", "33554467", "--to", "33554467")
    assert code == 2
    assert out == ""
    assert "error:" in err and str(VECTOR_MODULUS_BOUND) in err and "Traceback" not in err


def test_cli_import_leaves_the_process_pool_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, s3genus2.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_psi_csv_format(capsys):
    code, out, _ = run_cli(capsys, "psi", "--from", "5", "--to", "13",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,class,psi,h_p,h_3p,ok"
    assert lines[1] == "5,1mod4,3,2,2,true"
    assert lines[-1] == "13,1mod4,6,2,4,true"


def test_psi_deterministic_across_thread_counts(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "psi", "--from", "5", "--to", "60", "--format", "csv",
            "--output", str(f1))
    run_cli(capsys, "psi", "--from", "5", "--to", "60", "--format", "csv",
            "--output", str(f2), "--threads", "2")
    assert f1.read_bytes() == f2.read_bytes()


def test_structure_csv_and_exit(capsys):
    code, out, _ = run_cli(capsys, "structure", "--from", "5", "--to", "31")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,class,psi,h_p,h_3p,closed_form,shape,graph"
    rows = {int(line.split(",")[0]): line for line in lines[1:]}
    assert rows[13].endswith("true,true,-")
    assert rows[23].endswith("true,-,true")
    assert rows[7].split(",")[2] == "0"


def test_structure_dot_output(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "structure", "--from", "11", "--to", "50",
        "--format", "dot", "--output", str(tmp_path)
    )
    assert code == 0
    made = sorted(f.name for f in tmp_path.glob("*.dot"))
    assert made == ["g_11.dot", "g_23.dot", "g_47.dot"]
    text = (tmp_path / "g_23.dot").read_text()
    assert text.startswith("graph G_23 {")
    assert '[label=3]' in text


def test_structure_json_rows(capsys):
    code, out, _ = run_cli(capsys, "structure", "--from", "23", "--to", "29",
                           "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    by_p = {r["p"]: r for r in rows}
    assert by_p[23]["graph"] is True
    assert by_p[23]["graph_data"]["edges"] == [
        {"u": 3, "v": 19, "w": 6}, {"u": 19, "v": 19, "w": 3}
    ]
    assert by_p[29]["shape"] is True and "graph_data" not in by_p[29]


def test_structure_dot_requires_output(capsys):
    code, _, err = run_cli(capsys, "structure", "--from", "11", "--to", "11",
                           "--format", "dot")
    assert code == 2
    assert "--output" in err


def test_isogeny_pass_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "isogeny", "--p", "13", "--lambda", "3",
                            "--trials", "10", "--seed", "1")
    assert code == 0
    assert "pass" in out1
    code, out2, _ = run_cli(capsys, "isogeny", "--p", "13", "--lambda", "3",
                            "--trials", "10", "--seed", "1")
    assert out1 == out2


def test_isogeny_rejects_singular_lambda(capsys):
    code, _, err = run_cli(capsys, "isogeny", "--p", "13", "--lambda", "0")
    assert code == 2
    assert "inadmissible" in err


def test_isogeny_prime_at_the_modulus_cap_is_a_usage_error(capsys):
    # 2147483659 is the first prime above 2^31
    code, out, err = run_cli(capsys, "isogeny", "--p", "2147483659", "--lambda", "2")
    assert code == 2
    assert out == ""
    assert "MAX_MODULUS" in err and str(MAX_MODULUS) in err and "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_isogeny_needs_a_positive_trial_count(capsys, trials):
    code, out, err = run_cli(capsys, "isogeny", "--p", "13", "--lambda", "3",
                             "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err


def test_average_single_row_with_check(capsys):
    code, out, err = run_cli(
        capsys, "average", "--X", "20", "--N", "50", "--mode", "rational",
        "--check-bruteforce"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# skipped:")
    assert lines[1] == "mode,X,N,total,normalized,predicted,ratio"
    assert lines[2].startswith("rational,20,50,")
    assert "match" in err


def test_average_warns_below_regime(capsys):
    code, _, err = run_cli(capsys, "average", "--X", "10", "--N", "5")
    assert code == 0
    assert "outside the N > X regime" in err


def test_average_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "average", "--X", "1000000")
    assert code == 2
    assert "estimated cost" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_average_budget_is_checked_before_any_scan(capsys, monkeypatch, threads):
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr("s3genus2.cli._prefill_scans", no_scan)
    monkeypatch.setattr("s3genus2.family._orbit_scan", no_scan)
    code, out, err = run_cli(capsys, "average", "--X", "1000000", "--mode", "rational",
                             "--threads", threads)
    assert code == 2
    assert "estimated cost" in err and "Traceback" not in err
    # a later row over budget stops the command before the first row
    code, out, err = run_cli(capsys, "average", "--X", "20", "--X", "1000000",
                             "--threads", threads)
    assert code == 2
    assert out == "" and "estimated cost" in err


@pytest.mark.parametrize("argv", [["--X", "1"], ["--X", "0"], ["--X", "-5"],
                                  ["--X", "30", "--N", "0"],
                                  ["--X", "30", "--N", "-4", "--mode", "rational"]])
def test_average_rejects_a_malformed_window(capsys, argv):
    code, out, err = run_cli(capsys, "average", *argv)
    assert code == 2
    assert out == "" and "need X >= 2 and N >= 1" in err


def test_average_bruteforce_cap_is_checked_before_any_scan(capsys, monkeypatch):
    monkeypatch.setattr("s3genus2.cli.window_sum", None)
    code, out, err = run_cli(capsys, "average", "--X", "20", "--X", "300",
                             "--check-bruteforce")
    assert code == 2
    assert out == "" and "--check-bruteforce capped" in err


def test_average_json_rows(capsys):
    code, out, _ = run_cli(capsys, "average", "--X", "30", "--N", "100",
                           "--format", "json")
    assert code == 0
    row = json.loads(out.splitlines()[1])
    assert row["mode"] == "integer" and row["X"] == 30 and row["N"] == 100
    assert row["total"] > 0


def test_average_multiple_X_table(capsys):
    code, out, _ = run_cli(capsys, "average", "--X", "40", "--X", "20",
                           "--N", "60")
    assert code == 0
    data_rows = [l for l in out.splitlines() if not l.startswith(("#", "mode"))]
    assert [int(r.split(",")[1]) for r in data_rows] == [20, 40]
