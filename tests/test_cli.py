"""CLI behaviour: exit codes, determinism, formats, file outputs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_isogenies import _load_workloads

from s3genus2 import average, classno, cli, family, isogenies, structure
from s3genus2.cli import build_parser, main
from s3genus2.limits import (
    CLASS_NUMBER_BOUND,
    MAX_MODULUS,
    MAX_TRIALS_BUDGET,
    MAX_X_BUDGET,
    VECTOR_MODULUS_BOUND,
)


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


@pytest.mark.parametrize("command", ["psi", "structure"])
def test_oversized_range_is_refused_before_listing_primes(capsys, monkeypatch, command):
    # listing the primes of [5, 4*10^7] would take 4*10^7 primality tests;
    # the bound is checked on the largest prime, found by stepping down
    from s3genus2 import cli

    real_is_prime, calls = cli.is_prime, []

    def counting_is_prime(n):
        calls.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting_is_prime)
    monkeypatch.setattr("s3genus2.family._orbit_scan", None)
    code, out, err = run_cli(capsys, command, "--from", "5", "--to", "40000000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: p=39999983 is at or above the scan's int64 bound "
        f"VECTOR_MODULUS_BOUND = 2^25 = {VECTOR_MODULUS_BOUND}\n"
    )
    assert len(calls) == 40000000 - 39999983 + 1


@pytest.mark.parametrize("command", ["psi", "structure"])
def test_prime_above_the_class_number_bound_is_refused_before_any_scan(
    capsys, monkeypatch, command
):
    # 12 * 833347 > CLASS_NUMBER_BOUND = 10^7: the h(-12p) column of the
    # psi row cannot be computed, so no prime of the range is scanned
    from s3genus2 import cli

    monkeypatch.setattr("s3genus2.family._orbit_scan", None)
    code, out, err = run_cli(capsys, command, "--from", "833300", "--to", "833347")
    assert code == 2
    assert out == ""
    assert err == (
        "error: p=833347 needs the class number of discriminant -12p = -10000164, "
        f"above CLASS_NUMBER_BOUND = {CLASS_NUMBER_BOUND}\n"
    )
    # the largest prime below the bound, 833309, is accepted
    assert 12 * 833309 <= CLASS_NUMBER_BOUND
    assert cli.primes_in_range(833300, 833346) == [833309]


@pytest.mark.parametrize("command", ["psi", "structure"])
def test_range_over_the_scan_budget_is_refused_before_listing_primes(
    capsys, monkeypatch, command
):
    # the scans of 5..832987 cost F(832987) - F(5) = 1.3e14 multiply-adds,
    # 3,670 times F(MAX_X_BUDGET), the scans of the largest average run
    from s3genus2 import cli

    real_is_prime, calls = cli.is_prime, []

    def counting_is_prime(n):
        calls.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting_is_prime)
    monkeypatch.setattr("s3genus2.family._orbit_scan", None)
    code, out, err = run_cli(capsys, command, "--from", "5", "--to", "833000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: primes 5..832987 exceed the desk budget of ~3.5e+10 int64 "
        "multiply-adds, the scans of average --X 50000; estimated cost ~1.3e+14 "
        "in the per-prime baby-step/giant-step scans "
        "(F(top) - F(from), F(X) = 7 X^3/(2304 ln X))\n"
    )
    # only the step down from --to to the largest prime ran
    assert calls == list(range(833000, 832987 - 1, -1))


def test_range_within_the_scan_budget_is_accepted():
    from s3genus2 import cli
    from s3genus2.average import primes_below

    # every prime below MAX_X_BUDGET: the scans of average --X 50000
    assert cli.primes_in_range(5, MAX_X_BUDGET) == list(primes_below(MAX_X_BUDGET))


class _FakePool:
    """A ProcessPoolExecutor stand-in that runs the jobs in this process and
    records each pool's worker count and jobs."""

    made: list[int] = []
    sent: list[list[int]] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        jobs = list(jobs)
        self.sent.append(jobs)
        return map(fn, jobs)


def _fake_pools(monkeypatch, cpus):
    """Route scan_primes' pools to _FakePool, on `cpus` CPUs and an empty cache."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "made", [])
    monkeypatch.setattr(_FakePool, "sent", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(family, "_SCAN_CACHE", {})


def _force_pool(monkeypatch):
    """Price every scan above the pool threshold, from an empty cache."""
    monkeypatch.setattr(family, "SCAN_POOL_THRESHOLD", 0)
    monkeypatch.setattr(family, "_SCAN_CACHE", {})


@pytest.mark.parametrize("cpus, workers", [(64, 44), (2, 2), (1, 0), (None, 0)])
def test_threads_are_capped_by_the_primes_and_the_cpus(capsys, monkeypatch, cpus, workers):
    # psi over 5..200 has 44 primes: the pool never asks for more workers
    # than there are primes or CPUs, and a single worker needs no pool
    _fake_pools(monkeypatch, cpus)
    argv = ["psi", "--from", "5", "--to", "200", "--format", "csv"]
    _, want, _ = run_cli(capsys, *argv)
    _force_pool(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _FakePool.made == ([workers] if workers else [])
    assert out == want


def test_average_scans_every_row_on_one_pool(capsys, monkeypatch):
    # the rows' primes are all below the largest X: one pool for the table
    _fake_pools(monkeypatch, 2)
    argv = ["average", "--X", "300", "--X", "450", "--X", "610"]
    _, want, _ = run_cli(capsys, *argv)
    assert _FakePool.made == []
    _force_pool(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _FakePool.made == [2]
    assert out == want


@pytest.mark.parametrize("argv", [
    ["psi", "--from", "5", "--to", "2120", "--format", "csv"],
    ["structure", "--from", "5", "--to", "1670"],
    ["average", "--X", "610", "--mode", "rational"],
])
def test_benchmark_sized_runs_make_no_pool(capsys, monkeypatch, argv):
    # the largest runs of the benchmark workloads price below the threshold
    _fake_pools(monkeypatch, 64)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _FakePool.made == []


def test_a_cached_prime_is_not_sent_to_the_pool(capsys, monkeypatch):
    _fake_pools(monkeypatch, 2)
    argv = ["psi", "--from", "5", "--to", "200", "--format", "csv"]
    _, want, _ = run_cli(capsys, *argv)
    _force_pool(monkeypatch)
    cached = (101, 199)
    for p in cached:
        family.superspecial_lambdas(p)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    primes = cli.primes_in_range(5, 200)
    assert _FakePool.sent == [sorted(set(primes) - set(cached), reverse=True)]


@pytest.mark.parametrize("argv", [
    ["psi", "--from", "5", "--to", "60"],
    ["structure", "--from", "5", "--to", "60"],
    ["average", "--X", "60"],
])
def test_threads_flag_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["psi", "--from", "5", "--to", "60", "--format", "csv"],
    ["structure", "--from", "5", "--to", "60", "--format", "json"],
    ["average", "--X", "40", "--X", "60", "--mode", "rational"],
])
def test_output_into_a_new_directory_matches_stdout(capsys, tmp_path, argv):
    target = tmp_path / "new" / "nested" / "rows.txt"
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("argv, target", [
    (["psi", "--from", "5", "--to", "30"], "dir"),
    (["average", "--X", "300"], "dir"),
    (["structure", "--from", "5", "--to", "30", "--format", "csv"], "dir"),
    (["structure", "--from", "5", "--to", "30", "--format", "dot"], "file"),
    (["psi", "--from", "5", "--to", "30"], "file/rows.csv"),
], ids=["psi-dir", "average-dir", "structure-csv-dir", "structure-dot-file", "psi-under-a-file"])
def test_an_output_that_cannot_be_written_is_refused_before_any_scan(
        capsys, monkeypatch, tmp_path, argv, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    monkeypatch.setattr(cli, "scan_primes", None)
    monkeypatch.setattr("s3genus2.family._orbit_scan", None)
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --output {tmp_path / target}: ")
    assert (tmp_path / "file").read_text() == "kept\n"
    assert list((tmp_path / "dir").iterdir()) == []


def _csv_spelling(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6f}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize("argv", [
    ["psi", "--from", "5", "--to", "60"],
    ["structure", "--from", "5", "--to", "60"],
    ["average", "--X", "300", "--X", "450", "--mode", "rational"],
])
def test_csv_rows_are_the_leading_keys_of_the_json_rows(capsys, argv):
    # one formatter serves every row command: the CSV header is the leading
    # JSON keys of each row, and each cell is that row's JSON value spelled
    # by the CSV rules (- for null, lower-case bools, six decimals)
    lines = {}
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        lines[fmt] = [line for line in out.splitlines() if not line.startswith("#")]
    header, *csv_rows = lines["csv"]
    json_rows = [json.loads(line) for line in lines["json"]]
    columns = header.split(",")
    assert len(csv_rows) == len(json_rows) > 1
    for line, row in zip(csv_rows, json_rows):
        assert list(row)[:len(columns)] == columns
        assert line.split(",") == [_csv_spelling(row[k]) for k in columns]


def _checkout_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_the_process_pool_out():
    code = "import sys, s3genus2.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_row_commands_leave_numpy_ma_out():
    # np.unique's first call imports numpy.ma (10-25 ms, 1.35 MB of RSS);
    # no psi, structure or average row path may pay it
    code = ("import contextlib, io, sys\n"
            "from s3genus2.cli import main\n"
            "for argv in (['psi', '--from', '5', '--to', '200'],\n"
            "             ['structure', '--from', '5', '--to', '400'],\n"
            "             ['average', '--X', '300', '--X', '450', '--mode', 'rational']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_commands_and_class_polynomials_leave_mpmath_out():
    code = ("import contextlib, io, sys\n"
            "from s3genus2 import classno, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['psi', '--from', '5', '--to', '60']) == 0\n"
            "classno.hilbert_poly(35)\n"
            "print('mpmath' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("flags", [
    ["--mode", "rational"],
    ["--mode", "rational", "--format", "json"],
    # every row shares every block height
    ["--N", "500", "--mode", "rational", "--format", "json"],
])
def test_a_table_holds_the_rows_of_its_single_X_runs(capsys, flags):
    # the rows of a table come from one shared count; each must be the row
    # its X gives alone
    xs = ("300", "450", "610")
    code, table, _ = run_cli(capsys, "average", *(a for X in xs for a in ("--X", X)), *flags)
    assert code == 0
    rows = []
    for X in xs:
        code, out, _ = run_cli(capsys, "average", "--X", X, *flags)
        assert code == 0
        *head, row = out.splitlines()
        rows.append(row)
    assert table.splitlines() == head + rows


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once per process; no parsed state, such as the
    # --X append list, may carry from one call into the next
    argvs = [
        ["average", "--X", "300", "--X", "450"],
        ["average", "--X", "610"],
        ["isogeny", "--p", "1009", "--lambda", "5", "--trials", "20", "--seed", "3"],
        ["isogeny", "--p", "13", "--lambda", "3", "--trials", "10"],
    ]
    alone = [subprocess.run([sys.executable, "-m", "s3genus2.cli", *argv], env=_checkout_env(),
                            capture_output=True, check=True).stdout for argv in argvs]
    build_parser.cache_clear()
    for argv, want in zip(argvs, alone):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("ascii") == want, argv
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


def test_psi_csv_format(capsys):
    code, out, _ = run_cli(capsys, "psi", "--from", "5", "--to", "13",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,class,psi,h_p,h_3p,ok"
    assert lines[1] == "5,1mod4,3,2,2,true"
    assert lines[-1] == "13,1mod4,6,2,4,true"


def test_psi_deterministic_across_thread_counts(capsys, monkeypatch, tmp_path):
    # the same bytes from a real two-worker pool as from the serial path
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["psi", "--from", "5", "--to", "60", "--format", "csv"]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(family, "_SCAN_CACHE", {})
    run_cli(capsys, *argv, "--output", str(f1))
    assert made == []
    _force_pool(monkeypatch)
    run_cli(capsys, *argv, "--output", str(f2))
    assert made == [2]
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


@pytest.mark.parametrize("workload,command,hi", [
    ("structure-sweep", "structure", 1670),
    ("psi-scan", "psi", 2120),
], ids=["structure", "psi"])
def test_row_command_stdout_matches_the_golden_rows(capsys, workload, command, hi):
    # the benchmark's widest ranges, byte for byte; the structure rows
    # include p = 5, the one row that runs direct_root_check
    code, out, _ = run_cli(capsys, command, "--from", "5", "--to", str(hi), "--format", "csv")
    assert code == 0
    assert out == _load_workloads().expected_output({"workload": workload, "range": [5, hi]})


ROOT = Path(__file__).resolve().parents[1]


def harness_imports():
    """The (module, name) pairs that perfbench/*.py imports from s3genus2."""
    imported = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "s3genus2":
                imported |= {(node.module, alias.name) for alias in node.names}
    return imported


def test_the_benchmark_harness_imports_only_names_the_package_has():
    # a name the harness imports from s3genus2 and the package lost would
    # make the benchmark's oracle step exit 1
    imported = harness_imports()
    assert imported == {
        ("s3genus2", "cli"),
        ("s3genus2.family", "psi_p_bruteforce"),
        ("s3genus2.family", "superspecial_lambdas"),
        ("s3genus2.average", "window_sum"),
        ("s3genus2.average", "window_sum_bruteforce"),
        ("s3genus2.classno", "hilbert_poly"),
        ("s3genus2.isogenies", "resultant_factorization_check"),
    }
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    # the shapes the harness reads from their results at run time: a traced
    # run counts distinct j's and graph edges (layertrace.py) and tests the
    # scan cache for membership, the oracle step reads the window total
    # (worker.py) and the identity step the Hilbert coefficients and the
    # resultant verdict (workloads.py)
    assert len(structure.root_profile(13).distinct_js) > 0
    assert len(structure.build_graph(23).edges) > 0
    assert isinstance(average.window_sum(50, 50, "rational").total, int)
    assert classno.hilbert_poly(3).coefficients == (0, 1)
    holds, constant = isogenies.resultant_factorization_check()
    assert isinstance(holds, bool) and isinstance(constant, int)
    assert isinstance(family._SCAN_CACHE, dict)


def test_every_package_definition_is_reached_by_a_command_or_the_harness():
    # src/ holds what a command or the benchmark runs; paper identities and
    # oracles that neither reaches live in the tests.  A reached definition
    # reaches every top-level name it loads, directly or as module.name; a
    # reached class reaches its methods.  Module dunders are exempt.
    defined, bound = {}, {}
    for path in sorted((ROOT / "src" / "s3genus2").glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        defined[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[module][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[module][name.id] = node
        # `from .m import x` binds x to (m, x), `from . import m` binds m to (m, None)
        bound[module] = {
            alias.asname or alias.name: (node.module, alias.name) if node.module
            else (alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    # the roots: cli.main and the names the harness imports, by module stem
    todo = [("cli", "main")] + [(m.rpartition(".")[2], n) for m, n in harness_imports()]
    reached = set()
    while todo:
        module, name = todo.pop()
        if name not in defined.get(module, {}):
            target = bound.get(module, {}).get(name)
            if target and target[1] is not None:
                todo.append(target)
            continue
        if (module, name) in reached:
            continue
        reached.add((module, name))
        for node in ast.walk(defined[module][name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo.append((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = bound[module].get(node.value.id)
                if target and target[1] is None:
                    todo.append((target[0], node.attr))
    unreached = sorted(
        (module, name)
        for module, names in defined.items()
        for name in names
        if (module, name) not in reached and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unreached, f"defined in src/ but reached by no command: {unreached}"


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


def test_structure_row_carries_the_notes_of_a_failed_ledger(capsys, monkeypatch):
    # a wrong h(-39) breaks the multiplicity ledger at p = 13 only
    from s3genus2 import structure

    real = structure.class_number
    monkeypatch.setattr(structure, "class_number", lambda D: real(D) + (D == 39))
    code, out, _ = run_cli(capsys, "structure", "--from", "5", "--to", "17",
                           "--format", "json")
    assert code == 1
    by_p = {r["p"]: r for r in map(json.loads, out.splitlines())}
    assert by_p[13]["shape"] is False
    assert by_p[13]["notes"] == ["multiplicity ledger != h(-3p)"]
    assert by_p[17]["shape"] is True and by_p[17]["notes"] == []


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


def test_isogeny_trials_budget_is_checked_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("isogeny work started")

    monkeypatch.setattr("s3genus2.cli.verify_transcription", no_work)
    monkeypatch.setattr("s3genus2.cli.compose_is_minus3", no_work)
    code, out, err = run_cli(capsys, "isogeny", "--p", "1009", "--lambda", "5",
                             "--trials", "100000000")
    assert code == 2
    assert out == ""
    assert "estimated cost" in err and str(MAX_TRIALS_BUDGET) in err
    assert "Traceback" not in err
    # the budget itself is accepted: the (stubbed) work starts
    with pytest.raises(AssertionError, match="isogeny work started"):
        main(["isogeny", "--p", "1009", "--lambda", "5", "--trials", str(MAX_TRIALS_BUDGET)])


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_average_budget_is_checked_before_any_scan(capsys, monkeypatch, cpus):
    # with every scan priced for the pool, and on two CPUs one would start
    def no_scan(*args):
        raise AssertionError("scan started")

    _fake_pools(monkeypatch, cpus)
    _force_pool(monkeypatch)
    monkeypatch.setattr(family, "_orbit_scan", no_scan)
    code, out, err = run_cli(capsys, "average", "--X", "1000000", "--mode", "rational")
    assert code == 2
    assert "estimated cost" in err and "Traceback" not in err
    # a later row over budget stops the command before the first row
    code, out, err = run_cli(capsys, "average", "--X", "20", "--X", "1000000")
    assert code == 2
    assert out == "" and "estimated cost" in err
    assert _FakePool.made == []


@pytest.mark.parametrize("argv", [["--X", "1"], ["--X", "0"], ["--X", "-5"],
                                  ["--X", "30", "--N", "0"],
                                  ["--X", "30", "--N", "-4", "--mode", "rational"]])
def test_average_rejects_a_malformed_window(capsys, argv):
    code, out, err = run_cli(capsys, "average", *argv)
    assert code == 2
    assert out == "" and "need X >= 2 and N >= 1" in err


def test_average_bruteforce_cap_is_checked_before_any_scan(capsys, monkeypatch):
    monkeypatch.setattr("s3genus2.cli.window_sums", None)
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
