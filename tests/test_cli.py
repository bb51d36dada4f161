"""Command-line front end: exit codes, report formats, generate and bench flows."""

import csv
import io
import json
import subprocess
import sys

import pytest

from latalloc import generate_base, generate_random, read_instance, solve, write_instance
from latalloc.cli import CSV_COLUMNS, main

from conftest import run_isolated


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "ladder6.txt"
    write_instance(generate_base(6), path)
    return str(path)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestSolve:
    def test_text_report(self, ladder_file, capsys):
        assert main(["solve", ladder_file]) == 0
        out = capsys.readouterr().out
        assert "optimum:" in out
        assert "status:            optimal" in out
        assert "root bound:" in out

    def test_value_matches_library(self, ladder_file, capsys):
        main(["solve", ladder_file, "--format", "csv"])
        rows = _csv_rows(capsys.readouterr().out)
        assert rows[0] == CSV_COLUMNS
        alloc, _ = solve(generate_base(6))
        assert float(rows[1][CSV_COLUMNS.index("optimum")]) == pytest.approx(
            alloc.value, rel=1e-9)
        assert rows[1][CSV_COLUMNS.index("optimal_flag")] == "1"

    def test_heuristic_only(self, ladder_file, capsys):
        assert main(["solve", ladder_file, "--heuristic-only"]) == 0
        out = capsys.readouterr().out
        assert "optimum:" not in out
        assert "mode=heuristic" in out

    def test_node_limit_exit(self, ladder_file, capsys):
        assert main(["solve", ladder_file, "--node-limit", "1", "--format", "csv"]) == 2
        rows = _csv_rows(capsys.readouterr().out)
        # not proven optimal: the optimum column stays empty
        assert rows[1][CSV_COLUMNS.index("optimum")] == ""
        assert rows[1][CSV_COLUMNS.index("optimal_flag")] == "0"

    def test_binary_branching(self, ladder_file, capsys):
        assert main(["solve", ladder_file, "--binary-branching"]) == 0
        assert "mode=binary" in capsys.readouterr().out

    def test_trace_goes_to_stderr(self, ladder_file, capsys):
        assert main(["solve", ladder_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "depth=" in err and "incumbent=" in err

    def test_missing_file(self, capsys):
        assert main(["solve", "/no/such/file.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not an instance\n")
        assert main(["solve", str(path)]) == 3
        assert "bad header" in capsys.readouterr().err

    def test_nan_fee_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("latalloc 1\n2 1\nnan 1 1\n2 2 1\n")
        assert main(["solve", str(path)]) == 3
        assert "line 3: invalid resource" in capsys.readouterr().err

    def test_inf_coefficient_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        path.write_text("latalloc 1\n2 1\n1 1 1\n2 inf 1\n")
        assert main(["solve", str(path)]) == 3
        assert "line 4: invalid resource" in capsys.readouterr().err

    def test_large_level_quadratic_file_solves(self, tmp_path):
        # the relaxation level passes 10 000 on this file; the root bound
        # once bisected forever there
        path = tmp_path / "big.txt"
        path.write_text("latalloc 1\n2 2\n20000 1 1\n10000 5 1\n")
        proc = run_isolated(["-m", "latalloc.cli", "solve", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert "optimum:           10005" in proc.stdout


class TestGenerate:
    def test_base_round_trip(self, tmp_path, capsys):
        out = tmp_path / "b6.txt"
        assert main(["generate", "base", "6", "--out", str(out)]) == 0
        assert "wrote b6" in capsys.readouterr().out
        back = read_instance(out)
        ref = generate_base(6)
        assert [(g.fixed_cost, g.latency.b) for g in back.groups] == \
            [(g.fixed_cost, g.latency.b) for g in ref.groups]

    def test_random_seeded(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["generate", "random", "8", "--seed", "5", "--out", str(out)]) == 0
        back = read_instance(out)
        ref = generate_random(8, seed=5)
        assert [(g.fixed_cost, g.latency.b, g.multiplicity) for g in back.groups] == \
            [(g.fixed_cost, g.latency.b, g.multiplicity) for g in ref.groups]

    def test_partition_weight_list(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert main(["generate", "partition", "2 3 5 4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(out)]) == 0
        assert "optimum:           14" in capsys.readouterr().out

    def test_bad_q(self, capsys):
        assert main(["generate", "base", "ten", "--out", "/tmp/x.txt"]) == 3
        assert "expected an integer q" in capsys.readouterr().err

    def test_unknown_class(self, capsys):
        assert main(["generate", "mystery", "5", "--out", "/tmp/x.txt"]) == 3

    def test_usage_error_is_input_exit(self, capsys):
        assert main([]) == 3
        assert main(["solve"]) == 3


class TestBench:
    def test_suite_runs(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"class": "base", "sizes": [4, 6]},
            {"class": "random", "q": 6, "seeds": [1, 2], "modes": ["nary", "binary"]},
        ]}))
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        assert "6/6 jobs" in capsys.readouterr().out
        rows = _csv_rows(out.read_text())
        assert rows[0] == CSV_COLUMNS
        data = [r for r in rows[1:] if r[0] != "average"]
        avg = [r for r in rows[1:] if r[0] == "average"]
        assert len(data) == 6
        # base q4, base q6, random q6 nary, random q6 binary
        assert len(avg) == 4
        assert all(r[CSV_COLUMNS.index("optimal_flag")] == "1" for r in data)

    def test_partition_entry(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"class": "partition", "weights": [1, 2, 3]},
        ]}))
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        rows = _csv_rows(out.read_text())
        assert rows[1][0] == "p1+2+3"
        # perfect partition 1+2 = 3, so the optimum equals W = 6
        assert float(rows[1][CSV_COLUMNS.index("optimum")]) == pytest.approx(6.0)

    def test_missing_suite(self, capsys):
        assert main(["bench", "/no/suite.json", "--out", "/tmp/x.csv"]) == 3

    def test_empty_suite(self, tmp_path, capsys):
        suite = tmp_path / "empty.json"
        suite.write_text(json.dumps({"entries": []}))
        assert main(["bench", str(suite), "--out", str(tmp_path / "x.csv")]) == 3
        assert "no jobs" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "b4.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "latalloc.cli", "generate", "base", "4", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote b4" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "latalloc.cli", "solve", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "status:            optimal" in proc.stdout
