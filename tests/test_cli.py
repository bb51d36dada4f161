"""Command-line front end: exit codes, report formats, generate and bench flows."""

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import latalloc.cli
from latalloc import (continuous_relaxation_bound, generate_base, generate_random,
                      partition_reduction, read_instance, solve, write_instance)
from latalloc.cli import CSV_COLUMNS, INSTANCE_CLASSES, main

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

    @pytest.mark.parametrize("body", [
        "latalloc 1\n1 2\n1 1e308 1\n",
        "latalloc 1\n2 1\n1 1e-310 1\n2 3 1\n",
    ], ids=["overflow", "underflow"])
    def test_unscalable_coefficient_is_input_error(self, tmp_path, capsys, body):
        # b(1+p) overflows, or its reciprocal does
        path = tmp_path / "unscalable.txt"
        path.write_text(body)
        assert main(["solve", str(path)]) == 3
        assert "line 3: invalid resource" in capsys.readouterr().err

    def test_coefficients_below_price_spacing_solve(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("latalloc 1\n2 1\n1 1e-17 1\n2 3e-17 1\n")
        assert main(["solve", str(path)]) == 0
        assert "optimum:           1\n" in capsys.readouterr().out

    def test_overflowing_price_file_solves(self, tmp_path, capsys):
        # kappa/(2b) of the second copy overflows inside the root support
        path = tmp_path / "huge.txt"
        path.write_text("latalloc 1\n2 1\n0 1e300 1\n1e299 1e-300 1\n")
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "optimum:           1e+299\n" in out
        assert "root bound:        9.75e+298\n" in out

    def test_overflowing_slopes_file_solves(self, tmp_path, capsys):
        # 1/(2b) of the first two resources sum past the float range in every
        # restricted solve that activates both
        path = tmp_path / "steep.txt"
        path.write_text("latalloc 1\n3 1\n1 3e-309 1\n2 4e-309 1\n3 1 1\n")
        assert main(["solve", str(path)]) == 0
        assert "optimum:           1\n" in capsys.readouterr().out

    def test_overflowing_group_fill_file_solves(self, tmp_path, capsys):
        # 2 copies / (2 * 3e-309) passes the float range in the linear scan
        path = tmp_path / "steep2.txt"
        path.write_text("latalloc 1\n2 1\n1 3e-309 2\n2 1 1\n")
        assert main(["solve", str(path)]) == 0
        assert "optimum:           1\n" in capsys.readouterr().out

    def test_fees_near_float_max_file_solves(self, tmp_path, capsys):
        # in the first file c + b of the first group and the fees of its two
        # copies pass the float range, in the second the fees of any split;
        # the suite turns an overflow warning into an error
        path = tmp_path / "dear.txt"
        for body, optimum, root in (
                ("latalloc 1\n3 1\n1.7e308 1e307 2\n1 2 3\n5 0.5 2\n", "3", "2.82842712475"),
                ("latalloc 1\n2 2\n1.7e308 1 1\n1.7e308 2 2\n", "1.7e+308", "1.7e+308")):
            path.write_text(body)
            assert main(["solve", str(path)]) == 0
            out = capsys.readouterr().out
            assert f"optimum:           {optimum}\n" in out
            assert f"root bound:        {root}\n" in out

    @pytest.mark.parametrize("body", [
        "latalloc 1\n1 50\n1 1e-300 10\n",
        "latalloc 1\n2 50\n1 1e-300 3\n2 1 1\n",
    ], ids=["offset-0", "offset-subnormal"])
    def test_level_offset_below_float_range_file_solves(self, tmp_path, capsys, body):
        # the cheap copies' level offset b(1+p) * k**-50 underflows; they
        # still carry the unit, so the root bound is the optimum
        path = tmp_path / "flat.txt"
        path.write_text(body)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "optimum:           1\n" in out
        assert "root bound:        1\n" in out

    def test_many_steep_copies_file_solves(self, tmp_path, capsys):
        # each of 10 000 copies of p = 100 carries 1e-4 in the relaxation,
        # and 1e-4**100 is below the float range; the heuristic once seeded
        # from an empty support and died with a traceback
        path = tmp_path / "steep100.txt"
        path.write_text("latalloc 1\n1 100\n1 1 10000\n")
        assert main(["solve", str(path)]) == 0
        assert "optimum:           2\n" in capsys.readouterr().out

    def test_huge_exponent_is_input_error(self, tmp_path, capsys):
        # at p = 1e15 the root bound 17169.67 passed the optimum 17068.27 and
        # the run stopped on the invariant with exit 4
        path = tmp_path / "steep.txt"
        path.write_text("latalloc 1\n1 1e15\n0 17068.265029174312 1\n")
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 3: invalid resource" in err and "p <= 1e+06" in err

    def test_huge_multiplicity_is_input_error(self, tmp_path, capsys):
        # 10**15 copies: the per-copy arrays cannot be allocated; 10**20: no
        # array index reaches them.  Either request fails at once
        path = tmp_path / "huge.txt"
        for multiplicity in (10 ** 15, 10 ** 20):
            path.write_text(f"latalloc 1\n1 1\n1 1 {multiplicity}\n")
            assert main(["solve", str(path)]) == 3
            assert capsys.readouterr().err.startswith("error: instance too large")

    def test_parser_is_built_once(self, ladder_file, capsys):
        assert latalloc.cli.build_parser() is latalloc.cli.build_parser()
        rows = []
        for _ in range(2):
            assert main(["solve", ladder_file, "--format", "csv"]) == 0
            header, row = _csv_rows(capsys.readouterr().out)
            rows.append([v for k, v in zip(header, row) if k != "wall_ms"])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("flags", [
        ["--time-limit", "nan"], ["--time-limit", "-1"],
        ["--node-limit", "-5"], ["--node-limit", "0"],
        ["--heuristic-only", "--time-limit", "nan"],
    ], ids=["time-nan", "time-neg", "nodes-neg", "nodes-0", "heuristic-only"])
    def test_bad_limit_is_input_error(self, ladder_file, capsys, flags):
        assert main(["solve", ladder_file, *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit must be" in err

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

    @pytest.mark.parametrize("argv", [["base", "4"], ["partition", "2 3 5 4"]],
                             ids=["base", "partition"])
    def test_exponent_outside_random_is_input_error(self, tmp_path, capsys, argv):
        # these classes are linear; the flag was once dropped without a word
        out = tmp_path / "x.txt"
        assert main(["generate", *argv, "--exponent", "2", "--out", str(out)]) == 3
        assert "exponent applies to class random only" in capsys.readouterr().err
        assert not out.exists()
        assert main(["generate", *argv, "--exponent", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv", [["base", "4"], ["partition", "2 3 5 4"]],
                             ids=["base", "partition"])
    def test_seed_outside_random_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.txt"
        assert main(["generate", *argv, "--seed", "5", "--out", str(out)]) == 3
        assert "takes no key 'seeds'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_exponents_labelled_and_averaged_apart(self, tmp_path):
        # entries that differ only in the exponent: p = 1 keeps its plain
        # label and average row, every other p gets its own, written in full
        # so that 1.5 and 1.5000001 neither share a label nor an average
        exponents = [1, 2, 1.5, 1.5000001]
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"class": "random", "q": 6, "seeds": [1], "exponent": p} for p in exponents]}))
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        rows = _csv_rows(out.read_text())[1:]
        tags = ["", "-p2", "-p1.5", "-p1.5000001"]
        assert [r[0] for r in rows] == ["r6-s1" + t for t in tags] + ["average" + t for t in tags]
        optimum = CSV_COLUMNS.index("optimum")
        for row, avg in zip(rows[:4], rows[4:]):
            assert avg[1:4] == row[1:4] == ["random", "6", "nary"]
            assert avg[optimum] == row[optimum]

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

    @pytest.mark.parametrize("spec", [
        {"entries": [{"class": "partition", "weights": 5}]},
        [1, 2],
        {"entries": [{"class": "partition", "weights": [-1, 2]}]},
        {"entries": [{"class": "random", "q": 5000, "seeds": [1]}]},
        {"entries": [{"class": "base", "sizes": [0]}]},
        {"entries": [{"class": "mystery", "q": 4}]},
        {"entries": [{"class": "base", "sizes": [4], "modes": ["ternary"]}]},
    ])
    def test_malformed_suite_is_input_error(self, tmp_path, capsys, spec):
        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 3
        assert "error: bad suite spec:" in capsys.readouterr().err
        # rejected before any job ran: no CSV was started
        assert not out.exists()

    @pytest.mark.parametrize("entry, why", [
        ({"class": "base", "sizes": [4], "exponent": 2}, "exponent applies to class random"),
        ({"class": "partition", "weights": [2, 3], "exponent": 2},
         "exponent applies to class random"),
        ({"class": "random", "q": 6, "seed": 5}, "takes no key 'seed'"),
        ({"class": "random", "q": 6, "repetitions": 2.7}, "repetitions: expected integers"),
        ({"class": "partition", "weights": [2.9, 3]}, "weights: expected integers"),
        ({"class": "random", "q": 6, "seeds": [True]}, "seeds: expected integers"),
        ({"class": "partition", "weights": [2, 3], "seeds": [1]}, "takes no key 'seeds'"),
        ({"class": "base", "q": 4, "sizes": [5]}, "give sizes or q, not both"),
        ({"class": "base", "sizes": [4], "modes": "nary"}, "modes must be a list"),
        ({"class": "random", "q": 6, "exponent": "2"}, "exponent: expected a number"),
        ({"class": "random", "q": 6, "exponent": True}, "exponent: expected a number"),
        ({"class": "base", "sizes": [4], "exponent": True}, "exponent: expected a number"),
        ("base", "an entry must be an object"),
        (["base", 4], "an entry must be an object"),
    ], ids=["base-exponent", "partition-exponent", "seed", "fractional-repetitions",
            "fractional-weight", "bool-seed", "partition-seeds", "q-and-sizes", "modes-string",
            "string-exponent", "bool-exponent", "base-bool-exponent", "bare-class", "list-entry"])
    def test_entry_rejected_before_any_job(self, tmp_path, capsys, entry, why):
        # these keys were once dropped or rounded, and the suite ran anyway
        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps({"entries": [{"class": "base", "sizes": [4]}, entry]}))
        out = tmp_path / "x.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad suite spec:") and why in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, out):
        args = ["bench", _base_suite(tmp_path, [4]), "--out", str(tmp_path / out)]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_suite(self, tmp_path, capsys):
        suite = tmp_path / "empty.json"
        suite.write_text(json.dumps({"entries": []}))
        assert main(["bench", str(suite), "--out", str(tmp_path / "x.csv")]) == 3
        assert "no jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, entry, label, direct", [
    (["base", "6"], {"class": "base", "q": 6}, "b6", lambda: generate_base(6)),
    (["random", "8", "--seed", "5", "--exponent", "1.5"],
     {"class": "random", "q": 8, "seeds": [5], "exponent": 1.5}, "r8-s5-p1.5",
     lambda: generate_random(8, seed=5, exponent=1.5)),
    (["partition", "2 3 5 4"], {"class": "partition", "weights": [2, 3, 5, 4]}, "p2+3+5+4",
     lambda: partition_reduction([2, 3, 5, 4])),
], ids=list(INSTANCE_CLASSES))
def test_generate_and_suite_agree(tmp_path, capsys, argv, entry, label, direct):
    path = tmp_path / "inst.txt"
    assert main(["generate", *argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {label}:")
    assert read_instance(path) == direct()
    assert latalloc.cli.entry_instances(entry) == [(label, direct())]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"entries": [entry]}))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(suite), "--out", str(out)]) == 0
    row = _csv_rows(out.read_text())[1]
    assert row[:3] == [label, entry["class"], str(direct().q)]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, jobs):
        return map(fn, jobs)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(latalloc.cli, "ProcessPoolExecutor", _InlinePool)
    return _InlinePool


def _base_suite(tmp_path, sizes):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"entries": [{"class": "base", "sizes": sizes}]}))
    return str(suite)


class TestBenchWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_is_input_error(self, tmp_path, capsys, inline_pool, workers):
        out = tmp_path / "x.csv"
        args = ["bench", _base_suite(tmp_path, [4]), "--out", str(out), "--workers", workers]
        assert main(args) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
        assert inline_pool.sizes == []

    def test_pool_capped_at_job_count(self, tmp_path, inline_pool):
        out = tmp_path / "x.csv"
        args = ["bench", _base_suite(tmp_path, [4, 5]), "--out", str(out), "--workers", "100000"]
        assert main(args) == 0
        assert inline_pool.sizes == [2]
        assert len([r for r in _csv_rows(out.read_text())[1:] if r[0] != "average"]) == 2

    def test_single_job_runs_without_pool(self, tmp_path, inline_pool):
        args = ["bench", _base_suite(tmp_path, [4]), "--out", str(tmp_path / "x.csv"),
                "--workers", "100000"]
        assert main(args) == 0
        assert inline_pool.sizes == []


class TestInvariant:
    """A root bound above the optimum must stop every run path with exit 4."""

    @pytest.fixture
    def loose_bound(self, monkeypatch):
        # raise the bound above the optimum on instances with q >= 6 only
        def bound(instance):
            root = continuous_relaxation_bound(instance)
            return SimpleNamespace(bound=root.bound + 1e3 if instance.q >= 6 else root.bound)
        monkeypatch.setattr(latalloc.cli, "continuous_relaxation_bound", bound)

    @pytest.mark.parametrize("extra", [[], ["--heuristic-only"]])
    def test_solve(self, ladder_file, capsys, loose_bound, extra):
        assert main(["solve", ladder_file, *extra]) == 4
        captured = capsys.readouterr()
        assert "violated" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bench_stops_and_keeps_written_rows(self, tmp_path, capsys, loose_bound,
                                                inline_pool, workers):
        out = tmp_path / "bench.csv"
        args = ["bench", _base_suite(tmp_path, [4, 6, 5]), "--out", str(out),
                "--workers", workers]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert "1/3 jobs" in captured.out
        assert "violated" in captured.err
        rows = _csv_rows(out.read_text())
        assert rows[0] == CSV_COLUMNS
        assert [r[0] for r in rows[1:]] == ["b4", "average"]


def test_real_pool_matches_serial_run(tmp_path):
    # the README's suite, run by a process pool and in-process; only times may differ
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    suite = tmp_path / "suite.json"
    suite.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    csvs = []
    for workers in ("2", "1"):
        out = tmp_path / f"w{workers}.csv"
        proc = run_isolated(["-m", "latalloc.cli", "bench", str(suite), "--out", str(out),
                             "--workers", workers])
        assert proc.returncode == 0, proc.stderr
        rows = _csv_rows(out.read_text())
        wall = rows[0].index("wall_ms")
        csvs.append([r[:wall] + r[wall + 1:] for r in rows])
    assert csvs[0] == csvs[1]
    assert len(csvs[0]) > 10


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
