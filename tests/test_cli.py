import csv
import json

import pytest

from subdfo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProblemsList:
    def test_lists_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "problems", "list")
        assert code == 0
        for name in ("sphere", "chained_rosenbrock", "saddle_quartic"):
            assert name in out


class TestSolve:
    def test_writes_store_and_trace(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--problem", "sphere",
            "--n", "6",
            "--solver", "rsdfoq",
            "--p", "2",
            "--seed", "3",
            "--budget-mult", "20",
            "--out", str(out_dir),
            "--trace",
        )
        assert code == 0
        assert "sphere" in out
        lines = (out_dir / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["n"] == 6
        assert record["total_evals"] <= 20 * 7
        trace_lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
        entry = json.loads(trace_lines[0])
        assert set(entry) == {"k", "class", "R", "delta", "rho", "sigma_m", "evals"}

    def test_config_file_merges(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_inc": 3.0}))
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--problem", "sphere",
            "--n", "4",
            "--solver", "rsdfo",
            "--p", "2",
            "--out", str(tmp_path / "o"),
            "--budget-mult", "5",
            "--config", str(cfg),
        )
        assert code == 0

    def test_run_without_evaluations_reports_termination(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_time": 1e-12}))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            capsys,
            "solve",
            "--problem", "sphere",
            "--n", "4",
            "--solver", "rsdfoq",
            "--p", "2",
            "--out", str(out_dir),
            "--config", str(cfg),
        )
        assert code == 0, err
        assert "best f" not in out
        assert "(time)" in out
        record = json.loads((out_dir / "records.jsonl").read_text())
        assert (record["termination"], record["total_evals"], record["trace"]) == ("time", 0, [])

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_field": 1}))
        code, _, err = run_cli(
            capsys,
            "solve",
            "--problem", "sphere",
            "--n", "4",
            "--solver", "rsdfo",
            "--p", "2",
            "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        )
        assert code == 2
        payload = json.loads(err)
        assert "not_a_field" in payload["detail"]

    def test_unknown_problem_is_json_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--problem", "missing",
            "--n", "4",
            "--solver", "rsdfo",
            "--p", "2",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "CatalogError"


def write_suite(path):
    suite = {
        "problems": [{"name": "sphere", "n": 5}, {"name": "sum_of_powers", "n": 5}],
        "solvers": [
            {"name": "rsdfoq-p2", "algorithm": "rsdfoq", "config": {"p": 2}},
            {"name": "rsdfo-p2", "algorithm": "rsdfo", "config": {"p": 2}},
        ],
    }
    path.write_text(json.dumps(suite))


class TestBenchAndProfile:
    def test_end_to_end(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        write_suite(suite)
        out_dir = tmp_path / "res"
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--suite", str(suite),
            "--seeds", "2",
            "--budget-mult", "20",
            "--time-cap", "120",
            "--out", str(out_dir),
            "--seed", "7",
        )
        assert code == 0
        assert "8 runs" in out

        profile_csv = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys,
            "profile",
            "--in", str(out_dir),
            "--tau", "0.1",
            "--kind", "data",
            "--out", str(profile_csv),
        )
        assert code == 0
        with open(profile_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["solver", "abscissa", "fraction"]
        assert {r[0] for r in rows[1:]} <= {"rsdfoq-p2", "rsdfo-p2"}

        perf_csv = tmp_path / "perf.csv"
        code, _, _ = run_cli(
            capsys,
            "profile",
            "--in", str(out_dir),
            "--tau", "0.1",
            "--kind", "perf",
            "--out", str(perf_csv),
        )
        assert code == 0


class TestSketchCheck:
    def test_csv_columns(self, tmp_path, capsys):
        out_file = tmp_path / "check.csv"
        code, _, _ = run_cli(
            capsys,
            "sketch-check",
            "--kind", "gaussian",
            "--n", "40",
            "--p", "8",
            "--alpha", "0.5",
            "--trials", "50",
            "--out", str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "n", "p", "alpha", "p_max", "trials", "pass_rate"]
        rate = float(rows[1][6])
        assert 0.0 <= rate <= 1.0
