import json
import logging
import math
from pathlib import Path

import pytest

from subdfo.bench import (
    SolverSpec,
    accuracy_table,
    data_profile,
    evals_to_accuracy,
    load_records,
    performance_profile,
    profiles_from_records,
    run_campaign,
    write_store,
)
from subdfo.exceptions import ContractViolationError
from subdfo.records import RunRecord


def rec(problem="sphere", n=4, solver="a", seed=0, trace=None, termination="budget"):
    return RunRecord(problem, n, solver, seed, trace or [(1, 10.0)], 0.0, termination)


class TestEvalsToAccuracy:
    def test_threshold_crossing(self):
        r = rec(trace=[(1, 10.0), (20, 5.0), (37, 1.0), (50, 0.5)])
        assert evals_to_accuracy(r, f0=10.0, f_min=0.0, tau=0.1) == 37

    def test_never_reached(self):
        r = rec(trace=[(1, 10.0), (40, 2.0)])
        assert evals_to_accuracy(r, 10.0, 0.0, 0.1) == math.inf

    def test_boundary_tau_one(self):
        r = rec(trace=[(1, 10.0)])
        assert evals_to_accuracy(r, 10.0, 0.0, 1.0) == 1

    def test_monotone_in_tau(self):
        r = rec(trace=[(1, 10.0), (5, 4.0), (9, 1.0), (30, 0.01)])
        taus = [0.001, 0.01, 0.1, 0.5, 0.9]
        counts = [evals_to_accuracy(r, 10.0, 0.0, t) for t in taus]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_preconditions(self):
        with pytest.raises(ContractViolationError):
            evals_to_accuracy(rec(), 1.0, 1.0, 0.1)
        with pytest.raises(ContractViolationError):
            evals_to_accuracy(rec(), 2.0, 1.0, 0.0)


class TestDataProfile:
    def test_single_instance_breakpoint(self):
        curve = data_profile([(4, 10)])
        assert curve.value_at(2.0) == 1.0
        assert curve.value_at(1.9) == 0.0

    def test_all_unsolved_flat_zero(self):
        curve = data_profile([(4, math.inf), (9, math.inf)])
        assert curve.abscissae == ()
        assert curve.value_at(100.0) == 0.0

    def test_two_solver_fixture(self):
        a = data_profile([(4, 10)])
        b = data_profile([(4, 25)])
        assert a.value_at(2.0) == 1.0
        assert b.value_at(2.0) == 0.0
        assert a.value_at(5.0) == 1.0
        assert b.value_at(5.0) == 1.0

    def test_monotone_fractions(self):
        curve = data_profile([(3, 4), (3, 8), (3, math.inf), (7, 16)])
        fr = curve.fractions
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert fr[-1] <= 1.0

    def test_budget_grid_resampling(self):
        curve = data_profile([(4, 10)], budgets=[1.0, 2.0, 3.0])
        assert curve.abscissae == (1.0, 2.0, 3.0)
        assert curve.fractions == (0.0, 1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            data_profile([])


class TestPerformanceProfile:
    def test_two_solver_fixture(self):
        curves = performance_profile(
            {"a": [("prob", 10)], "b": [("prob", 25)]}
        )
        assert curves["a"].value_at(1.0) == 1.0
        assert curves["b"].value_at(2.4) == 0.0
        assert curves["b"].value_at(2.5) == 1.0

    def test_single_solver(self):
        curves = performance_profile({"a": [("p1", 10), ("p2", 30), ("p3", math.inf)]})
        assert curves["a"].value_at(1.0) == pytest.approx(2 / 3)

    def test_all_unsolved(self):
        curves = performance_profile({"a": [("p", math.inf)], "b": [("p", math.inf)]})
        assert curves["a"].value_at(1e9) == 0.0
        assert curves["b"].value_at(1e9) == 0.0


class TestCampaign:
    def test_cardinality_and_store_roundtrip(self, tmp_path):
        records = run_campaign(
            [("sphere", 4), ("sum_of_powers", 4)],
            [SolverSpec("rsdfoq-p2", "rsdfoq", {"p": 2})],
            seeds=3,
            budget_multiplier=10.0,
            time_cap=60.0,
            out_dir=tmp_path,
            master_seed=0,
        )
        assert len(records) == 6
        assert (tmp_path / "records.jsonl").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        loaded = load_records(tmp_path)
        assert [r.to_dict(include_wall_time=False) for r in loaded] == [
            r.to_dict(include_wall_time=False) for r in records
        ]

    def test_deterministic_store(self, tmp_path):
        def run(out):
            return run_campaign(
                [("sphere", 4)],
                [SolverSpec("s", "rsdfo", {"p": 2})],
                seeds=2,
                budget_multiplier=10.0,
                time_cap=None,
                out_dir=out,
                master_seed=42,
            )

        run(tmp_path / "a")
        run(tmp_path / "b")
        for name in ("records.jsonl", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_run_failure_recorded(self, tmp_path, caplog):
        # p larger than n makes the solver raise; the campaign must record
        # the failure, log its exception text, and continue.
        caplog.set_level(logging.WARNING, logger="subdfo.bench")
        records = run_campaign(
            [("sphere", 4)],
            [SolverSpec("bad", "rsdfoq", {"p": 10}), SolverSpec("ok", "rsdfoq", {"p": 2})],
            seeds=1,
            budget_multiplier=5.0,
            time_cap=None,
            out_dir=None,
            master_seed=0,
        )
        by_name = {r.solver: r for r in records}
        assert by_name["bad"].termination == "error"
        assert by_name["ok"].termination != "error"
        [failure] = [r for r in caplog.records if r.name == "subdfo.bench"]
        assert "ContractViolationError" in failure.getMessage()
        assert "exceeds problem dimension" in failure.getMessage()

    def test_profiles_from_records(self, tmp_path):
        records = run_campaign(
            [("sphere", 6)],
            [SolverSpec("q", "rsdfoq", {"p": 2}), SolverSpec("lin", "rsdfo", {"p": 2})],
            seeds=2,
            budget_multiplier=50.0,
            time_cap=None,
            out_dir=None,
            master_seed=1,
        )
        rows = accuracy_table(records, tau=0.1)
        assert len(rows) == 4
        for kind in ("data", "perf"):
            curves = profiles_from_records(records, tau=0.1, kind=kind)
            assert set(curves) == {"q", "lin"}
            for c in curves.values():
                assert all(b >= a for a, b in zip(c.fractions, c.fractions[1:]))

    def test_wall_time_excluded_from_canonical_store(self, tmp_path):
        records = [rec()]
        records[0].wall_time = 123.456
        write_store(records, tmp_path)
        line = json.loads((tmp_path / "records.jsonl").read_text().strip())
        assert "wall_time" not in line
        assert "timings.csv" in {p.name for p in Path(tmp_path).iterdir()}
