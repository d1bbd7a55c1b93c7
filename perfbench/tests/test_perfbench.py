"""Tests of the benchmark's own metric code, on hand-built inputs."""

import pytest

from perfbench import metrics
from perfbench.passes import Instance, run_pass
from perfbench.tracing import (
    LAYERS,
    MissingLayerError,
    Tracer,
    check_call_sites,
    layer_table,
)
from subdfo import solvers
from subdfo.problems import Problem, make_problem
from subdfo.records import RunRecord
from subdfo.solvers import SolverConfig


@pytest.mark.parametrize("n", [19, 20, 91, 92, 181, 182, 999, 5000])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    pct = metrics.tail_percentile(n)
    higher = [c for c in metrics.TAIL_PERCENTILES if pct is None or c > pct]
    for cand in higher:
        assert metrics.samples_beyond(n, cand) < metrics.TAIL_MIN_BEYOND
    if pct is not None:
        cut = metrics.percentile(values, pct)
        beyond = sum(v > cut for v in values)
        assert beyond == metrics.samples_beyond(n, pct)
        assert beyond >= metrics.TAIL_MIN_BEYOND


def test_tail_percentile_needs_ten_samples_beyond_the_median():
    assert metrics.tail_percentile(19) is None
    assert metrics.tail_percentile(20) == 50.0
    assert metrics.tail_percentile(91) == 50.0
    assert metrics.tail_percentile(92) == 90.0
    assert metrics.tail_percentile(181) == 90.0
    assert metrics.tail_percentile(182) == 95.0


def test_evals_gu_counts_unsolved_instances_at_the_budget():
    # sphere at n=2: f_min = 0, n + 1 = 3; tau = 0.1 needs f <= 0.8 from f0 = 8.
    solved = RunRecord("sphere", 2, "rsdfoq", 1, trace=[(1, 8.0), (5, 0.5)])
    unsolved = RunRecord("sphere", 2, "rsdfoq", 2, trace=[(1, 8.0), (3, 4.0)])
    failed = RunRecord("sphere", 2, "rsdfoq", 3, termination="error")
    q = metrics.quality([solved, unsolved, failed], {("sphere", 2): 30})
    assert q["evals_gu_tau1e-1"] == pytest.approx((5 / 3 + 30 / 3 + 30 / 3) / 3)
    assert q["solved_tau1e-1"] == pytest.approx(1 / 3)
    assert q["solved_tau1e-3"] == 0.0


def _raising_sphere(n: int, fail_after: int) -> Problem:
    prob = make_problem("sphere", n)
    calls = []

    def f(x):
        calls.append(1)
        if len(calls) > fail_after:
            raise RuntimeError("objective exploded")
        return float(x @ x)

    prob.raw_objective = f
    return prob


def test_objective_that_raises_is_a_failed_solve(tmp_path):
    good = make_problem("sphere", 4)
    cfg = SolverConfig(p=2, seed=1, max_evals=40)
    instances = [
        Instance(good, cfg),
        Instance(_raising_sphere(4, fail_after=6), SolverConfig(p=2, seed=2, max_evals=40)),
    ]
    result = run_pass("rsdfoq", instances, tmp_path)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert (failure["error"], failure["message"]) == ("RuntimeError", "objective exploded")
    assert len(result.failures) / len(instances) == 0.5
    assert sorted(r.termination for r in result.records)[0] == "budget"
    assert any(r.termination == "error" and not r.trace for r in result.records)
    assert result.violations == []
    assert (tmp_path / "records.jsonl").read_text() == result.records_text


def test_check_record_flags_each_contract_breach():
    ok = RunRecord("sphere", 2, "rsdfoq", 0, trace=[(1, 8.0), (4, 1.0)], total_evals=10)
    assert metrics.check_record(ok, budget=10, f_min=0.0) == []
    over = RunRecord("sphere", 2, "rsdfoq", 0, trace=[(1, 8.0)], total_evals=11)
    back = RunRecord("sphere", 2, "rsdfoq", 0, trace=[(4, 8.0), (4, 1.0)], total_evals=5)
    up = RunRecord("sphere", 2, "rsdfoq", 0, trace=[(1, 1.0), (2, 2.0)], total_evals=5)
    low = RunRecord("sphere", 2, "rsdfoq", 0, trace=[(1, 1.0), (2, -1e-3)], total_evals=5)
    for rec, word in ((over, "budget"), (back, "indices"), (up, "increase"), (low, "f_min")):
        (msg,) = metrics.check_record(rec, budget=10, f_min=0.0)
        assert word in msg
    ok.termination = "lost"
    assert "termination" in metrics.check_record(ok, budget=10, f_min=0.0)[0]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the root loses [1, 6] once
        ("c", 2.0, 3.0, 1),
        ("d", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
    ]
    assert metrics.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_table_sums_calls_self_time_and_failures():
    spans = [
        ["solvers.loop", 0.0, 5.0, -1, 0, False],
        ["trs.solve_trs", 1.0, 2.0, 0, 0, False],
        ["trs.solve_trs", 2.5, 3.0, 0, 0, True],
    ]
    table = layer_table(spans, metrics.self_times(spans), ["solvers.loop", "trs.solve_trs", "x.y"])
    assert table["trs.solve_trs.calls"] == 2
    assert table["trs.solve_trs.failed"] == 1
    assert table["trs.solve_trs.self_s"] == pytest.approx(1.5)
    assert table["solvers.loop.self_s"] == pytest.approx(3.5)
    assert table["x.y.calls"] == 0 and table["x.y.self_s"] == 0.0


def test_wrapped_names_exist_at_their_call_sites():
    check_call_sites()


def test_a_missing_or_inlined_layer_fails_loudly():
    with pytest.raises(MissingLayerError):
        check_call_sites((("solvers.gone", "subdfo.solvers", "no_such_function", ()),))
    with pytest.raises(MissingLayerError):
        check_call_sites(
            (("numerics.orthonormal_basis", "subdfo.solvers", "orthonormal_basis",
              ("subdfo.solvers:pdrop_heuristic",)),)
        )


def test_tracer_records_spans_and_restores_the_library(tmp_path):
    originals = {attr: getattr(solvers, attr) for _k, owner, attr, _c in LAYERS if owner == "subdfo.solvers"}
    tracer = Tracer()
    prob = make_problem("sphere", 6)
    inst = Instance(prob, SolverConfig(p=3, seed=0, max_evals=60))
    with tracer.installed():
        result = run_pass("rsdfoq", [inst], tmp_path, tracer)
    for attr, fn in originals.items():
        assert getattr(solvers, attr) is fn
    names = {s[0] for s in tracer.spans}
    assert {"solvers.loop", "interp.build_mfn_model", "trs.solve_trs", "problems.objective"} <= names
    self_s = metrics.self_times(tracer.spans)
    assert sum(self_s) == pytest.approx(result.wall_s, rel=0.05)
    assert sum(tracer.counts.values()) == sum(s[0] == "trs.solve_trs" for s in tracer.spans)
    objective_calls = sum(s[0] == "problems.objective" for s in tracer.spans)
    assert objective_calls == result.records[0].total_evals
