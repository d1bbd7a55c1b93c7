"""One pass of a workload: its solves in order, then the store and profiles."""

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from subdfo import bench
from subdfo.problems import Problem
from subdfo.records import RunRecord
from subdfo.solvers import SOLVERS, SolverConfig

from perfbench import metrics
from perfbench.tracing import Tracer


@dataclass
class Instance:
    problem: Problem
    config: SolverConfig


@dataclass
class PassResult:
    wall_s: float
    records_text: str
    records: list
    failures: list  # {"problem", "seed", "error", "message"} per failed solve
    iter_s: list  # per-iteration wall times over all solves
    iterations: int
    successful: int  # iterations classified "successful"
    violations: list
    spans: Optional[list] = None
    counts: Optional[dict] = None


def run_pass(solver: str, instances: list, store: Path, tracer: Optional[Tracer] = None) -> PassResult:
    """Solve every instance, then persist and profile the records.

    A solve that raises, or ends with termination "error", is a failure: it
    is kept with its exception text and stored as an "error" record, as
    ``subdfo bench`` would store it, and the pass goes on.
    """
    clock = time.perf_counter
    records, failures, iter_s, classes, violations = [], [], [], [], []
    solve = SOLVERS[solver]
    t0 = clock()
    for sid, inst in enumerate(instances):
        stamps = []

        def log_cb(log, stamps=stamps):
            stamps.append(clock())
            classes.append(log.classification)

        try:
            with tracer.solve(sid) if tracer else nullcontext():
                rec = solve(inst.problem, inst.config, log_cb=log_cb)
        except Exception as err:  # a solve that raises is counted, not fatal
            failures.append({"problem": inst.problem.name, "seed": inst.config.seed,
                             "error": type(err).__name__, "message": str(err)})
            rec = RunRecord(inst.problem.name, inst.problem.dim, solver, inst.config.seed,
                            termination="error")
        else:
            if rec.termination == "error":
                failures.append({"problem": rec.problem, "seed": rec.seed, "error": "termination",
                                 "message": "run ended with termination='error'"})
        iter_s.extend(metrics.iteration_times(stamps))
        violations += [
            f"{rec.problem} seed {rec.seed}: {v}"
            for v in metrics.check_record(rec, inst.config.max_evals, inst.problem.f_min)
        ]
        records.append(rec)
    records.sort(key=lambda r: (r.problem, r.n, r.solver, r.seed))
    bench.write_store(records, store)
    for tau in (1e-1, 1e-3):
        bench.profiles_from_records(records, tau, "data")
    wall = clock() - t0
    text = (Path(store) / bench.RECORDS_FILE).read_text()
    successful = classes.count("successful")
    return PassResult(wall, text, records, failures, iter_s, len(classes), successful, violations)
