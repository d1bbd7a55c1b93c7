"""Campaign orchestration, accuracy accounting, and data/performance profiles.

Runs (problem, solver, seed) grids under an evaluation budget proportional
to n+1, persists the run records in a canonically ordered store, and turns
them into data profiles (fraction solved vs budget in gradient units) and
performance profiles (fraction solved vs ratio to the best solver).
"""

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .exceptions import ContractViolationError
from .problems import make_problem
from .records import RunRecord
from .seeding import derive_seed
from .solvers import SOLVERS, SolverConfig

logger = logging.getLogger(__name__)

RECORDS_FILE = "records.jsonl"
SUMMARY_FILE = "summary.csv"
TIMINGS_FILE = "timings.csv"


@dataclass(frozen=True)
class ProfileCurve:
    """Right-continuous step curve: fraction of instances solved vs abscissa."""

    abscissae: Tuple[float, ...]
    fractions: Tuple[float, ...]

    def __post_init__(self):
        if len(self.abscissae) != len(self.fractions):
            raise ContractViolationError("abscissae and fractions must align")
        if any(b > a for a, b in zip(self.abscissae[1:], self.abscissae[:-1])):
            raise ContractViolationError("abscissae must be sorted")
        prev = 0.0
        for f in self.fractions:
            if f < prev - 1e-15 or f > 1.0 + 1e-15:
                raise ContractViolationError("fractions must be nondecreasing and <= 1")
            prev = f

    def value_at(self, x: float) -> float:
        out = 0.0
        for a, f in zip(self.abscissae, self.fractions):
            if a <= x:
                out = f
            else:
                break
        return out

    def resample(self, grid: Sequence[float]) -> "ProfileCurve":
        grid = tuple(sorted(float(g) for g in grid))
        return ProfileCurve(grid, tuple(self.value_at(g) for g in grid))


def evals_to_accuracy(record: RunRecord, f0: float, f_min: float, tau: float):
    """First evaluation index reaching f <= f_min + tau (f0 - f_min), or inf."""
    if not f0 > f_min:
        raise ContractViolationError("need f0 > f_min")
    if not (0.0 < tau <= 1.0):
        raise ContractViolationError("tau must lie in (0, 1]")
    threshold = f_min + tau * (f0 - f_min)
    for e, f in record.trace:
        if f <= threshold:
            return e
    return math.inf


def _step_curve(xs, total: int) -> ProfileCurve:
    """Fraction of ``total`` instances whose value in ``xs`` is at most x."""
    abscissae, fractions = [], []
    for solved, x in enumerate(sorted(xs), start=1):
        if abscissae and abscissae[-1] == x:
            fractions[-1] = solved / total
        else:
            abscissae.append(x)
            fractions.append(solved / total)
    return ProfileCurve(tuple(abscissae), tuple(fractions))


def data_profile(items: Sequence[Tuple[int, float]], budgets: Optional[Sequence[float]] = None) -> ProfileCurve:
    """Fraction of instances solved within beta (n+1) evaluations.

    ``items`` holds (n, evals_to_accuracy) pairs, one per problem instance;
    unsolved instances carry inf and count only in the denominator. Without
    an explicit ``budgets`` grid the curve uses the instance-induced
    breakpoints.
    """
    if not items:
        raise ContractViolationError("empty result set")
    curve = _step_curve([e / (n + 1) for n, e in items if math.isfinite(e)], len(items))
    return curve if budgets is None else curve.resample(budgets)


def performance_profile(
    results_by_solver: Dict[str, Sequence[Tuple[object, float]]],
) -> Dict[str, ProfileCurve]:
    """Per-solver fraction of instances solved within a ratio of the best.

    ``results_by_solver`` maps a solver name to (problem key, evals) pairs.
    The reference for each problem key is the minimum finite evaluation count
    over every instance of every solver; problems nobody solved contribute
    to denominators only.
    """
    if not results_by_solver:
        raise ContractViolationError("empty result set")
    best: Dict[object, float] = {}
    for items in results_by_solver.values():
        for key, e in items:
            if math.isfinite(e):
                best[key] = min(best.get(key, math.inf), e)
    curves = {}
    for solver, items in results_by_solver.items():
        if not items:
            raise ContractViolationError(f"solver {solver!r} has no results")
        curves[solver] = _step_curve(
            [e / best[key] for key, e in items if math.isfinite(e) and key in best], len(items)
        )
    return curves


@dataclass
class SolverSpec:
    """A named solver entry of a campaign: algorithm plus config overrides."""

    name: str
    algorithm: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in SOLVERS:
            raise ContractViolationError(
                f"unknown algorithm {self.algorithm!r}; known: {sorted(SOLVERS)}"
            )


def run_campaign(
    problems: Sequence[Tuple[str, int]],
    solvers: Sequence[SolverSpec],
    seeds: int,
    budget_multiplier: float,
    time_cap: Optional[float],
    out_dir,
    master_seed: int = 0,
) -> List[RunRecord]:
    """Run every (problem, solver, seed) triple and persist the result store.

    Each run's budget is budget_multiplier * (n + 1) evaluations; its RNG
    seed is derived from the master seed and the triple, so the persisted
    store is a pure function of the inputs. Individual run failures are
    recorded with termination='error', their exception logged as a warning,
    and the campaign continues.
    """
    if not problems or not solvers:
        raise ContractViolationError("need at least one problem and one solver")
    if seeds < 1:
        raise ContractViolationError("need at least one seed")
    records = []
    for pname, n in problems:
        budget = int(round(budget_multiplier * (n + 1)))
        for spec in solvers:
            for i in range(seeds):
                seed = derive_seed(master_seed, pname, n, spec.name, i)
                overrides = dict(spec.config)
                overrides.setdefault("p", max(1, min(n, n // 4)))
                overrides.update(seed=seed, max_evals=budget, max_time=time_cap)
                problem = make_problem(pname, n)
                t0 = time.perf_counter()
                try:
                    config = SolverConfig.from_dict(overrides)
                    rec = SOLVERS[spec.algorithm](problem, config)
                    rec.solver = spec.name
                except Exception as err:  # isolate run failures
                    logger.warning(
                        "run %s n=%d solver %s seed %d failed: %s: %s",
                        pname, n, spec.name, seed, type(err).__name__, err,
                    )
                    rec = RunRecord(
                        problem=pname,
                        n=n,
                        solver=spec.name,
                        seed=seed,
                        trace=[],
                        wall_time=time.perf_counter() - t0,
                        termination="error",
                    )
                records.append(rec)
    records.sort(key=lambda r: (r.problem, r.n, r.solver, r.seed))
    if out_dir is not None:
        write_store(records, out_dir)
    return records


def write_store(records: Sequence[RunRecord], out_dir):
    """Persist records canonically; wall times go to a separate timings file.

    The canonical store (records + summary) is byte-identical across reruns
    with the same master seed; timings.csv is informational only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / RECORDS_FILE, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(include_wall_time=False), sort_keys=True))
            fh.write("\n")
    with open(out / SUMMARY_FILE, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "n", "solver", "seed", "evals", "best_f", "termination"])
        for r in records:
            best = f"{r.best_f:.17g}" if r.trace else ""
            w.writerow([r.problem, r.n, r.solver, r.seed, r.total_evals, best, r.termination])
    with open(out / TIMINGS_FILE, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "n", "solver", "seed", "wall_time"])
        for r in records:
            w.writerow([r.problem, r.n, r.solver, r.seed, f"{r.wall_time:.6f}"])


def load_records(in_dir) -> List[RunRecord]:
    path = Path(in_dir) / RECORDS_FILE
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


def accuracy_table(records: Sequence[RunRecord], tau: float) -> List[dict]:
    """Per-record evaluation counts to tau-accuracy, using catalog minima.

    f0 is the first traced value (the starting objective); f_min comes from
    the problem catalog. Records with an empty trace count as unsolved.
    """
    rows = []
    for r in records:
        if not r.trace:
            rows.append(
                {"problem": r.problem, "n": r.n, "solver": r.solver, "seed": r.seed, "evals": math.inf}
            )
            continue
        f_min = make_problem(r.problem, r.n).f_min
        f0 = r.trace[0][1]
        if not f0 > f_min:  # started at (or below) the target already
            evals = 1
        else:
            evals = evals_to_accuracy(r, f0, f_min, tau)
        rows.append(
            {"problem": r.problem, "n": r.n, "solver": r.solver, "seed": r.seed, "evals": evals}
        )
    return rows


def profiles_from_records(records: Sequence[RunRecord], tau: float, kind: str) -> Dict[str, ProfileCurve]:
    """Compute per-solver data or performance profiles from a record store."""
    rows = accuracy_table(records, tau)
    solvers = sorted({row["solver"] for row in rows})
    if kind == "data":
        return {
            s: data_profile(
                [(row["n"], row["evals"]) for row in rows if row["solver"] == s]
            )
            for s in solvers
        }
    if kind == "perf":
        grouped = {
            s: [
                ((row["problem"], row["n"]), row["evals"])
                for row in rows
                if row["solver"] == s
            ]
            for s in solvers
        }
        return performance_profile(grouped)
    raise ContractViolationError(f"unknown profile kind {kind!r}")


def write_profile_csv(curves: Dict[str, ProfileCurve], out_file):
    with open(out_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["solver", "abscissa", "fraction"])
        for solver in sorted(curves):
            c = curves[solver]
            for a, f in zip(c.abscissae, c.fractions):
                w.writerow([solver, f"{a:.17g}", f"{f:.17g}"])
