"""subdfo benchmark: fixed solve lists, end-to-end metrics, per-layer spans.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-n100 --seed 0 --seconds 28 --trace 0

A workload is a fixed list of solves (problem, n, p, q, budget), each with a
``SolverConfig.seed`` derived from ``--seed``. One *pass* runs the list one
solve after another in this process (a closed loop with one client), then
persists and profiles the records as ``subdfo bench`` and ``subdfo profile``
do. Passes repeat until ``--seconds`` is used up, and timings are medians
over passes. Every pass must reproduce the first pass's canonical
``records.jsonl`` byte for byte.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``tracing.py``) plus the tracing overhead. Metric names, their
order and units come from ``BENCHMARK.json``. The last line of standard
output is one JSON object; details (environment, records digest, failed
solves, per-layer seconds) go to ``.perfbench_out/<workload>/``. The process
exits 1 if any output check fails.

``setup_s`` is the time from process start to the first timed solve. Only a
fresh process pays it cold, so besides this process's own set-up the
untraced run starts ``SETUP_PROBES`` more processes with ``--setup-only``,
each of which sets up and prints its time, and reports the median.
"""

import os
import sys
import time

T_START = time.perf_counter()

# BLAS threads must be pinned before numpy loads OpenBLAS: two threads on a
# 2-core machine turn a 29 ms p99 iteration into 141 ms.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    from subdfo.problems import make_problem
    from subdfo.seeding import derive_seed
    from subdfo.solvers import SOLVERS, SolverConfig
except ImportError as _err:
    sys.exit(f"perfbench: cannot import subdfo from {ROOT / 'src'}: {_err}")

from perfbench import metrics  # noqa: E402
from perfbench.passes import Instance, PassResult, run_pass  # noqa: E402
from perfbench.tracing import LAYERS, SOLVE_SPAN, Tracer, layer_table  # noqa: E402

CATALOG = (
    "chained_rosenbrock",
    "low_rank_quadratic",
    "saddle_quartic",
    "sphere",
    "sum_of_powers",
    "trigonometric",
)
# Extra cold set-ups, each in a fresh process, for the median of setup_s.
SETUP_PROBES = 2
SETUP_PROBE_TIMEOUT_S = 120
# Share of the traced pass the spans may leave unattributed.
UNATTRIBUTED_TOL = 0.02


@dataclass(frozen=True)
class Workload:
    """A fixed list of solves: each problem ``replicates`` times, each with its
    own derived seed; budgets are per problem, in gradient units (n+1 evals)."""

    name: str
    solver: str
    budgets_gu: tuple  # ((problem, budget in gradient units), ...)
    replicates: int
    n: int
    p: int
    q: Optional[int]  # None: the solver default
    warmup_evals: int  # budget of the set-up's warm-up solve, a few iterations


# Each budget sits in a gap of the evaluations-to-tau seen over ten seeds, so
# solved fractions rarely flip between seeds. suite-n100: every problem reaches
# tau=1e-1 by 6.0 (n+1), only low_rank_quadratic reaches 1e-3 before 7.9.
# highdim-n2000: low_rank_quadratic reaches 1e-3 by 820 evaluations. fullspace:
# 1e-3 takes at most 9.5 (n+1) on three problems and at least 16.7 on the
# others. proto2: only low_rank_quadratic reaches 1e-1 before 20.8 (n+1).
WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 7's configuration: MFN build, saddle solve, removal and
        # the two eighs dominate; the objective is about 1%.
        Workload("suite-n100", "rsdfoq", tuple((p, 7.0) for p in CATALOG), 2, 100, 25, 51, 50),
        # Two n x p Householder QRs per iteration dominate; sphere is never
        # solved here, low_rank_quadratic keeps both tau counts non-zero.
        Workload(
            "highdim-n2000",
            "rsdfoq",
            (("sphere", 0.15), ("low_rank_quadratic", 0.5)),
            1, 2000, 50, 101, 75,
        ),
        # The only p == n workload; q = (p+1)(p+2)/2 makes the KKT system
        # large and the MFN fallback frequent.
        Workload("fullspace-maxq-n12", "rsdfoq", tuple((p, 12.0) for p in CATALOG), 3, 12, 12, 91, 60),
        # The prototype second-order solver: sketches and full quadratic
        # models, none of the rsdfoq point management.
        Workload("proto2-n1000", "rsdfo2", tuple((p, 15.0) for p in CATALOG), 1, 1000, 8, None, 221),
    )
}


def make_instances(wl: Workload, seed: int) -> list:
    out = []
    for pname, gu in wl.budgets_gu:
        budget = int(round(gu * (wl.n + 1)))
        for rep in range(wl.replicates):
            cfg = SolverConfig(
                p=wl.p, q=wl.q, seed=derive_seed(seed, wl.name, pname, rep), max_evals=budget
            )
            out.append(Instance(make_problem(pname, wl.n), cfg))
    return out


def set_up(wl: Workload, seed: int):
    """Build every instance and run one short warm-up solve; return the
    instances and the seconds from process start to the end of set-up."""
    instances = make_instances(wl, seed)
    first = instances[0]
    warm = replace(first.config, max_evals=min(first.config.max_evals, wl.warmup_evals))
    SOLVERS[wl.solver](first.problem, warm)
    # What set-up allocated is never freed; keep it out of later collections.
    gc.collect()
    gc.freeze()
    return instances, time.perf_counter() - T_START


def probe_setup_s(wl: Workload, seed: int) -> float:
    """Set-up time of a fresh process running ``--setup-only``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=SETUP_PROBE_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def run_passes(wl: Workload, instances: list, store: Path, seconds: float, trace: bool) -> list:
    """Repeat the pass until ``seconds`` are used; with ``trace``, every
    second pass runs under the tracer, so traced and untraced passes alternate."""
    passes = []
    t_start = time.perf_counter()
    while True:
        gc.collect()  # start each pass without the previous pass's garbage
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                pr = run_pass(wl.solver, instances, store, tracer)
            pr.spans, pr.counts = tracer.spans, dict(tracer.counts)
        else:
            pr = run_pass(wl.solver, instances, store)
        passes.append(pr)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median([p.wall_s for p in passes])
        if len(passes) >= (2 if trace else 1) and elapsed + typical > seconds:
            return passes


def iteration_metrics(passes: list) -> dict:
    """Median over passes of each pass's p50 and tail iteration time."""
    n = len(passes[0].iter_s)  # the same in every pass: solves are deterministic
    pct = metrics.tail_percentile(n)
    if pct is None:
        raise RuntimeError(f"only {n} iterations in a pass; too few for a tail")
    return {
        "iter_ms_p50": 1e3 * statistics.median([statistics.median(pr.iter_s) for pr in passes]),
        "iter_ms_tail": 1e3 * statistics.median([metrics.percentile(pr.iter_s, pct) for pr in passes]),
        "tail_percentile": pct,
        "iterations_per_pass": n,
        "samples_beyond_tail": metrics.samples_beyond(n, pct),
    }


def traced_layers(pr: PassResult) -> dict:
    """Per-layer table of one traced pass, seconds and shares of its wall."""
    spans = pr.spans
    self_s = metrics.self_times(spans)
    keys = [key for key, *_ in LAYERS] + [SOLVE_SPAN]
    table = layer_table(spans, self_s, keys)
    attributed = sum(self_s)
    iters = pr.iterations
    evals = sum(r.total_evals for r in pr.records)
    out = {"traced.wall_s": pr.wall_s, "unattributed_s": pr.wall_s - attributed}
    for key in keys:
        if key != SOLVE_SPAN:
            out[f"{key}.calls"] = table[f"{key}.calls"]
            out[f"{key}.failed"] = table[f"{key}.failed"]
        out[f"{key}.self_s"] = table[f"{key}.self_s"]
        out[f"{key}.self_pct"] = 100.0 * table[f"{key}.self_s"] / pr.wall_s
    lag_calls = table["interp.lagrange_from_coords.calls"]
    out.update({
        "solvers.iterations": iters,
        "solvers.evals_per_iter": evals / iters if iters else 0.0,
        "solvers.successful_frac":
            pr.successful / iters if iters else 0.0,
        "interp.mfn_fallback_frac":
            table["interp.build_mfn_model.failed"] / iters if iters else 0.0,
        "interp.lagrange_degenerate_frac":
            table["interp.lagrange_from_coords.failed"] / lag_calls if lag_calls else 0.0,
    })
    for kind in ("cauchy", "eigen", "refined"):
        out[f"trs.kind.{kind}"] = pr.counts.get(f"trs.kind.{kind}", 0)
    return out


def environment(args, wl: Workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the seconds since process start, and exit")
    args = ap.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        ap.error("--seconds is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wl = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / wl.name
    store = out_dir / "store"

    instances, setup_s = set_up(wl, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    passes = run_passes(wl, instances, store, args.seconds, bool(args.trace))
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup_s(wl, args.seed) for _ in range(SETUP_PROBES)]

    first = passes[0]
    violations = list(first.violations)
    for k, pr in enumerate(passes[1:], start=1):
        violations += pr.violations
        if pr.records_text != first.records_text:
            violations.append(f"pass {k} records.jsonl differs from pass 0")
    store_sha = metrics.sha256_text(first.records_text)
    attempted = len(instances) * len(passes)
    failed = sum(len(pr.failures) for pr in passes)
    budgets = {(inst.problem.name, wl.n): inst.config.max_evals for inst in instances}

    detail = {
        "environment": environment(args, wl),
        "passes": len(passes),
        "pass_wall_s": [pr.wall_s for pr in passes],
        "records_sha256": store_sha,
        "failed_frac": failed / attempted,
        "failures": first.failures,
        "setup_s": setups,
    }
    if args.trace:
        plain = [pr for pr in passes if pr.spans is None]
        traced = [pr for pr in passes if pr.spans is not None]
        tables = [traced_layers(pr) for pr in traced]
        layers = {k: statistics.median([t[k] for t in tables]) for k in tables[0]}
        layers["tracing_overhead_frac"] = (
            statistics.median([p.wall_s for p in traced]) / statistics.median([p.wall_s for p in plain]) - 1.0
        )
        for t in tables:
            if abs(t["unattributed_s"]) > UNATTRIBUTED_TOL * t["traced.wall_s"]:
                violations.append(
                    f"layer self times miss {t['unattributed_s']:.4f} s of the traced wall {t['traced.wall_s']:.4f} s"
                )
        detail["layers"] = layers
        reported = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        quality = metrics.quality(first.records, budgets)
        iters = iteration_metrics(passes)
        detail.update({k: iters[k] for k in ("tail_percentile", "iterations_per_pass", "samples_beyond_tail")})
        values = {
            "wall_s": statistics.median([pr.wall_s for pr in passes]),
            "iter_ms_p50": iters["iter_ms_p50"],
            "iter_ms_tail": iters["iter_ms_tail"],
            **quality,
            "completed_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    detail["violations"] = violations
    detail["metrics"] = reported

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if args.trace:
        with open(out_dir / "spans.jsonl", "w") as fh:
            for k, pr in enumerate(passes):
                for name, start, end, parent, sid, bad in pr.spans or ():
                    fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                         "parent": parent, "solve": sid, "failed": bad}))
                    fh.write("\n")

    env = detail["environment"]
    print(f"# {wl.name} seed={args.seed} passes={len(passes)} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} blas_threads={env['blas_threads']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"# records_sha256 {store_sha}")
    print(f"# failed_frac {detail['failed_frac']:.6g} ({failed}/{attempted} solves)")
    for f in first.failures:
        print(f"# failed solve {f['problem']} seed {f['seed']}: {f['error']}: {f['message']}")
    if not args.trace:
        print(f"# iter_ms_tail is p{detail['tail_percentile']:g} over {detail['iterations_per_pass']} "
              f"iterations per pass ({detail['samples_beyond_tail']} beyond it)")
    else:
        for name, value in sorted(detail["layers"].items()):
            if name.endswith(".self_s"):
                print(f"# {name} {value:.6g} s")
    for name, value in reported.items():
        print(f"{name} {value:.6g} {units[name]}")
    for v in violations:
        print(f"# CHECK FAILED: {v}", file=sys.stderr)

    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
