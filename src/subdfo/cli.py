"""Command-line interface: solve, bench, profile, sketch-check, problems.

All randomness is controlled by --seed; failures exit nonzero with a
machine-readable JSON error on stderr.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .exceptions import ContractViolationError
from .problems import catalog, make_problem
from .seeding import derive_rng
from .sketch import SKETCH_KINDS, default_p_max, estimate_alignment_probability
from .solvers import SOLVERS, SolverConfig


def _load_config_file(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ContractViolationError("config file must hold a JSON object")
    return data


def _cmd_solve(args) -> int:
    problem = make_problem(args.problem, args.n)
    overrides = _load_config_file(args.config) if args.config else {}
    overrides.update(
        p=args.p,
        seed=args.seed,
        max_evals=int(round(args.budget_mult * (args.n + 1))),
    )
    if args.q is not None:
        overrides["q"] = args.q
    if args.sketch is not None:
        overrides["sketch_kind"] = args.sketch
    config = SolverConfig.from_dict(overrides)

    logs = []
    rec = SOLVERS[args.solver](
        problem, config, log_cb=logs.append if args.trace else None
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench.write_store([rec], out)
    if args.trace:
        with open(out / "trace.jsonl", "w") as fh:
            for log in logs:
                fh.write(
                    json.dumps(
                        {
                            "k": log.k,
                            "class": log.classification,
                            "R": log.R,
                            "delta": log.delta,
                            "rho": log.rho,
                            "sigma_m": log.sigma_m,
                            "evals": log.evals_used,
                        },
                        sort_keys=True,
                    )
                )
                fh.write("\n")
    if rec.trace:
        outcome = f"best f = {rec.best_f:.6g} after {rec.evals} evaluations"
    else:
        outcome = f"no finite value in {rec.total_evals} evaluations"
    print(f"{rec.solver} on {rec.problem} (n={rec.n}): {outcome} ({rec.termination})")
    return 0


def _cmd_bench(args) -> int:
    with open(args.suite) as fh:
        suite = json.load(fh)
    problems = [(p["name"], int(p["n"])) for p in suite["problems"]]
    solvers = [
        bench.SolverSpec(s["name"], s["algorithm"], dict(s.get("config", {})))
        for s in suite["solvers"]
    ]
    records = bench.run_campaign(
        problems,
        solvers,
        seeds=args.seeds,
        budget_multiplier=args.budget_mult,
        time_cap=args.time_cap,
        out_dir=args.out,
        master_seed=args.seed,
    )
    n_err = sum(1 for r in records if r.termination == "error")
    print(f"campaign complete: {len(records)} runs ({n_err} errors) -> {args.out}")
    return 0


def _cmd_profile(args) -> int:
    records = bench.load_records(args.in_dir)
    curves = bench.profiles_from_records(records, tau=args.tau, kind=args.kind)
    bench.write_profile_csv(curves, args.out)
    print(f"wrote {args.kind} profile for {len(curves)} solver(s) -> {args.out}")
    return 0


def _cmd_sketch_check(args) -> int:
    kind = {"gaussian": "gaussian", "orthonormal": "scaled_orthonormal"}[args.kind]
    # Synthetic oracles: a seeded random unit gradient and a rank-2 Hessian
    # with one positive and one negative eigenvalue.
    rng = derive_rng(args.seed, "sketch-check", args.n)
    grad = rng.standard_normal(args.n)
    grad /= np.linalg.norm(grad)
    frame, _ = np.linalg.qr(rng.standard_normal((args.n, 2)))
    hess = 2.0 * np.outer(frame[:, 0], frame[:, 0]) - np.outer(frame[:, 1], frame[:, 1])
    p_max = args.p_max if args.p_max is not None else default_p_max(args.n, args.p)
    rate = estimate_alignment_probability(
        kind, args.n, args.p, grad, hess, args.alpha, p_max, args.trials, args.seed
    )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "n", "p", "alpha", "p_max", "trials", "pass_rate"])
        w.writerow([args.kind, args.n, args.p, args.alpha, f"{p_max:.17g}", args.trials, f"{rate:.17g}"])
    print(f"pass rate {rate:.4f} -> {args.out}")
    return 0


def _cmd_problems(args) -> int:
    if args.action == "list":
        for name, desc in sorted(catalog().items()):
            print(f"{name:22s} n >= 2   {desc}")
        return 0
    raise ContractViolationError(f"unknown problems action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdfo", description="Random-subspace derivative-free optimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one solver on one catalog problem")
    ps.add_argument("--problem", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--solver", choices=sorted(SOLVERS), required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--q", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--budget-mult", type=float, default=100.0)
    ps.add_argument("--out", required=True)
    ps.add_argument("--trace", action="store_true", help="write per-iteration trace")
    ps.add_argument("--config", default=None, help="JSON file with SolverConfig fields")
    ps.add_argument("--sketch", choices=SKETCH_KINDS, default=None)
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bench", help="run a campaign from a suite file")
    pb.add_argument("--suite", required=True)
    pb.add_argument("--seeds", type=int, default=10)
    pb.add_argument("--budget-mult", type=float, default=100.0)
    pb.add_argument("--time-cap", type=float, default=600.0)
    pb.add_argument("--out", required=True)
    pb.add_argument("--seed", type=int, default=0, help="master seed")
    pb.set_defaults(func=_cmd_bench)

    pp = sub.add_parser("profile", help="compute profiles from a result store")
    pp.add_argument("--in", dest="in_dir", required=True)
    pp.add_argument("--tau", type=float, default=1e-1)
    pp.add_argument("--kind", choices=("data", "perf"), default="data")
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_profile)

    pk = sub.add_parser("sketch-check", help="alignment pass-rate diagnostics")
    pk.add_argument("--kind", choices=("gaussian", "orthonormal"), required=True)
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--p", type=int, required=True)
    pk.add_argument("--alpha", type=float, required=True)
    pk.add_argument("--trials", type=int, default=1000)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--p-max", type=float, default=None)
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=_cmd_sketch_check)

    pl = sub.add_parser("problems", help="inspect the problem catalog")
    pl.add_argument("action", choices=("list",))
    pl.set_defaults(func=_cmd_problems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # machine-readable failure reporting
        print(
            json.dumps({"error": type(err).__name__, "detail": str(err)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
