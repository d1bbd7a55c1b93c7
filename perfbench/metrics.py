"""Metric arithmetic and output checks of the benchmark, kept free of timing.

Everything here is a pure function of solver records, iteration timestamps or
spans, so it can be unit-tested on hand-built inputs (see ``tests/``).
"""

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from subdfo.bench import accuracy_table
from subdfo.records import TERMINATIONS, RunRecord

# Candidate tail percentiles, highest first. The reported tail is the highest
# one that still has at least TAIL_MIN_BEYOND samples above it; a short list
# keeps the choice fixed while the sample count varies a little between seeds.
# The list stops at p95: on a shared 2-core machine the slowest 1% of ~3 ms
# iterations are interruptions, not a code path, and their p99 moved 20%
# between two identical passes in one process while p95 moved 7%.
TAIL_PERCENTILES = (95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

# Slack below the catalog minimum that is still taken as roundoff.
F_MIN_SLACK = 1e-10


def percentile(values: Sequence[float], pct: float) -> float:
    """numpy's default (linear interpolation) percentile, as a float."""
    return float(np.percentile(values, pct))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above their ``pct`` percentile."""
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def iteration_times(stamps: Sequence[float]) -> List[float]:
    """Per-iteration wall times from one solve's ``log_cb`` timestamps."""
    return [b - a for a, b in zip(stamps[:-1], stamps[1:])]


def quality(records: Sequence[RunRecord], budgets: Dict[Tuple[str, int], int]) -> dict:
    """Tau-accuracy metrics (Moré & Wild) of one pass's records.

    ``budgets`` maps (problem, n) to the evaluation budget. An instance not
    solved to tau = 1e-1 counts at its budget in ``evals_gu_tau1e-1``, so the
    mean stays continuous when the solved fraction is coarse.
    """
    out = {}
    for tau, label in ((1e-1, "tau1e-1"), (1e-3, "tau1e-3")):
        rows = accuracy_table(records, tau)
        out[f"solved_{label}"] = sum(math.isfinite(r["evals"]) for r in rows) / len(rows)
        if tau == 1e-1:
            gu = [
                (r["evals"] if math.isfinite(r["evals"]) else budgets[(r["problem"], r["n"])])
                / (r["n"] + 1)
                for r in rows
            ]
            out["evals_gu_tau1e-1"] = sum(gu) / len(gu)
    return out


def check_record(record: RunRecord, budget: int, f_min: float) -> List[str]:
    """Violations of the run-record contract; an empty list means valid."""
    problems = []
    if record.termination not in TERMINATIONS:
        problems.append(f"termination {record.termination!r} not in {TERMINATIONS}")
    if record.total_evals > budget:
        problems.append(f"total_evals {record.total_evals} exceeds budget {budget}")
    idx = [e for e, _ in record.trace]
    if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
        problems.append("trace indices do not strictly increase")
    vals = [f for _, f in record.trace]
    if any(b > a for a, b in zip(vals[:-1], vals[1:])):
        problems.append("best values increase")
    if vals and vals[-1] < f_min - F_MIN_SLACK * max(1.0, abs(f_min)):
        problems.append(f"best_f {vals[-1]!r} below catalog f_min {f_min!r}")
    return problems


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    A span is ``(name, start, end, parent, ...)`` with ``parent`` the index of
    the enclosing span, or -1 for a root. Overlapping children are merged so
    no instant is subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
