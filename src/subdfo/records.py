"""Run records: per-evaluation best-objective traces and termination info."""

from dataclasses import dataclass, field
from typing import List, Tuple

from .exceptions import ContractViolationError

TERMINATIONS = ("budget", "time", "rho_floor", "critical", "error")


@dataclass
class RunRecord:
    """Outcome of a single solver run on one problem instance.

    ``trace`` holds (evaluation index, best objective so far) pairs recorded
    whenever the best value improved; indices are strictly increasing and the
    best values nonincreasing. ``error`` says why an ``"error"`` run ended:
    the solver's own reason, or ``"Type: message"`` of an exception that
    ``run_campaign`` caught; it is empty for every other run and is stored
    only when it is not.
    """

    problem: str
    n: int
    solver: str
    seed: int
    trace: List[Tuple[int, float]] = field(default_factory=list)
    wall_time: float = 0.0
    termination: str = "budget"
    total_evals: int = 0
    error: str = ""

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ContractViolationError(
                f"unknown termination {self.termination!r}; known: {TERMINATIONS}"
            )

    @property
    def best_f(self) -> float:
        if not self.trace:
            raise ContractViolationError("empty trace")
        return self.trace[-1][1]

    @property
    def evals(self) -> int:
        return self.trace[-1][0] if self.trace else 0

    def to_dict(self, include_wall_time: bool = True) -> dict:
        d = {
            "problem": self.problem,
            "n": self.n,
            "solver": self.solver,
            "seed": self.seed,
            "trace": [[int(e), float(f)] for e, f in self.trace],
            "termination": self.termination,
            "total_evals": self.total_evals,
        }
        if self.error:
            d["error"] = self.error
        if include_wall_time:
            d["wall_time"] = self.wall_time
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(
            d["problem"],
            int(d["n"]),
            d["solver"],
            int(d["seed"]),
            [(int(e), float(f)) for e, f in d["trace"]],
            float(d.get("wall_time", 0.0)),
            d["termination"],
            int(d.get("total_evals", 0)),
            d.get("error", ""),
        )
