"""Random-subspace model-based derivative-free optimization toolkit.

The names below are the public API listed in the README; the building blocks
(interpolation, trust-region subproblems, sketches, numerics) stay reachable
through their submodules.
"""

from .bench import (
    ProfileCurve,
    SolverSpec,
    data_profile,
    evals_to_accuracy,
    performance_profile,
    run_campaign,
)
from .problems import CriticalityReport, Problem, make_problem, true_criticality
from .records import TERMINATIONS, RunRecord
from .solvers import IterationLog, SolverConfig, run_rsdfo, run_rsdfo2, run_rsdfoq

__version__ = "0.1.0"

__all__ = [
    "CriticalityReport",
    "IterationLog",
    "Problem",
    "ProfileCurve",
    "RunRecord",
    "SolverConfig",
    "SolverSpec",
    "TERMINATIONS",
    "data_profile",
    "evals_to_accuracy",
    "make_problem",
    "performance_profile",
    "run_campaign",
    "run_rsdfo",
    "run_rsdfo2",
    "run_rsdfoq",
    "true_criticality",
]
