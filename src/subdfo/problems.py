"""Scalable synthetic test problems with known minima and derivative oracles.

Six families covering convex, ill-conditioned, low-effective-rank and saddle
geometry, each instantiable at any dimension n >= 2. Objectives count their
own evaluations (thread-safely) so harness accounting can be audited.
"""

import re
import threading
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

import numpy as np

from .exceptions import CatalogError, ContractViolationError, UnsupportedDiagnosticError
from .numerics import min_eigenpair
from .seeding import derive_rng


@dataclass
class Problem:
    """A test problem with objective, optional derivative oracles and metadata."""

    name: str
    dim: int
    raw_objective: Callable
    gradient_oracle: Optional[Callable]
    hessian_oracle: Optional[Callable]
    x0: np.ndarray
    f_min: float
    _evals: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def objective(self, x) -> float:
        """Objective value at x; increments the evaluation counter by one."""
        with self._lock:
            self._evals += 1
        return float(self.raw_objective(np.asarray(x, dtype=float)))

    @property
    def evals(self) -> int:
        return self._evals


@dataclass(frozen=True)
class CriticalityReport:
    """True second-order criticality at a point: sigma = max(grad_norm, tau)."""

    sigma: float
    grad_norm: float
    tau: float


def _sphere(n: int) -> Problem:
    return Problem(
        "sphere",
        n,
        lambda x: float(x @ x),
        lambda x: 2.0 * x,
        lambda x: 2.0 * np.eye(n),
        np.ones(n),
        0.0,
    )


def _chained_rosenbrock(n: int) -> Problem:
    def f(x):
        return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())

    def grad(x):
        g = np.zeros_like(x)
        g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    def hess(x):
        h = np.zeros((n, n))
        for i in range(n - 1):
            h[i, i] += -400.0 * (x[i + 1] - x[i] ** 2) + 800.0 * x[i] ** 2 + 2.0
            h[i + 1, i + 1] += 200.0
            h[i, i + 1] += -400.0 * x[i]
            h[i + 1, i] += -400.0 * x[i]
        return h

    x0 = np.ones(n)
    x0[0::2] = -1.2
    return Problem("chained_rosenbrock", n, f, grad, hess, x0, 0.0)


def _low_rank_quadratic(n: int, r: int) -> Problem:
    if not (1 <= r <= n):
        raise CatalogError(f"low_rank_quadratic rank must satisfy 1 <= r <= n, got {r}")
    # Fixed seeded frame so the problem is identical across processes.
    rng = derive_rng(0xC0FFEE, "low_rank_quadratic", n, r)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    lam = np.logspace(0.0, 2.0, r)
    half_lam = 0.5 * lam

    # Held as the n x r factor: value and gradient cost O(nr). The dense
    # n x n Hessian is formed only when asked for, once.
    def f(x):
        z = u.T @ x
        return float(half_lam @ (z * z))

    @cache
    def dense_hessian():
        a = u @ (lam[:, None] * u.T)
        return 0.5 * (a + a.T)

    return Problem(
        f"low_rank_quadratic({r})",
        n,
        f,
        lambda x: u @ (lam * (u.T @ x)),
        lambda x: dense_hessian(),
        np.ones(n),
        0.0,
    )


def _saddle_quartic(n: int) -> Problem:
    # f = x1^2 - x2^2 + x2^4 + sum_{i>=3} xi^2; strict saddle at the origin,
    # global minimum -1/4 at x2 = +-1/sqrt(2). Default start away from the
    # saddle; diagnostics can restart it there explicitly.
    def f(x):
        return float(x[0] ** 2 - x[1] ** 2 + x[1] ** 4 + (x[2:] ** 2).sum())

    def grad(x):
        g = 2.0 * x
        g[1] = -2.0 * x[1] + 4.0 * x[1] ** 3
        return g

    def hess(x):
        h = 2.0 * np.eye(n)
        h[1, 1] = -2.0 + 12.0 * x[1] ** 2
        return h

    return Problem("saddle_quartic", n, f, grad, hess, 0.5 * np.ones(n), -0.25)


def _sum_of_powers(n: int) -> Problem:
    # Even powers cycling through {2, 4, 6} per coordinate: smooth, convex,
    # increasingly flat near the optimum in the higher-power coordinates.
    powers = 2.0 + 2.0 * (np.arange(n) % 3)

    def f(x):
        return float((x**powers).sum())

    def grad(x):
        return powers * x ** (powers - 1)

    def hess(x):
        return np.diag(powers * (powers - 1) * x ** (powers - 2))

    return Problem("sum_of_powers", n, f, grad, hess, np.ones(n), 0.0)


def _trigonometric(n: int) -> Problem:
    # Classic trigonometric sum-of-squares: residuals
    # r_i = n - sum_j cos x_j + i (1 - cos x_i) - sin x_i, f = sum r_i^2.
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(x):
        c = np.cos(x)
        return n - c.sum() + idx * (1.0 - c) - np.sin(x)

    def f(x):
        r = residuals(x)
        return float(r @ r)

    def jac(x):
        j = np.tile(np.sin(x), (n, 1))
        j[np.diag_indices(n)] += idx * np.sin(x) - np.cos(x)
        return j

    def grad(x):
        return 2.0 * jac(x).T @ residuals(x)

    def hess(x):
        r = residuals(x)
        j = jac(x)
        h = 2.0 * j.T @ j
        # Each residual has a diagonal second-derivative matrix.
        diag = np.cos(x) * np.sum(r) + r * (idx * np.cos(x) + np.sin(x))
        return h + 2.0 * np.diag(diag)

    return Problem("trigonometric", n, f, grad, hess, np.full(n, 1.0 / n), 0.0)


_CATALOG = {
    "sphere": ("f = ||x||^2, x0 = ones, f_min = 0", _sphere),
    "chained_rosenbrock": (
        "f = sum 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2, f_min = 0 at ones",
        _chained_rosenbrock,
    ),
    "low_rank_quadratic": (
        "f = 0.5 x^T U L U^T x, seeded n x r frame U, eigenvalues log-spaced in [1, 100], f_min = 0",
        None,  # handled specially for the rank parameter
    ),
    "saddle_quartic": (
        "f = x1^2 - x2^2 + x2^4 + sum_{i>=3} xi^2, f_min = -1/4 at x2 = +-1/sqrt(2)",
        _saddle_quartic,
    ),
    "sum_of_powers": (
        "f = sum x_i^{p_i}, even powers p_i cycling 2,4,6, f_min = 0 at origin",
        _sum_of_powers,
    ),
    "trigonometric": (
        "sum-of-squares trigonometric residuals, f_min = 0, x0 = (1/n, ..., 1/n)",
        _trigonometric,
    ),
}

_LOW_RANK_RE = re.compile(r"^low_rank_quadratic(?:\((\d+)\))?$")

DEFAULT_LOW_RANK = 5


def catalog() -> dict:
    """Name -> one-line description of each problem family."""
    return {name: desc for name, (desc, _) in _CATALOG.items()}


def make_problem(name: str, n: int) -> Problem:
    """Instantiate a catalog problem at dimension n.

    ``low_rank_quadratic`` accepts an optional rank suffix, e.g.
    ``low_rank_quadratic(3)``; the default rank is min(5, n).
    """
    if n < 2:
        raise ContractViolationError("problems require n >= 2")
    m = _LOW_RANK_RE.match(name)
    if m:
        r = int(m.group(1)) if m.group(1) else min(DEFAULT_LOW_RANK, n)
        return _low_rank_quadratic(n, r)
    if name not in _CATALOG or _CATALOG[name][1] is None:
        raise CatalogError(f"unknown problem {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[name][1](n)


def true_criticality(problem: Problem, x) -> CriticalityReport:
    """Second-order criticality from the problem's derivative oracles."""
    if problem.gradient_oracle is None or problem.hessian_oracle is None:
        raise UnsupportedDiagnosticError(
            f"problem {problem.name!r} lacks derivative oracles"
        )
    x = np.asarray(x, dtype=float)
    gnorm = float(np.linalg.norm(problem.gradient_oracle(x)))
    lam, _ = min_eigenpair(problem.hessian_oracle(x))
    tau = max(-lam, 0.0)
    return CriticalityReport(max(gnorm, tau), gnorm, tau)
