"""The three random-subspace trust-region drivers and their point management.

``run_rsdfo`` is the prototype first-order method (fresh linear stencil in a
random subspace each iteration), ``run_rsdfo2`` the second-order variant with
fully quadratic subspace models, and ``run_rsdfoq`` the practical solver
maintaining primary/secondary interpolation sets with minimum-Frobenius-norm
models, a trust-region lower bound rho and geometry-aware point removal.
"""

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .exceptions import (
    ContractViolationError,
    DegenerateGeometryError,
    EmptyBasisError,
    ModelConstructionError,
)
from .interp import (
    InterpolationSet,
    SubspaceModel,
    build_full_quadratic_model,
    build_mfn_model,
    full_quadratic_stencil,
    lagrange_from_coords,
    model_criticality,
    n_quadratic_coeffs,
)
from .numerics import Basis, orthonormal_basis
from .records import RunRecord
from .seeding import derive_rng
from .sketch import SKETCH_KINDS, make_sketch
from .trs import decrease_ratio, solve_trs

logger = logging.getLogger(__name__)

# Hard numerical floor on trust-region radii, used only when the configured
# floor is disabled (rho_end = 0); prevents spinning on denormal radii.
RADIUS_EPS = 1e-300

# Distances, in units of delta_next, at which add_orthogonal_points tries a
# direction until the objective is finite there.
PROBE_SCALES = (1.0, -1.0, 0.5, -0.5, 0.25, -0.25)


@dataclass
class SolverConfig:
    """Shared configuration of the three solvers.

    ``q`` (maximum interpolation points) and ``delta0`` default to 2p+1 and
    0.1 * max(||x0||_inf, 1) respectively when left as None. ``rho_end`` is
    the radius floor used for termination (rho for the practical solver,
    delta for the prototype ones); 0 disables it.
    """

    p: int
    q: Optional[int] = None
    delta0: Optional[float] = None
    delta_max: float = 1e10
    gamma_dec: float = 0.5
    gamma_inc: float = 2.0
    gamma_inc_bar: float = 4.0
    gamma_s: float = 0.5
    alpha1: float = 0.1
    alpha2: float = 0.5
    eta: float = 0.1
    eta1: float = 0.1
    eta2: float = 0.7
    mu: float = 1.0
    rho_patience: int = 5
    rho_end: float = 1e-8
    max_evals: int = 1000
    max_time: Optional[float] = None
    seed: int = 0
    sketch_kind: str = "gaussian"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.p < 1:
            raise ContractViolationError("p must be at least 1")
        if not (0.0 < self.gamma_dec < 1.0 < self.gamma_inc <= self.gamma_inc_bar):
            raise ContractViolationError("need 0 < gamma_dec < 1 < gamma_inc <= gamma_inc_bar")
        if not (0.0 < self.gamma_s < 1.0):
            raise ContractViolationError("need 0 < gamma_s < 1")
        if not (0.0 < self.alpha1 <= self.alpha2 < 1.0):
            raise ContractViolationError("need 0 < alpha1 <= alpha2 < 1")
        if not (0.0 < self.eta1 <= self.eta2 < 1.0):
            raise ContractViolationError("need 0 < eta1 <= eta2 < 1")
        if not (0.0 < self.eta < 1.0):
            raise ContractViolationError("need eta in (0, 1)")
        if self.mu <= 0.0:
            raise ContractViolationError("mu must be positive")
        if self.rho_patience < 1:
            raise ContractViolationError("rho_patience must be at least 1")
        if self.rho_end < 0.0:
            raise ContractViolationError("rho_end must be nonnegative")
        if self.max_evals < 1:
            raise ContractViolationError("max_evals must be at least 1")
        if self.delta_max <= 0.0:
            raise ContractViolationError("delta_max must be positive")
        if self.delta0 is not None and not (0.0 < self.delta0 <= self.delta_max):
            raise ContractViolationError("need 0 < delta0 <= delta_max")
        q = self.resolved_q
        if not (self.p + 2 <= q <= n_quadratic_coeffs(self.p)):
            raise ContractViolationError(
                f"need p+2 <= q <= (p+1)(p+2)/2, got q={q} for p={self.p}"
            )
        if self.sketch_kind not in SKETCH_KINDS:
            raise ContractViolationError(f"unknown sketch kind {self.sketch_kind!r}")

    @property
    def resolved_q(self) -> int:
        return min(2 * self.p + 1, n_quadratic_coeffs(self.p)) if self.q is None else self.q

    def resolved_delta0(self, x0) -> float:
        if self.delta0 is not None:
            return self.delta0
        return 0.1 * max(float(np.max(np.abs(x0))), 1.0)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ContractViolationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class IterationLog:
    """One line of the per-iteration trace."""

    k: int
    classification: str
    R: Optional[float]
    delta: float
    rho: Optional[float]
    sigma_m: float
    evals_used: int


class _Stop(Exception):
    """Ends a run with ``termination``; the message says why it was an error."""

    def __init__(self, termination: str, message: str = ""):
        super().__init__(message)
        self.termination = termination


class _TracedObjective:
    """One solver run: the counted objective and the way the run ends.

    Construction validates the config against the problem. Calls count
    evaluations, enforce the budget and the time cap, and record the
    best-value trace; non-finite values are mapped to +inf, except a
    non-finite first value, which ends the run as "error". Used as a context
    manager around the whole run, it turns every ``_Stop`` and every
    model/basis failure into the run's termination and builds ``record``;
    an ``"error"`` run keeps its reason in ``record.error``.
    """

    def __init__(self, problem, config: SolverConfig, solver: str):
        config.validate()
        if config.p > problem.dim:
            raise ContractViolationError(f"p={config.p} exceeds problem dimension n={problem.dim}")
        self._fn = problem.objective
        self.problem = problem
        self.config = config
        self.solver = solver
        self.count = 0
        self.best = math.inf
        self.trace = []
        self.record: Optional[RunRecord] = None
        self.t_start = time.perf_counter()

    def check_time(self):
        max_time = self.config.max_time
        if max_time is not None and time.perf_counter() - self.t_start > max_time:
            raise _Stop("time")

    def __call__(self, x) -> float:
        if self.count >= self.config.max_evals:
            raise _Stop("budget")
        self.check_time()
        self.count += 1
        val = float(self._fn(x))
        if not math.isfinite(val):
            if self.count == 1:
                raise _Stop("error", f"objective is {val} at the starting point")
            val = math.inf
        if val < self.best:
            self.best = val
            self.trace.append((self.count, val))
        return val

    def __enter__(self) -> "_TracedObjective":
        return self

    def __exit__(self, exc_type, err, tb) -> bool:
        if isinstance(err, (EmptyBasisError, ModelConstructionError)):
            err = _Stop("error", str(err))
        if not isinstance(err, _Stop):
            return False
        if err.termination == "error":
            logger.warning("run aborted: %s", err)
        self.record = RunRecord(
            problem=self.problem.name,
            n=self.problem.dim,
            solver=self.solver,
            seed=self.config.seed,
            trace=self.trace,
            wall_time=time.perf_counter() - self.t_start,
            termination=err.termination,
            total_evals=self.count,
            error=str(err) if err.termination == "error" else "",
        )
        return True


def pdrop_heuristic(r_k: Optional[float], p: int, full_space: bool) -> int:
    """Number of primary points to demote: ceil(p/10) after bad steps, else 1.

    Clamped to [2, p] in the subspace regime and [1, p] in the full-space
    regime. A missing ratio counts as a bad step.
    """
    if p < 1:
        raise ContractViolationError("p must be at least 1")
    pd = math.ceil(p / 10) if (r_k is None or r_k < 0) else 1
    lo = 1 if full_space else 2
    return min(max(pd, lo), p)


def _demotion_pick(scores: np.ndarray, dists: np.ndarray, base_index: int) -> int:
    """Index of the highest score other than the base's; ties to the farthest, then the lowest.

    Scores within 1e-12 max(1, |max|) of the maximum tie, and so do
    distances within 1e-12 max(1, |max|) of the largest tied distance.
    """
    masked = scores.copy()
    masked[base_index] = -np.inf
    smax = float(masked.max())
    tied = masked >= smax - 1e-12 * max(1.0, abs(smax))
    dmax = float(dists[tied].max())
    return int((tied & (dists >= dmax - 1e-12 * max(1.0, abs(dmax)))).argmax())


def remove_single_point(
    iset: InterpolationSet,
    basis: Basis,
    tentative_step,
    delta: float,
) -> np.ndarray:
    """Demote the primary point scoring highest on the geometry criterion.

    Score: |Lagrange value at base + step| times max(dist^4 / delta^4, 1),
    with distances measured from the base point, which is never demoted.
    ``tentative_step`` is a full-space step, or None for the zero step.
    Points and distances are taken in the basis's coordinates
    (``InterpolationSet.primary_coords``): the primary points lie in its
    span. The linear Lagrange basis exists only for ``basis.rank + 1``
    affinely independent points; otherwise the score is the distance factor
    alone. Ties go to the farthest point, then the lowest index. Returns the
    demoted point.
    """
    if len(iset.primary) < 2:
        raise ContractViolationError("need at least two primary points")
    coords = iset.primary_coords(basis)
    dists = np.sqrt(np.einsum("ij,ij->i", coords, coords))
    scores = dists**4 / delta**4
    if len(iset.primary) == basis.rank + 1:
        try:
            lag = lagrange_from_coords(coords)
            if tentative_step is None:
                s_hat = np.zeros(basis.rank)
            else:
                s_hat = basis.project_coords(np.asarray(tentative_step, float))
            lvals = np.abs(lag.evaluate(s_hat))
            scores = lvals * np.maximum(scores, 1.0)
        except DegenerateGeometryError:
            logger.debug("degenerate Lagrange set; falling back to distance-only removal")

    pick = _demotion_pick(scores, dists, iset.base_index)
    removed = iset.primary[pick].copy()
    iset.move_to_secondary(pick)
    return removed


def remove_multiple_points(
    iset: InterpolationSet,
    basis: Basis,
    count: int,
    delta: float,
) -> list:
    """Demote ``count`` primary points, re-scoring after each removal.

    Uses the single-point criterion with a zero tentative step, evaluated at
    the current base point.
    """
    if count >= len(iset.primary):
        raise ContractViolationError("cannot remove that many primary points")
    removed = []
    for _ in range(count):
        removed.append(remove_single_point(iset, basis, None, delta))
    return removed


def add_orthogonal_points(
    iset: InterpolationSet,
    delta_next: float,
    count: int,
    rng: np.random.Generator,
    objective: Callable,
):
    """Add ``count`` fresh primary points at distance ``delta_next`` from the base.

    Directions are mutually orthonormal and orthogonal to the span of the
    existing primary offsets from the base point. That span is factored
    afresh here, once, and the set holds the factor
    (``InterpolationSet.hold_basis``); the directions are drawn against it
    (``InterpolationSet.draw_orthogonal``, which also extends a frame that
    does not span R^n). Each new point joins the set as the point the
    objective was evaluated at, with its value, and its direction joins
    the factor as a known column, so the next read needs no factorization.
    When a value comes back non-finite, the same direction is retried on the
    other side of the base and then at half and a quarter of the distance
    (every retry is an evaluation); a direction with no finite value is not
    added.
    """
    if count < 0:
        raise ContractViolationError("count must be nonnegative")
    if count == 0:
        return
    n = iset.base.shape[0]
    dirs = iset.frame_directions()
    span = iset.hold_basis(orthonormal_basis(dirs) if len(dirs) else None, dirs)
    if span.shape[1] + count > n:
        raise ContractViolationError(
            "subspace span already full-dimensional; cannot add orthogonal directions"
        )

    directions, coords = iset.draw_orthogonal(rng.standard_normal((count, n)).T)

    base = iset.base
    added, points, lengths, values = [], [], [], []
    for j in range(count):
        for scale in PROBE_SCALES:
            length = scale * delta_next
            point = base + length * directions[:, j]
            val = objective(point)
            if math.isfinite(val):
                added.append(j)
                points.append(point)
                lengths.append(length)
                values.append(val)
                break
    iset.add_orthogonal(points, lengths, values, coords[:, added])


def _run_prototype(
    problem,
    config: SolverConfig,
    order: str,
    solver_name: str,
    log_cb: Optional[Callable] = None,
    iterate_hook: Optional[Callable] = None,
) -> RunRecord:
    """Common driver for the two theoretical algorithms (linear vs quadratic models)."""
    run = _TracedObjective(problem, config, solver_name)
    n = problem.dim
    p = config.p
    if config.sketch_kind == "identity" and p != n:
        raise ContractViolationError("identity sketch requires p = n")

    with run:
        x = np.asarray(problem.x0, dtype=float).copy()
        fx = run(x)
        delta = config.resolved_delta0(x)
        model_critical = False
        floor = config.rho_end if config.rho_end > 0.0 else RADIUS_EPS
        # One stream per run. Every iteration draws exactly one sketch from
        # it, so iteration k's map is a function of (seed, k).
        sketch_rng = derive_rng(config.seed, "sketch")
        k = 0
        while True:
            if delta < floor:
                raise _Stop("critical" if model_critical else "rho_floor")
            if iterate_hook is not None:
                iterate_hook(k, x)
            run.check_time()

            sketch = make_sketch(config.sketch_kind, n, p, sketch_rng)
            if order == "first":
                coords = np.vstack([np.zeros(p), delta * np.eye(p)])
            else:
                coords = full_quadratic_stencil(p, delta)
            # One product forms every stencil point, x + coords[1:] @ M^T
            # (x added in place, the same bits). The rows are evaluated in
            # order, one counted evaluation each, so the budget can still
            # end the run inside a stencil.
            points = coords[1:] @ sketch.map.T
            points += x
            vals = np.empty(len(coords))
            vals[0] = fx  # stencil origin is the current iterate
            for i, point in enumerate(points, 1):
                vals[i] = run(point)
            if not np.all(np.isfinite(vals)):
                # The stencil left the region where f is finite: no model can
                # be built, so count the iteration as unsuccessful and shrink.
                delta_used = delta
                delta = config.gamma_dec * delta
                if log_cb is not None:
                    log_cb(
                        IterationLog(k, "unsuccessful", None, delta_used, None, math.nan, run.count)
                    )
                k += 1
                continue
            if order == "first":
                grad = (vals[1:] - fx) / delta
                model = SubspaceModel(x, sketch.map, fx, grad, np.zeros((p, p)))
                mode = "first_order"
            else:
                model = build_full_quadratic_model(coords, vals, base=x, map=sketch.map)
                mode = "second_order"

            sigma_m, _tau_m = model_criticality(model)
            guard = float(np.linalg.norm(model.gradient)) if order == "first" else sigma_m
            result = solve_trs(model, delta, mode)
            delta_used = delta

            ratio = None
            success = False
            trial = x
            f_trial = fx
            if result.predicted_decrease > 0.0:
                model_critical = False
                trial = x + sketch.map @ result.step
                f_trial = run(trial)
                ratio = decrease_ratio(fx, f_trial, result.predicted_decrease)
                success = ratio >= config.eta and guard >= config.mu * delta
            else:
                # Model-critical point: no ratio is defined; the acceptance
                # guard necessarily fails, so skip the trial evaluation.
                model_critical = True

            if success:
                x = trial
                fx = f_trial
                delta = min(config.gamma_inc * delta, config.delta_max)
                cls = "successful"
            else:
                delta = config.gamma_dec * delta
                cls = "unsuccessful"

            if log_cb is not None:
                log_cb(IterationLog(k, cls, ratio, delta_used, None, sigma_m, run.count))
            k += 1
    return run.record


def run_rsdfo(problem, config: SolverConfig, log_cb=None, iterate_hook=None) -> RunRecord:
    """Prototype first-order solver: fully linear models in random subspaces."""
    return _run_prototype(problem, config, "first", "rsdfo", log_cb, iterate_hook)


def run_rsdfo2(problem, config: SolverConfig, log_cb=None, iterate_hook=None) -> RunRecord:
    """Second-order solver: fully quadratic subspace models and curvature steps."""
    return _run_prototype(problem, config, "second", "rsdfo2", log_cb, iterate_hook)


def run_rsdfoq(problem, config: SolverConfig, log_cb=None, iterate_hook=None) -> RunRecord:
    """Practical subspace solver with MFN quadratic models and point reuse."""
    run = _TracedObjective(problem, config, "rsdfoq")
    n = problem.dim
    p = config.p
    q = config.resolved_q

    with run:
        x0 = np.asarray(problem.x0, dtype=float).copy()
        f0 = run(x0)
        delta = rho = config.resolved_delta0(x0)
        # (rho_j, min(||s_j||, delta_j)) of the last rho_patience + 1 iterations
        rho_history = deque(maxlen=config.rho_patience + 1)
        iset = InterpolationSet(x0, f0, p, q)
        prev_model = None

        # Initial primary set: p random orthonormal directions at radius delta0.
        rng0 = derive_rng(config.seed, "init")
        add_orthogonal_points(iset, delta, p, rng0, run)
        iset.recenter_to_best()
        # Directions added later come from one stream, drawn in iteration order.
        add_rng = derive_rng(config.seed, "add")

        k = 0
        while True:
            run.check_time()
            if rho < RADIUS_EPS:
                raise _Stop("rho_floor")
            base = iset.base
            if iterate_hook is not None:
                iterate_hook(k, iset.base)  # a copy of its own, which the hook may keep

            # The factor add_orthogonal_points held, with the directions it
            # added; refactored when the primary set changed since. The read
            # runs the Basis check on it, which also covers the appended
            # columns. orthonormal_basis is called by name here and in
            # add_orthogonal_points: perfbench/tracing.py times it there.
            basis = iset.held_basis()
            if basis is None:
                dirs = iset.frame_directions()
                iset.hold_basis(orthonormal_basis(dirs), dirs)
                basis = iset.held_basis()  # passes: the check orthonormal_basis passed
            try:
                model = build_mfn_model(
                    iset,
                    basis,
                    prev_model,
                    dedup_tol=1e-10 * delta,
                    max_residual=delta,
                )
            except ModelConstructionError as err:
                # Secondary points can make a near-degenerate system; retry
                # on the primary set alone before giving up.
                logger.debug("MFN fallback to primary points: %s", err)
                model = build_mfn_model(
                    iset, basis, prev_model, dedup_tol=1e-10 * delta, use_secondary=False
                )
            prev_model = model
            sigma_m, _ = model_criticality(model)
            result = solve_trs(model, delta, "second_order")
            snorm = math.sqrt(result.step @ result.step)

            # rho may be reduced only after rho_patience + 1 iterations at
            # this rho whose steps all stayed within it.
            rho_history.append((rho, min(snorm, delta)))
            can_reduce = (
                len(rho_history) == rho_history.maxlen
                and rho_history[0][0] == rho
                and all(ms <= r for r, ms in rho_history)
            )

            ratio = None
            delta_next = delta
            if snorm < config.gamma_s * rho:
                ratio = -1.0
                cls = "safety"
                delta_next = max(config.gamma_dec * delta, rho)
                if (not can_reduce) or delta > rho:
                    remove_single_point(iset, basis, None, delta)
            else:
                step = basis.lift(result.step)
                trial = base + step
                f_trial = run(trial)
                ratio = decrease_ratio(iset.base_value, f_trial, result.predicted_decrease)
                if ratio < config.eta1:
                    delta_next = max(min(config.gamma_dec * delta, snorm), rho)
                elif ratio <= config.eta2:
                    delta_next = max(config.gamma_dec * delta, snorm, rho)
                else:
                    delta_next = min(
                        max(config.gamma_inc * delta, config.gamma_inc_bar * snorm),
                        config.delta_max,
                    )
                accepted = ratio > 0.0
                cls = "successful" if accepted else "unsuccessful"
                if p == n:
                    # Full space: one point, scored at the tentative step,
                    # is demoted before the trial point joins.
                    remove_single_point(iset, basis, step, delta)
                if math.isfinite(f_trial) and not iset.contains_primary(trial, result.step):
                    iset.add_primary(trial, f_trial, coords=result.step)
                    if accepted:  # the trial lies below the base, the minimum
                        iset.recenter_to_best()
                # Non-finite probes may have left fewer points than the
                # heuristic asks to demote; the base always stays.
                n_drop = pdrop_heuristic(ratio, p, full_space=(p == n))
                remove_multiple_points(iset, basis, min(n_drop, len(iset.primary) - 1), delta)

            rho_next = rho
            # A ratio of exactly 0 (no change in f) counts as a failure, so a
            # flat objective ends at the radius floor instead of the budget.
            if ratio is not None and ratio <= 0.0 and delta <= rho and can_reduce:
                rho_next = config.alpha1 * rho
                delta_next = config.alpha2 * rho
                cls = "rho_reduced"

            n_add = p + 1 - len(iset.primary)
            if n_add > 0:
                add_orthogonal_points(iset, delta_next, n_add, add_rng, run)
            iset.recenter_to_best()

            if log_cb is not None:
                log_cb(IterationLog(k, cls, ratio, delta, rho, sigma_m, run.count))
            delta = delta_next
            rho = rho_next
            k += 1
            if config.rho_end > 0.0 and rho <= config.rho_end:
                raise _Stop("rho_floor")
    return run.record


SOLVERS = {
    "rsdfo": run_rsdfo,
    "rsdfo2": run_rsdfo2,
    "rsdfoq": run_rsdfoq,
}
