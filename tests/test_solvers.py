import logging
import math
import os
import signal
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import subdfo.solvers as solvers_mod
from subdfo.exceptions import ContractViolationError, ModelConstructionError
from subdfo.interp import InterpolationSet, full_quadratic_stencil, n_quadratic_coeffs
from subdfo.numerics import BASIS_ORTHO_TOL, Basis, orthonormal_basis
from subdfo.problems import Problem, make_problem
from subdfo.records import TERMINATIONS, RunRecord
from subdfo.seeding import derive_rng
from subdfo.sketch import make_sketch
from subdfo.solvers import (
    SOLVERS,
    SolverConfig,
    add_orthogonal_points,
    pdrop_heuristic,
    remove_multiple_points,
    remove_single_point,
    run_rsdfo,
    run_rsdfo2,
    run_rsdfoq,
)


def convex_quadratic(n, cond=10.0, seed=0):
    a = np.diag(np.logspace(0.0, np.log10(cond), n))

    def f(x):
        return 0.5 * float(x @ (a @ x))

    return Problem("convex_quadratic", n, f, lambda x: a @ x, lambda x: a, np.ones(n), 0.0)


class TestSolverConfig:
    def test_defaults_resolve(self):
        cfg = SolverConfig(p=4)
        assert cfg.resolved_q == 9
        assert cfg.resolved_delta0(np.array([3.0, -7.0])) == pytest.approx(0.7)
        assert cfg.resolved_delta0(np.array([0.1, 0.0])) == pytest.approx(0.1)

    def test_invalid_rejected(self):
        with pytest.raises(ContractViolationError):
            SolverConfig(p=0)
        with pytest.raises(ContractViolationError):
            SolverConfig(p=3, gamma_dec=1.5)
        with pytest.raises(ContractViolationError):
            SolverConfig(p=3, q=20)  # above (p+1)(p+2)/2 = 10
        with pytest.raises(ContractViolationError):
            SolverConfig(p=3, q=4)  # below p+2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ContractViolationError):
            SolverConfig.from_dict({"p": 2, "bogus": 1})


class TestPdropHeuristic:
    def test_successful_subspace(self):
        assert pdrop_heuristic(0.5, 30, full_space=False) == 2

    def test_unsuccessful_subspace(self):
        assert pdrop_heuristic(-1.0, 30, full_space=False) == 3

    def test_successful_full_space(self):
        assert pdrop_heuristic(0.5, 30, full_space=True) == 1

    def test_none_counts_as_bad(self):
        assert pdrop_heuristic(None, 30, full_space=False) == 3

    def test_small_p_clamps(self):
        assert pdrop_heuristic(-1.0, 1, full_space=False) == 1
        assert pdrop_heuristic(0.9, 5, full_space=False) == 2
        assert pdrop_heuristic(0.9, 5, full_space=True) == 1


def line_set():
    # p = 1, base x = 0 with f value 0, one point y = 2.
    iset = InterpolationSet(np.array([0.0]), 0.0, 1, 3)
    iset.add_primary(np.array([2.0]), 4.0)
    return iset, Basis(np.array([[1.0]]))


class TestRemoveSinglePoint:
    def test_hand_example(self):
        # l_y(s) = s/2 evaluated at step 0.5 gives 0.25; the distance factor
        # is max(2^4 / 1^4, 1) = 16, so theta = 4 and y is removed.
        iset, basis = line_set()
        removed = remove_single_point(iset, basis, np.array([0.5]), 1.0)
        assert removed[0] == 2.0
        assert len(iset.primary) == 1
        assert iset.secondary_values == [4.0]

    def test_lagrange_dominance(self):
        # Equal distances; Lagrange values at the evaluation point are 0.9
        # and 0.1, so the 0.9 point goes.
        iset = InterpolationSet(np.zeros(2), 0.0, 2, 6)
        iset.add_primary(np.array([1.0, 0.0]), 1.0)
        iset.add_primary(np.array([0.0, 1.0]), 2.0)
        basis = Basis(np.eye(2))
        removed = remove_single_point(iset, basis, np.array([0.9, 0.1]), 1.0)
        assert np.allclose(removed, [1.0, 0.0])

    def test_secondary_overflow_drops_oldest(self):
        iset = InterpolationSet(np.array([0.0]), 0.0, 1, 3)  # capacity 1
        iset.add_primary(np.array([1.0]), 1.0)
        iset.add_primary(np.array([2.0]), 4.0)
        iset.move_to_secondary(2)
        basis = Basis(np.array([[1.0]]))
        remove_single_point(iset, basis, np.array([0.0]), 1.0)
        assert len(iset.secondary) == 1
        assert iset.secondary_values == [1.0]  # y=2 (older) was discarded

    def test_degenerate_falls_back_to_distance(self):
        # Three collinear points in 1-D subspace coordinates: no Lagrange
        # basis exists, so the farthest point is removed.
        iset = InterpolationSet(np.array([0.0]), 0.0, 1, 4)
        iset.add_primary(np.array([0.5]), 1.0)
        iset.add_primary(np.array([2.0]), 4.0)
        basis = Basis(np.array([[1.0]]))
        removed = remove_single_point(iset, basis, np.array([0.0]), 1.0)
        assert removed[0] == 2.0

    def test_no_lagrange_basis_without_rank_plus_one_points(self, monkeypatch):
        # Four points in a 2-D subspace: no linear Lagrange basis exists, so
        # it is not built and the farthest point goes on distance alone.
        calls = []
        real = solvers_mod.lagrange_from_coords
        monkeypatch.setattr(
            solvers_mod, "lagrange_from_coords", lambda c: calls.append(c) or real(c)
        )
        iset = InterpolationSet(np.zeros(2), 0.0, 2, 6)
        for pt in ([1.0, 0.0], [0.0, 1.0], [3.0, 0.0]):
            iset.add_primary(np.array(pt), 1.0)
        removed = remove_single_point(iset, Basis(np.eye(2)), np.zeros(2), 1.0)
        assert np.array_equal(removed, [3.0, 0.0])
        assert calls == []


class TestDemotionPick:
    @staticmethod
    def loop_pick(scores, dists, base_index):
        # Reference: the candidate lists and generator max/min it replaced.
        candidates = [t for t in range(len(scores)) if t != base_index]
        smax = max(scores[t] for t in candidates)
        tol_s = 1e-12 * max(1.0, abs(smax))
        tied = [t for t in candidates if scores[t] >= smax - tol_s]
        dmax = max(dists[t] for t in tied)
        tol_d = 1e-12 * max(1.0, abs(dmax))
        return min(t for t in tied if dists[t] >= dmax - tol_d)

    def test_masked_pick_equals_the_loop_with_planted_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            m = int(rng.integers(2, 12))
            scale = 10.0 ** rng.uniform(-3, 3)
            scores = rng.uniform(0.0, 1.0, m) * scale
            dists = rng.uniform(0.0, 2.0, m)
            # Ties: several points share the top score up to the tolerance,
            # some of them also the largest distance, and the base often
            # holds the top score and distance itself.
            top = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
            scores[top] = scale * (1.0 + rng.choice([0.0, 1e-13, -1e-13, 1e-11], len(top)))
            far = top[: int(rng.integers(1, len(top) + 1))]
            dists[far] = 3.0 + rng.choice([0.0, 1e-13, -1e-13], len(far))
            if trial % 4 == 0:
                scores[:] = scale  # every point tied
            for base_index in range(m):
                got = solvers_mod._demotion_pick(scores, dists, base_index)
                assert got == self.loop_pick(scores, dists, base_index), (trial, base_index)
                assert got != base_index


class TestRemoveMultiplePoints:
    def test_count_zero_noop(self):
        iset, basis = line_set()
        assert remove_multiple_points(iset, basis, 0, 1.0) == []
        assert len(iset.primary) == 2

    def test_count_one_matches_single_zero_step(self):
        iset1, basis = line_set()
        removed_multi = remove_multiple_points(iset1, basis, 1, 1.0)
        iset2, _ = line_set()
        removed_single = remove_single_point(iset2, basis, np.array([0.0]), 1.0)
        assert np.allclose(removed_multi[0], removed_single)

    def test_far_point_removed_first(self):
        # Simplex plus one far point at 10 delta: the distance factor wins.
        p = 3
        iset = InterpolationSet(np.zeros(p), 0.0, p, 10)
        for j in range(p):
            iset.add_primary(np.eye(p)[j], 1.0)
        far = np.full(p, 10.0 / math.sqrt(p))
        iset.add_primary(far, 100.0)
        basis = Basis(np.eye(p))
        removed = remove_multiple_points(iset, basis, 2, 1.0)
        assert np.allclose(removed[0], far)

    def test_count_bound(self):
        iset, basis = line_set()
        with pytest.raises(ContractViolationError):
            remove_multiple_points(iset, basis, 2, 1.0)

    def test_zero_step_matches_a_projected_zero_vector(self, monkeypatch):
        # The zero step is given in subspace coordinates, so no full-space
        # vector is projected, and the demotions are the ones a projected
        # full-space zero vector gives.
        def random_set(seed):
            rng = np.random.default_rng(seed)
            n, p = 40, 4
            iset = InterpolationSet(rng.standard_normal(n), 0.0, p, 2 * p + 1)
            dirs = rng.standard_normal((p, n))
            for j in range(p):
                iset.add_primary(iset.base + rng.uniform(0.1, 2.0) * dirs[j], float(j))
            return iset, orthonormal_basis(list(dirs))

        for seed in range(20):
            iset, basis = random_set(seed)
            want = [remove_single_point(iset, basis, np.zeros(basis.dim), 0.5) for _ in range(2)]
            iset, basis = random_set(seed)
            monkeypatch.setattr(Basis, "project_coords", lambda *a: pytest.fail("projected"))
            got = remove_multiple_points(iset, basis, 2, 0.5)
            monkeypatch.undo()
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], seed


class TestAddOrthogonalPoints:
    def test_count_zero(self):
        iset, _ = line_set()
        calls = []
        add_orthogonal_points(iset, 1.0, 0, np.random.default_rng(0), calls.append)
        assert calls == []

    def test_fresh_frame_orthonormal(self):
        n, p = 6, 4
        iset = InterpolationSet(np.zeros(n), 0.0, p, 2 * p + 1)
        evals = []

        def obj(x):
            evals.append(x.copy())
            return float(x @ x)

        add_orthogonal_points(iset, 0.5, p, np.random.default_rng(1), obj)
        assert len(evals) == p
        dirs = np.array(iset.primary[1:]) / 0.5
        gram = dirs @ dirs.T
        assert np.max(np.abs(gram - np.eye(p))) <= 1e-12
        assert iset.primary_values[1:] == pytest.approx([0.25] * p)  # values cached

    def test_orthogonal_to_existing(self):
        n = 3
        iset = InterpolationSet(np.zeros(n), 0.0, 2, 5)
        iset.add_primary(np.array([1.0, 0.0, 0.0]), 1.0)
        add_orthogonal_points(iset, 1.0, 1, np.random.default_rng(2), lambda x: float(x @ x))
        d = iset.primary[-1]
        assert abs(d[0]) <= 1e-12

    def test_full_span_rejected(self):
        n = 2
        iset = InterpolationSet(np.zeros(n), 0.0, 2, 5)
        iset.add_primary(np.array([1.0, 0.0]), 1.0)
        iset.add_primary(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ContractViolationError):
            add_orthogonal_points(iset, 1.0, 1, np.random.default_rng(3), lambda x: 0.0)


# The name each solver builds its model through, as seen from subdfo.solvers.
MODEL_BUILDERS = {
    "rsdfo": "SubspaceModel",
    "rsdfo2": "build_full_quadratic_model",
    "rsdfoq": "build_mfn_model",
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_run_lifecycle_ends_every_run_with_a_record(solver, monkeypatch, caplog):
    run = SOLVERS[solver]
    caplog.set_level(logging.WARNING, logger="subdfo.solvers")

    def warnings():
        return [r.getMessage() for r in caplog.records if r.name == "subdfo.solvers"]

    # A time cap that has expired before the first evaluation.
    prob = make_problem("sphere", 10)
    rec = run(prob, SolverConfig(p=3, max_time=1e-12, max_evals=100))
    assert (rec.termination, rec.total_evals, rec.trace) == ("time", 0, [])
    assert prob.evals == 0

    # A non-finite objective at the starting point.
    prob = Problem("nan_at_x0", 4, lambda x: float("nan"), None, None, np.zeros(4), 0.0)
    rec = run(prob, SolverConfig(p=2, seed=0, max_evals=50))
    assert rec.termination == "error"
    assert rec.total_evals == prob.evals == 1
    assert rec.trace == []
    assert warnings() == ["run aborted: objective is nan at the starting point"]
    caplog.clear()

    # A model that cannot be built.
    def failing_builder(*args, **kwargs):
        raise ModelConstructionError("injected model failure")

    monkeypatch.setattr(solvers_mod, MODEL_BUILDERS[solver], failing_builder)
    prob = make_problem("sphere", 6)
    rec = run(prob, SolverConfig(p=2, seed=0, max_evals=200))
    assert rec.termination == "error"
    assert rec.total_evals == prob.evals > 1
    assert rec.trace[0] == (1, prob.raw_objective(prob.x0))
    assert warnings() == ["run aborted: injected model failure"]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_error_run_keeps_its_reason(solver):
    # An "error" run keeps its reason in the record and in its stored form;
    # any other run stores no error field, so its bytes do not change.
    prob = Problem("inf_at_x0", 4, lambda x: math.inf, None, None, np.zeros(4), 0.0)
    rec = SOLVERS[solver](prob, SolverConfig(p=2, seed=0, max_evals=50))
    assert rec.termination == "error"
    assert rec.error == "objective is inf at the starting point"
    assert rec.to_dict(include_wall_time=False)["error"] == rec.error
    assert RunRecord.from_dict(rec.to_dict()) == rec
    ok = SOLVERS[solver](make_problem("sphere", 4), SolverConfig(p=2, seed=0, max_evals=30))
    assert ok.termination != "error" and ok.error == ""
    assert "error" not in ok.to_dict()


def _timed_out(signum, frame):
    raise TimeoutError("run did not return within its alarm")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e300, 1e200])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_overflowing_objective_ends_with_a_record(solver, scale):
    # f = scale * ||x||^2 overflows its models; every run must still end
    # with a documented termination instead of hanging or raising.
    def f(x):
        return scale * float(x @ x)

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(120)
    try:
        for seed in range(10):
            prob = Problem("scaled_sphere", 10, f, None, None, np.ones(10), 0.0)
            rec = SOLVERS[solver](prob, SolverConfig(p=3, seed=seed, max_evals=300))
            assert rec.termination in TERMINATIONS, seed
            assert rec.total_evals == prob.evals <= 300
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", [12, 16, 22, 28, 36])
def test_overflowing_mfn_build_warns_of_no_invalid_value(seed):
    # At these seeds f = 1e300 ||x||^2 overflows the MFN right-hand side to
    # inf - inf; build_mfn_model rejects it before the solve, silently.
    prob = Problem("scaled_sphere", 10, lambda x: 1e300 * float(x @ x), None, None, np.ones(10), 0.0)
    rec = run_rsdfoq(prob, SolverConfig(p=3, seed=seed, max_evals=300))
    assert rec.termination in TERMINATIONS
    assert rec.total_evals == prob.evals <= 300


class TestRunRsdfo:
    def test_constant_objective_shrinks_delta(self):
        n = 4
        prob = Problem("const", n, lambda x: 1.0, None, None, np.zeros(n), 1.0)
        logs = []
        cfg = SolverConfig(p=2, seed=0, max_evals=10_000, rho_end=1e-6, delta0=1.0)
        rec = run_rsdfo(prob, cfg, log_cb=logs.append)
        assert rec.termination == "critical"
        assert all(log.classification == "unsuccessful" for log in logs)
        assert rec.best_f == 1.0
        assert len(rec.trace) == 1
        deltas = [log.delta for log in logs]
        assert all(b == pytest.approx(0.5 * a) for a, b in zip(deltas, deltas[1:]))

    def test_identity_sketch_full_space_quadratic(self):
        prob = convex_quadratic(2)
        cfg = SolverConfig(p=2, seed=1, max_evals=300, sketch_kind="identity")
        best = [np.inf]
        run_rsdfo(prob, cfg, iterate_hook=lambda k, x: best.__setitem__(0, min(best[0], np.linalg.norm(x))))
        assert best[0] <= 1e-4

    def test_identity_sketch_requires_full_p(self):
        prob = convex_quadratic(3)
        with pytest.raises(ContractViolationError):
            run_rsdfo(prob, SolverConfig(p=2, seed=0, sketch_kind="identity"))

    def test_deterministic_given_seed(self):
        prob1 = convex_quadratic(8)
        prob2 = convex_quadratic(8)
        logs1, logs2 = [], []
        cfg = SolverConfig(p=3, seed=5, max_evals=200)
        rec1 = run_rsdfo(prob1, cfg, log_cb=logs1.append)
        rec2 = run_rsdfo(prob2, cfg, log_cb=logs2.append)
        assert rec1.trace == rec2.trace
        assert logs1 == logs2
        rec3 = run_rsdfo(convex_quadratic(8), SolverConfig(p=3, seed=6, max_evals=200))
        assert rec1.trace != rec3.trace

    def test_accounting_and_budget(self):
        prob = convex_quadratic(6)
        cfg = SolverConfig(p=2, seed=2, max_evals=137)
        rec = run_rsdfo(prob, cfg)
        assert rec.total_evals == prob.evals == 137
        assert rec.trace[-1][0] <= 137
        assert rec.termination == "budget"

    def test_nonfinite_at_start_errors(self):
        prob = Problem("bad", 3, lambda x: float("nan"), None, None, np.zeros(3), 0.0)
        rec = run_rsdfo(prob, SolverConfig(p=2, seed=0, max_evals=50))
        assert rec.termination == "error"

    def test_nonfinite_later_treated_as_inf(self):
        n = 3

        def f(x):
            return float("nan") if np.linalg.norm(x) > 1.4 else float(x @ x)

        prob = Problem("patchy", n, f, None, None, 0.8 * np.ones(n), 0.0)
        rec = run_rsdfo(prob, SolverConfig(p=2, seed=3, max_evals=150))
        assert rec.termination in ("budget", "rho_floor", "critical")
        assert all(np.isfinite(v) for _, v in rec.trace)


class TestRunRsdfo2:
    def test_stencil_points_are_one_product_evaluated_in_row_order(self):
        # The first iteration evaluates x0 + S[1:] @ M^T row by row, bit for
        # bit, with S the stencil at delta0 and M the first draw of the
        # run's sketch stream.
        n, p = 30, 3
        seen = []
        base = make_problem("sphere", n)
        prob = Problem(
            "recorded", n, lambda x: seen.append(x.copy()) or base.raw_objective(x),
            None, None, base.x0, 0.0,
        )
        cfg = SolverConfig(p=p, seed=4, max_evals=1 + n_quadratic_coeffs(p) - 1)
        rec = run_rsdfo2(prob, cfg)
        assert rec.termination == "budget"
        sketch = make_sketch(cfg.sketch_kind, n, p, derive_rng(cfg.seed, "sketch"))
        x0 = np.asarray(prob.x0, dtype=float)
        want = x0 + full_quadratic_stencil(p, cfg.resolved_delta0(x0))[1:] @ sketch.map.T
        assert len(seen) == cfg.max_evals
        assert seen[0].tobytes() == x0.tobytes()
        assert np.stack(seen[1:]).tobytes() == want.tobytes()

    def test_one_sketch_stream_per_run(self, monkeypatch):
        # Iteration k's map is the k-th draw of derive_rng(seed, "sketch"):
        # equal seeds give equal maps and records, and each iteration gets
        # a fresh map.
        maps = []

        def spy(*args):
            sketch = make_sketch(*args)
            maps.append(sketch.map)
            return sketch

        monkeypatch.setattr(solvers_mod, "make_sketch", spy)
        n, p = 20, 3
        cfg = SolverConfig(p=p, seed=11, max_evals=300)
        runs = []
        for _ in range(2):
            maps.clear()
            rec = run_rsdfo2(make_problem("trigonometric", n), cfg)
            runs.append((repr(rec.to_dict(include_wall_time=False)), list(maps)))
        (rec_a, maps_a), (rec_b, maps_b) = runs
        assert rec_a == rec_b
        assert len(maps_a) == len(maps_b) >= 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(maps_a, maps_b))
        assert maps_a[0].tobytes() != maps_a[1].tobytes()
        stream = derive_rng(cfg.seed, "sketch")
        for m in maps_a:
            assert m.tobytes() == make_sketch("gaussian", n, p, stream).map.tobytes()

    def test_budget_that_runs_out_mid_stencil_ends_at_max_evals(self):
        # p = 2: five stencil evaluations per iteration, then at most one
        # trial, so most of these budgets run out inside a stencil.
        mid_stencil = 0
        for max_evals in range(2, 40):
            prob = make_problem("trigonometric", 6)
            logs = []
            cfg = SolverConfig(p=2, seed=1, max_evals=max_evals)
            rec = run_rsdfo2(prob, cfg, log_cb=logs.append)
            assert rec.termination == "budget", (max_evals, rec.termination, rec.error)
            assert rec.total_evals == prob.evals == max_evals
            left = max_evals - (logs[-1].evals_used if logs else 1)
            mid_stencil += 0 < left < n_quadratic_coeffs(2) - 1
        assert mid_stencil >= 20

    def test_trace_nonincreasing_and_budget(self):
        prob = make_problem("saddle_quartic", 4)
        cfg = SolverConfig(p=2, seed=7, max_evals=400)
        rec = run_rsdfo2(prob, cfg)
        vals = [v for _, v in rec.trace]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert rec.total_evals <= 400

    def test_delta_capped(self):
        prob = convex_quadratic(4)
        logs = []
        cfg = SolverConfig(p=2, seed=8, max_evals=500, delta_max=0.4, delta0=0.4)
        run_rsdfo2(prob, cfg, log_cb=logs.append)
        assert all(log.delta <= 0.4 + 1e-12 for log in logs)

    def test_deterministic(self):
        cfg = SolverConfig(p=2, seed=11, max_evals=300)
        rec1 = run_rsdfo2(make_problem("sphere", 5), cfg)
        rec2 = run_rsdfo2(make_problem("sphere", 5), cfg)
        assert rec1.trace == rec2.trace

    def test_quadratic_reaches_second_order_stationarity(self):
        # On a convex quadratic the fully quadratic subspace models are
        # exact, so the model criticality decays along the run and the true
        # criticality at the final iterate falls below 1e-2 within the
        # standard budget (holds for most seeds at condition number 10;
        # this one finishes well inside the threshold).
        n = 10
        prob = convex_quadratic(n)
        a = prob.hessian_oracle(prob.x0)
        last = [prob.x0]
        logs = []

        def hook(k, x, last=last):
            last[0] = x

        cfg = SolverConfig(p=5, seed=4, max_evals=100 * (n + 1))
        run_rsdfo2(prob, cfg, log_cb=logs.append, iterate_hook=hook)
        sigma_final = float(np.linalg.norm(a @ last[0]))  # PSD Hessian: tau = 0
        assert sigma_final <= 1e-2
        sigmas = [log.sigma_m for log in logs]
        assert min(sigmas[-5:]) <= 0.05 * max(sigmas)


class TestRunRsdfoq:
    def test_sphere_reaches_low_accuracy(self):
        n = 20
        prob = make_problem("sphere", n)
        cfg = SolverConfig(p=5, seed=0, max_evals=100 * (n + 1))
        rec = run_rsdfoq(prob, cfg)
        assert rec.best_f <= 1e-3 * prob.raw_objective(prob.x0)

    def test_trace_nonincreasing(self):
        prob = make_problem("chained_rosenbrock", 10)
        rec = run_rsdfoq(prob, SolverConfig(p=3, seed=1, max_evals=600))
        vals = [v for _, v in rec.trace]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rho_monotone_and_below_delta(self):
        prob = make_problem("sphere", 8)
        logs = []
        cfg = SolverConfig(p=3, seed=2, max_evals=2000, rho_end=1e-6)
        rec = run_rsdfoq(prob, cfg, log_cb=logs.append)
        rhos = [log.rho for log in logs]
        assert all(b <= a for a, b in zip(rhos, rhos[1:]))
        assert all(log.rho <= log.delta * (1 + 1e-12) for log in logs)
        assert rec.termination in ("rho_floor", "budget")

    def test_rho_reduction_classification_consistent(self):
        prob = make_problem("sphere", 8)
        logs = []
        run_rsdfoq(prob, SolverConfig(p=3, seed=3, max_evals=2000, rho_end=0.0), log_cb=logs.append)
        reduced = [log for log in logs if log.classification == "rho_reduced"]
        assert reduced, "expected at least one rho reduction on a long run"
        for log in reduced:
            assert log.R is not None and log.R < 0
            assert log.delta <= log.rho * (1 + 1e-12)
        for log in logs:
            if log.classification == "safety":
                assert log.R == -1.0
            if log.classification == "successful":
                assert log.R is not None and log.R > 0

    def test_deterministic_and_audited(self):
        prob1 = make_problem("sum_of_powers", 9)
        prob2 = make_problem("sum_of_powers", 9)
        logs1, logs2 = [], []
        cfg = SolverConfig(p=3, seed=4, max_evals=700)
        rec1 = run_rsdfoq(prob1, cfg, log_cb=logs1.append)
        rec2 = run_rsdfoq(prob2, cfg, log_cb=logs2.append)
        assert rec1.trace == rec2.trace
        assert logs1 == logs2
        assert rec1.total_evals == prob1.evals

    def test_full_space_mode(self):
        n = 4
        prob = make_problem("sphere", n)
        cfg = SolverConfig(p=n, seed=5, max_evals=600)
        rec = run_rsdfoq(prob, cfg)
        assert rec.best_f <= 1e-6

    def test_sphere_ten_seeds_tau_accuracy(self):
        # f = ||x||^2, n = 20, p = 5, q = 2p+1: every seed reaches
        # tau = 1e-3 accuracy within the 100(n+1) budget.
        from subdfo.bench import evals_to_accuracy

        n = 20
        for seed in range(10):
            prob = make_problem("sphere", n)
            f0 = prob.raw_objective(prob.x0)
            rec = run_rsdfoq(prob, SolverConfig(p=5, seed=seed, max_evals=100 * (n + 1)))
            assert math.isfinite(evals_to_accuracy(rec, f0, 0.0, 1e-3)), f"seed {seed}"

    def test_delta_respects_rho_in_nonreduction_branches(self):
        prob = make_problem("chained_rosenbrock", 8)
        logs = []
        run_rsdfoq(prob, SolverConfig(p=3, seed=9, max_evals=1500, rho_end=1e-7), log_cb=logs.append)
        for prev, nxt in zip(logs, logs[1:]):
            assert nxt.delta <= 1e10 * (1 + 1e-12)
            if prev.classification != "rho_reduced":
                assert nxt.delta >= prev.rho * (1 - 1e-12)

    def test_prototype_guard_consistency(self):
        # For the prototype solvers sigma_m is logged, so the acceptance
        # guard is externally checkable: successful iterations must have
        # R >= eta and sigma_m >= mu * delta.
        prob = convex_quadratic(10)
        logs = []
        cfg = SolverConfig(p=3, seed=10, max_evals=400)
        run_rsdfo(prob, cfg, log_cb=logs.append)
        assert any(log.classification == "successful" for log in logs)
        for log in logs:
            if log.classification == "successful":
                assert log.R >= cfg.eta
                assert log.sigma_m >= cfg.mu * log.delta

    def test_structural_invariants_each_iteration(self, monkeypatch):
        # At every model build (top of an iteration) the primary set holds
        # exactly p+1 points including the base, and the secondary set stays
        # within its capacity: in the subspace regime and with p == n, where
        # one point is demoted before the trial point is added.
        import subdfo.solvers as solvers_mod
        from subdfo.interp import build_mfn_model as real_build

        seen = []

        def probe(iset, basis, prev=None, **kwargs):
            seen.append((len(iset.primary), len(iset.secondary)))
            base = iset.base
            assert any(np.array_equal(y, base) for y in iset.primary)
            return real_build(iset, basis, prev=prev, **kwargs)

        monkeypatch.setattr(solvers_mod, "build_mfn_model", probe)
        for n, p, q in ((6, 3, 7), (4, 4, 15)):
            seen.clear()
            prob = make_problem("chained_rosenbrock", n)
            run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=13, max_evals=500))
            assert len(seen) > 20, (n, p)
            assert all(n1 == p + 1 for n1, _ in seen), (n, p)
            assert all(n2 <= q - p - 1 for _, n2 in seen), (n, p)

    @pytest.mark.parametrize(
        "problem, n, p, q, max_evals",
        [
            ("chained_rosenbrock", 100, 25, 51, 700),
            ("trigonometric", 100, 25, 51, 700),
            ("low_rank_quadratic", 120, 10, 21, 700),
        ],
    )
    def test_accepted_builds_solve_the_full_kkt_system(
        self, monkeypatch, problem, n, p, q, max_evals
    ):
        # The interpolation residual is the only acceptance check of an MFN
        # build: it covers the first block of the KKT system. At the suite
        # shape and at a framed shape (n > 2q) every accepted build's saddle
        # solution also satisfies the whole system, the second block
        # X^T lambda = 0 included, to 1e-9 relative to max(1, ||rhs||).
        import subdfo.interp as interp_mod

        real_solve = interp_mod.solve_saddle_system
        real_build = solvers_mod.build_mfn_model
        solves, accepted = [], []

        def solve_spy(a, b, rhs):
            sol = real_solve(a, b, rhs)
            solves.append((a.copy(), b.copy(), rhs.copy(), sol.copy()))
            return sol

        def build_spy(*args, **kwargs):
            solves.clear()
            model = real_build(*args, **kwargs)
            accepted.extend(solves)
            return model

        monkeypatch.setattr(interp_mod, "solve_saddle_system", solve_spy)
        monkeypatch.setattr(solvers_mod, "build_mfn_model", build_spy)
        run_rsdfoq(make_problem(problem, n), SolverConfig(p=p, q=q, seed=0, max_evals=max_evals))
        assert len(accepted) > 50
        for a, b, rhs, sol in accepted:
            m = len(a)
            res = np.concatenate([a @ sol[:m] + b.T @ sol[m:], b @ sol[:m]]) - rhs
            assert np.linalg.norm(res) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_one_eigendecomposition_per_model(self, monkeypatch):
        # Criticality and the TRS share each model's eigendecomposition, so
        # a run calls eigh at most once per model built: once per logged
        # iteration, plus the model of an iteration cut by the budget.
        real_eigh = np.linalg.eigh
        calls = 0

        def counting_eigh(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        runs = (
            (run_rsdfoq, SolverConfig(p=5, q=15, seed=0, max_evals=300)),
            (run_rsdfo2, SolverConfig(p=3, seed=0, max_evals=300)),
        )
        for run, cfg in runs:
            calls = 0
            logs = []
            run(make_problem("chained_rosenbrock", 20), cfg, log_cb=logs.append)
            assert len(logs) > 20, run.__name__
            assert calls <= len(logs) + 1, (run.__name__, calls, len(logs))

    def test_at_most_two_qr_factorizations_per_iteration(self, monkeypatch):
        # One basis per iteration and one for the directions added to it,
        # all through numerics.economic_qr; np.linalg.qr is not used.
        import subdfo.interp as interp_mod
        import subdfo.numerics as numerics_mod

        real_qr = numerics_mod.economic_qr
        calls = 0

        def counting_qr(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_qr(*args, **kwargs)

        def forbidden_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(numerics_mod, "economic_qr", counting_qr)
        monkeypatch.setattr(interp_mod, "economic_qr", counting_qr)
        monkeypatch.setattr(np.linalg, "qr", forbidden_qr)
        for n, p, q in ((20, 5, 11), (30, 8, 20), (6, 6, 28)):
            calls = 0
            starts = []
            prob = make_problem("chained_rosenbrock", n)
            cfg = SolverConfig(p=p, q=q, seed=3, max_evals=400)
            run_rsdfoq(prob, cfg, iterate_hook=lambda k, x: starts.append(k))
            assert len(starts) > 20, (n, p)
            assert len(starts) <= calls <= 2 * len(starts) + 1, (n, p, calls)

    def test_held_factor_matches_a_fresh_factorization(self, monkeypatch):
        # After every iteration's changes, the basis the solver reads is the
        # held factor, and its columns F Q agree with factoring the
        # full-space directions afresh; the recorded coordinates Z
        # reproduce the offsets D in frame coordinates as Z Q^T.
        from subdfo.interp import build_mfn_model as real_build

        checked = 0

        def probe(iset, basis, prev=None, **kwargs):
            nonlocal checked
            held = iset._held
            assert held is not None and np.shares_memory(held, basis.coords)
            q = iset.frame.T @ held
            offsets = np.delete(iset.primary, iset.base_index, axis=0) - iset.base
            fresh = orthonormal_basis(offsets).columns
            assert fresh.shape == q.shape
            assert np.linalg.svd(fresh.T @ q, compute_uv=False).min() >= 1 - 1e-10
            assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= BASIS_ORTHO_TOL
            d = iset.frame_directions()
            z = np.delete(iset.primary_coords(basis), iset.base_index, axis=0)
            assert np.linalg.norm(d - z @ held.T) <= 1e-12 * np.linalg.norm(d)
            checked += 1
            return real_build(iset, basis, prev=prev, **kwargs)

        monkeypatch.setattr(solvers_mod, "build_mfn_model", probe)
        for n, p, q in ((30, 5, 11), (6, 6, 28)):
            for seed in range(3):
                checked = 0
                prob = make_problem("chained_rosenbrock", n)
                run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300))
                assert checked > 50, (n, p, seed)

    def test_drifted_factor_is_refactored(self, monkeypatch):
        # A held Q perturbed by 1e-11 (Gram error above BASIS_ORTHO_TOL) is
        # refactored through orthonormal_basis at the next read; the model
        # never sees the drifted columns.
        real_basis = solvers_mod.orthonormal_basis
        calls = []

        def spy(vectors):
            calls.append(len(vectors))
            return real_basis(vectors)

        monkeypatch.setattr(solvers_mod, "orthonormal_basis", spy)
        from subdfo.interp import build_mfn_model as real_build

        isets, drifted, after = [], [], []

        def probe(iset, basis, prev=None, **kwargs):
            isets.append(iset)
            if drifted and not after:
                after.append(len(calls))
                assert not np.shares_memory(basis.coords, drifted[0][1])
            return real_build(iset, basis, prev=prev, **kwargs)

        monkeypatch.setattr(solvers_mod, "build_mfn_model", probe)

        def hook(k, x):
            if k >= 10 and not drifted and isets[-1]._held is not None:
                iset = isets[-1]
                q = iset._held + 1e-11 * np.random.default_rng(0).standard_normal(iset._held.shape)
                iset._held = q
                drifted.append((len(calls), q))

        prob = make_problem("chained_rosenbrock", 30)
        rec = run_rsdfoq(prob, SolverConfig(p=5, q=11, seed=0, max_evals=300), iterate_hook=hook)
        assert rec.termination == "budget"
        # One refactor at the read after the drift.
        assert drifted and after == [drifted[0][0] + 1]

    def test_orthonormal_basis_runs_at_most_once_per_iteration(self, monkeypatch):
        # add_orthogonal_points factors the primary directions once; the
        # read refactors only when no points were added since a change.
        real_basis = solvers_mod.orthonormal_basis
        calls = 0

        def spy(vectors):
            nonlocal calls
            calls += 1
            return real_basis(vectors)

        monkeypatch.setattr(solvers_mod, "orthonormal_basis", spy)
        starts = []
        prob = make_problem("chained_rosenbrock", 200)
        cfg = SolverConfig(p=10, seed=0, max_evals=300)
        run_rsdfoq(prob, cfg, iterate_hook=lambda k, x: starts.append(k))
        assert len(starts) > 50
        assert calls <= len(starts) + 1, (calls, len(starts))

    @pytest.mark.parametrize(
        "n, p, q, seed",
        [(n, p, q, s) for n, p, q in ((30, 5, 11), (6, 6, 28), (200, 10, 21)) for s in range(3)],
    )
    def test_runs_without_qr_updates(self, monkeypatch, n, p, q, seed):
        # Every factor is a fresh orthonormal_basis, with drawn directions
        # appended as known columns: no SciPy QR update is called, and at
        # most one factorization runs per iteration, plus one.
        def forbidden(*args, **kwargs):
            raise AssertionError("QR update called")

        for name in ("qr_delete", "qr_insert", "qr_update"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        real_basis = solvers_mod.orthonormal_basis
        calls = 0

        def spy(vectors):
            nonlocal calls
            calls += 1
            return real_basis(vectors)

        monkeypatch.setattr(solvers_mod, "orthonormal_basis", spy)
        starts = []
        prob = make_problem("chained_rosenbrock", n)
        rec = run_rsdfoq(
            prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300),
            iterate_hook=lambda k, x: starts.append(k),
        )
        assert rec.termination == "budget", rec.termination
        assert len(starts) > 20
        assert calls <= len(starts) + 1, (calls, len(starts))

    @pytest.mark.parametrize("n, p, q", [(30, 5, 11), (6, 6, 28), (200, 10, 21)])
    def test_runs_without_scipy_solve_or_qr(self, monkeypatch, n, p, q):
        # The saddle solves and QR factorizations call LAPACK directly.
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve or scipy.linalg.qr called")

        monkeypatch.setattr(scipy.linalg, "solve", forbidden)
        monkeypatch.setattr(scipy.linalg, "qr", forbidden)
        prob = make_problem("chained_rosenbrock", n)
        rec = run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=0, max_evals=300))
        assert rec.termination == "budget", (rec.termination, rec.error)

    def test_nonfinite_probes_are_retried(self):
        # f is NaN where x[1] > 1 and its minimizer lies there, so the base
        # approaches the boundary and probes cross it. Dropping them left
        # the base alone, and every run ended as "error".
        n = 10

        def f(x):
            return math.nan if x[1] > 1.0 else float(np.sum((x - 2.0) ** 2))

        for seed in range(5):
            prob = Problem("nan_above_one", n, f, None, None, np.zeros(n), 0.0)
            rec = run_rsdfoq(prob, SolverConfig(p=1, seed=seed, max_evals=300))
            assert rec.termination != "error", seed
            assert rec.total_evals == prob.evals, seed

    def test_inf_outside_small_ball_returns_record(self):
        # f = ||x||^2 inside ||x - 1|| < 0.15 and inf outside: orthogonal
        # probes land outside and are dropped, so the primary set can hold
        # fewer points than the demotion heuristic asks to remove.
        n = 20

        def f(x):
            return float(x @ x) if np.linalg.norm(x - 1.0) < 0.15 else math.inf

        for p, seed in ((2, 0), (3, 1), (5, 0), (8, 2)):
            prob = Problem("inf_outside_ball", n, f, None, None, np.ones(n), 0.0)
            cfg = SolverConfig(p=p, seed=seed, max_evals=300)
            rec = run_rsdfoq(prob, cfg)
            assert isinstance(rec, RunRecord)
            assert rec.termination in TERMINATIONS
            assert rec.total_evals <= cfg.max_evals

    @pytest.mark.parametrize(
        "name, f",
        [("flat", lambda x: 3.0), ("stepped", lambda x: math.floor(4.0 * float(x @ x)))],
    )
    def test_flat_objective_ends_at_the_radius_floor(self, name, f):
        # Every step leaves f unchanged, so the ratio is exactly 0. It counts
        # toward rho reduction; counting only ratios below 0 spent the whole
        # budget.
        n = 10
        for seed in range(5):
            prob = Problem(name, n, f, None, None, np.ones(n), 0.0)
            rec = run_rsdfoq(prob, SolverConfig(p=3, seed=seed, max_evals=300))
            assert rec.termination == "rho_floor", seed
            assert rec.total_evals == prob.evals < 250, seed

    # The held-factor configurations: a subspace and p == n.
    FACTOR_RUNS = [(30, 5, 11, s) for s in range(3)] + [(6, 6, 28, s) for s in range(3)]

    @pytest.mark.parametrize("n, p, q, seed", FACTOR_RUNS)
    def test_coordinates_come_from_the_held_factor(self, monkeypatch, n, p, q, seed):
        # Every model build and every demotion reads the primary coordinates
        # from the set's record (kept from the fresh factor, the appended
        # directions, the trial step and the demotions), never from a
        # product with Q, and they match (primary - base) @ Q.
        real_coords = InterpolationSet.primary_coords
        seen = {"coords": 0, "users": 0}

        def checked(iset, basis):
            coords = real_coords(iset, basis)
            assert iset._coords[0] is basis
            direct = (iset.primary - iset.base) @ basis.columns
            scale = max(1.0, float(np.max(np.linalg.norm(direct, axis=1))))
            assert np.max(np.abs(coords - direct)) <= 1e-12 * scale
            seen["coords"] += 1
            return coords

        def counted(fn):
            def wrapper(*args, **kwargs):
                seen["users"] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(InterpolationSet, "primary_coords", checked)
        for name in ("build_mfn_model", "remove_single_point"):
            monkeypatch.setattr(solvers_mod, name, counted(getattr(solvers_mod, name)))
        prob = make_problem("chained_rosenbrock", n)
        run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300))
        assert seen["coords"] == seen["users"] > 100

    @pytest.mark.parametrize("n, p, q, seed", FACTOR_RUNS)
    def test_one_basis_per_iteration(self, monkeypatch, n, p, q, seed):
        # The read that feeds the model is the one Basis check of an
        # iteration; hold_basis builds none. Refactors through
        # orthonormal_basis build one more each.
        real_init = Basis.__post_init__
        built = 0

        def counting_init(self):
            nonlocal built
            real_init(self)
            built += 1

        refactors = 0
        real_basis = solvers_mod.orthonormal_basis

        def spy(vectors):
            nonlocal refactors
            refactors += 1
            return real_basis(vectors)

        monkeypatch.setattr(Basis, "__post_init__", counting_init)
        monkeypatch.setattr(solvers_mod, "orthonormal_basis", spy)
        starts = []
        prob = make_problem("chained_rosenbrock", n)
        cfg = SolverConfig(p=p, q=q, seed=seed, max_evals=300)
        run_rsdfoq(prob, cfg, iterate_hook=lambda k, x: starts.append(k))
        assert len(starts) > 20
        assert built <= len(starts) + refactors, (built, len(starts), refactors)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["nan_half_space", "inf_outside_ball", "flat", "stepped"]),
        n=st.integers(2, 6),
        full_space=st.booleans(),
        q_max=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_run_contract_on_pathological_objectives(self, kind, n, full_space, q_max, seed):
        # p = 1 or p = n, q at its lower or upper bound. Each run returns a
        # record with a documented termination and honest evaluation
        # accounting, and repeats exactly under its seed.
        p = n if full_space else 1
        q = n_quadratic_coeffs(p) if q_max else p + 2
        objectives = {
            "nan_half_space": (
                lambda x: math.nan if x[0] > 0.5 else float(np.sum((x - 1.0) ** 2)),
                np.zeros(n),
            ),
            "inf_outside_ball": (
                lambda x: float(x @ x) if np.linalg.norm(x - 1.0) < 0.3 else math.inf,
                np.ones(n),
            ),
            "flat": (lambda x: 3.0, np.ones(n)),
            "stepped": (lambda x: math.floor(4.0 * float(x @ x)), np.ones(n)),
        }
        f, x0 = objectives[kind]
        cfg = SolverConfig(p=p, q=q, seed=seed, max_evals=120)
        runs = []
        for _ in range(2):
            prob = Problem(kind, n, f, None, None, x0, 0.0)
            rec = run_rsdfoq(prob, cfg)
            assert rec.termination in TERMINATIONS
            assert rec.total_evals == prob.evals <= cfg.max_evals
            runs.append((rec.termination, rec.total_evals, rec.trace))
        assert runs[0] == runs[1]

    def test_time_cap(self):
        n = 30
        calls = 0

        def slow(x):
            nonlocal calls
            calls += 1
            import time as _t

            _t.sleep(0.002)
            return float(x @ x)

        prob = Problem("slow", n, slow, None, None, np.ones(n), 0.0)
        cfg = SolverConfig(p=5, seed=6, max_evals=10**6, max_time=0.3)
        rec = run_rsdfoq(prob, cfg)
        assert rec.termination == "time"


NUMPY_DIR = os.path.dirname(np.__file__)

# Python-level calls into NumPy allowed per rsdfoq iteration.
NUMPY_CALLS_PER_ITERATION = 300


@pytest.mark.parametrize("n, p, q", [(100, 25, 51), (12, 12, 91), (30, 5, 11)])
def test_numpy_python_calls_per_iteration(n, p, q):
    """A guard against per-call overhead creeping back into the rsdfoq loop.

    Counts the "call" events (generator resumptions included) of Python code
    under NumPy's package directory, as ``sys.setprofile`` reports them, over
    a short seed-0 run after a warm-up run. Each NumPy wrapper such as
    ``np.max``, ``np.all``, ``np.hstack`` or ``np.insert`` makes several; a
    method such as ``x.max()`` makes one, a ufunc none. The count is
    deterministic but depends on the NumPy version: with NumPy 2.4.6 the
    loop made about 350, 420 and 360 before its hot path dropped these
    wrappers, then 141.7, 171.6 and 148.0, and now makes 154.3, 185.8 and
    160.0: the saddle solve goes through ``np.linalg.solve``'s wrapper.
    """
    prob = make_problem("chained_rosenbrock", n)
    cfg = SolverConfig(p=p, q=q, seed=0, max_evals=400)
    run_rsdfoq(prob, cfg)  # fills the per-shape caches
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            calls += 1

    starts = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rec = run_rsdfoq(prob, cfg, iterate_hook=lambda k, x: starts.append(k))
    finally:
        sys.setprofile(previous)
    assert rec.termination == "budget", rec.termination
    assert len(starts) > 100
    assert calls <= NUMPY_CALLS_PER_ITERATION * len(starts), calls / len(starts)


def record_points(prob):
    """{value: [points]} of every evaluation of ``prob``'s objective, filled as it runs."""
    seen = {}
    raw = prob.raw_objective

    def spy(x):
        val = raw(x)
        seen.setdefault(float(val), []).append(np.array(x, dtype=float))
        return val

    prob.raw_objective = spy
    return seen


def frame_gram_error(iset):
    """max |F F^T - I| of the set's frame."""
    f = iset.frame
    return np.max(np.abs(f @ f.T - np.eye(len(f))), initial=0.0)


def point_error(iset, seen):
    """max ||o + F w - x|| / max(1, ||x||) over the stored points, where x is
    the evaluated point (``record_points``) nearest o + F w among those with
    the stored value. Every primary point must be an evaluated point, bit for
    bit."""
    for y, v in zip(iset.primary, iset.primary_values):
        assert any(np.array_equal(y, x) for x in seen[v])
    coords = np.vstack([iset.primary_frame_coords, iset.secondary_frame_coords])
    lifted = iset.origin + coords @ iset.frame
    worst = 0.0
    for y, v in zip(lifted, iset.primary_values + iset.secondary_values):
        x = np.array(seen[v])
        err = np.linalg.norm(x - y, axis=1) / np.maximum(1.0, np.linalg.norm(x, axis=1))
        worst = max(worst, float(err.min()))
    return worst


class TestFrame:
    # Subspaces whose frame is grown and compacted (n > 2q), and full frames
    # (n <= 2q), with p < n and with p == n.
    RUNS = (
        [(30, 5, 11, s) for s in range(3)]
        + [(200, 10, 21, s) for s in range(3)]
        + [(6, 6, 28, s) for s in range(3)]
        + [(20, 5, 11, s) for s in range(3)]
    )

    @staticmethod
    def _record_sets(monkeypatch):
        sets = []

        class Recorded(InterpolationSet):
            def __init__(self, *args):
                super().__init__(*args)
                sets.append(self)

        monkeypatch.setattr(solvers_mod, "InterpolationSet", Recorded)
        return sets

    @pytest.mark.parametrize("n, p, q, seed", RUNS)
    def test_frame_holds_every_point(self, monkeypatch, n, p, q, seed):
        # After each iteration every stored point is o + F w, the point at
        # which its value was evaluated, and F stays orthonormal and within
        # 3q/2 rows through every extension and compaction. A full frame is
        # I_n with a zero origin, is never extended or compacted, and its
        # coordinates are the primary points bit for bit.
        sets = self._record_sets(monkeypatch)
        changes = {"_extend": 0, "_compact": 0}

        def checked(name):
            real = getattr(InterpolationSet, name)

            def wrapper(iset, *args):
                out = real(iset, *args)
                assert frame_gram_error(iset) <= BASIS_ORTHO_TOL, name
                assert len(iset.frame) <= 3 * q // 2
                changes[name] += 1
                return out

            return wrapper

        for name in changes:
            monkeypatch.setattr(InterpolationSet, name, checked(name))
        iterations = []

        def hook(k, x):
            [iset] = sets
            iterations.append(k)
            assert point_error(iset, seen) <= 1e-12, k
            assert frame_gram_error(iset) <= BASIS_ORTHO_TOL, k
            if n > 2 * q:
                assert len(iset.frame) <= 3 * q // 2, k
            else:
                assert iset.frame_dim == n
                assert iset.frame.tobytes() == np.eye(n).tobytes()
                assert iset.origin.tobytes() == np.zeros(n).tobytes()
                assert iset.primary_frame_coords.tobytes() == iset.primary.tobytes()

        prob = make_problem("chained_rosenbrock", n)
        seen = record_points(prob)
        run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300), iterate_hook=hook)
        assert len(iterations) > 20
        if n > 2 * q:
            assert changes["_extend"] >= len(iterations) // 2
            assert changes["_compact"] > 0
        else:
            assert changes == {"_extend": 0, "_compact": 0}

    @pytest.mark.parametrize("n, p, q, seed", RUNS)
    def test_no_full_space_basis_is_formed(self, monkeypatch, n, p, q, seed):
        # A framed basis forms its n x p columns only when they are read;
        # nothing in a run reads them.
        sets = self._record_sets(monkeypatch)
        real = Basis.columns
        formed = []

        def spy(basis):
            if basis.frame is not None:
                formed.append(basis.coords.shape)
            return real.func(basis)

        monkeypatch.setattr(Basis, "columns", property(spy))
        prob = make_problem("chained_rosenbrock", n)
        run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300))
        assert (sets[0].frame_dim < n) == (n > 2 * q)
        assert formed == []

    @pytest.mark.parametrize("n, p, q", [(100, 25, 51), (6, 6, 28), (30, 5, 11)])
    def test_secondary_points_are_never_formed(self, monkeypatch, n, p, q):
        # The secondary points are held only as frame coordinates; a run
        # never forms their n-vectors.
        real = InterpolationSet.secondary
        reads = 0

        def spy(iset):
            nonlocal reads
            reads += 1
            return real.fget(iset)

        monkeypatch.setattr(InterpolationSet, "secondary", property(spy))
        logs = []
        prob = make_problem("chained_rosenbrock", n)
        run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=0, max_evals=300), log_cb=logs.append)
        assert len(logs) > 20
        assert reads == 0

    @pytest.mark.parametrize("n, p, q, seed", RUNS[:6])
    def test_overlap_matches_the_full_space_product(self, monkeypatch, n, p, q, seed):
        # The reference-Hessian cross term, formed from frame coordinates and
        # carried through compactions, is Q^T Q_prev of the full-space bases.
        from subdfo.interp import build_mfn_model as real_build

        checked = 0

        def probe(iset, basis, prev=None, **kwargs):
            nonlocal checked
            if prev is not None:
                cross = iset.overlap(basis, prev)
                direct = basis.columns.T @ prev.map
                assert np.max(np.abs(cross - direct)) <= 1e-12
                checked += 1
            return real_build(iset, basis, prev=prev, **kwargs)

        monkeypatch.setattr(solvers_mod, "build_mfn_model", probe)
        prob = make_problem("chained_rosenbrock", n)
        run_rsdfoq(prob, SolverConfig(p=p, q=q, seed=seed, max_evals=300))
        assert checked > 20
