import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subdfo.solvers as solvers_mod
from subdfo import trs
from subdfo.exceptions import ContractViolationError
from subdfo.interp import SubspaceModel
from subdfo.problems import make_problem
from subdfo.solvers import SolverConfig, run_rsdfo2, run_rsdfoq
from subdfo.trs import cauchy_step, decrease_ratio, eigen_step, solve_trs


def model(g, h):
    g = np.asarray(g, float)
    h = np.asarray(h, float)
    return SubspaceModel(None, None, 0.0, g, h)


def random_model(rng, p=None):
    p = p or int(rng.integers(1, 7))
    g = rng.standard_normal(p) * 10.0 ** rng.integers(-2, 3)
    a = rng.standard_normal((p, p))
    h = (a + a.T) * 10.0 ** rng.integers(-2, 2)
    if rng.uniform() < 0.1:
        g = np.zeros(p)
    if rng.uniform() < 0.1:
        h = np.zeros((p, p))
    return model(g, h)


def first_order_bound(m, delta):
    gnorm = np.linalg.norm(m.gradient)
    hnorm = np.linalg.norm(m.hessian, 2)
    return 0.5 * gnorm * min(delta, gnorm / max(hnorm, 1.0))


def tau_of(m):
    return max(-np.linalg.eigvalsh(m.hessian)[0], 0.0)


class TestCauchyStep:
    def test_linear_model_boundary(self):
        res = cauchy_step(model([1.0, 0.0], np.zeros((2, 2))), 0.5)
        assert np.allclose(res.step, [-0.5, 0.0], atol=1e-14)
        assert res.predicted_decrease == pytest.approx(0.5, abs=1e-14)
        assert res.certified_first_order

    def test_interior_minimizer(self):
        res = cauchy_step(model([1.0, 0.0], np.eye(2)), 10.0)
        assert np.allclose(res.step, [-1.0, 0.0], atol=1e-12)
        assert res.predicted_decrease == pytest.approx(0.5, abs=1e-12)

    def test_zero_gradient_flagged(self):
        res = cauchy_step(model([0.0, 0.0], np.eye(2)), 1.0)
        assert np.all(res.step == 0.0)
        assert res.predicted_decrease == 0.0
        assert not res.certified_first_order

    def test_delta_must_be_positive(self):
        with pytest.raises(ContractViolationError):
            cauchy_step(model([1.0], np.zeros((1, 1))), 0.0)


class TestEigenStep:
    def test_negative_curvature_boundary(self):
        res = eigen_step(model([0.0, 0.0], np.diag([-2.0, 1.0])), 1.0)
        assert np.allclose(np.abs(res.step), [1.0, 0.0], atol=1e-12)
        assert res.predicted_decrease == pytest.approx(1.0, abs=1e-12)
        assert res.certified_second_order

    def test_psd_flagged(self):
        res = eigen_step(model([1.0, 1.0], np.eye(2)), 1.0)
        assert np.all(res.step == 0.0)
        assert not res.certified_second_order

    def test_sign_free_when_gradient_orthogonal(self):
        res = eigen_step(model([0.0, 1.0], np.diag([-2.0, 1.0])), 1.0)
        assert np.allclose(np.abs(res.step), [1.0, 0.0], atol=1e-12)
        assert res.step[0] > 0  # lexicographic tie-break
        assert res.predicted_decrease == pytest.approx(1.0, abs=1e-12)

    def test_sign_follows_gradient(self):
        res = eigen_step(model([1.0, 0.0], np.diag([-2.0, 1.0])), 1.0)
        assert res.step[0] == pytest.approx(-1.0, abs=1e-12)


class TestSolveTrs:
    def test_dominates_cauchy(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = random_model(rng)
            delta = float(10.0 ** rng.uniform(-3, 1))
            res = solve_trs(m, delta, "first_order")
            cau = cauchy_step(m, delta)
            assert res.predicted_decrease >= cau.predicted_decrease - 1e-12 * max(
                1.0, cau.predicted_decrease
            )
            assert np.linalg.norm(res.step) <= delta * (1 + 1e-12)

    def test_second_order_dominates_both(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = random_model(rng)
            delta = float(10.0 ** rng.uniform(-3, 1))
            res = solve_trs(m, delta, "second_order")
            cau = cauchy_step(m, delta)
            eig = eigen_step(m, delta)
            lower = max(cau.predicted_decrease, eig.predicted_decrease)
            assert res.predicted_decrease >= lower - 1e-12 * max(1.0, lower)

    def test_hand_example(self):
        m = model([1.0, 0.0], np.diag([-2.0, 1.0]))
        res = solve_trs(m, 1.0, "second_order")
        cau = cauchy_step(m, 1.0)
        assert res.predicted_decrease >= max(cau.predicted_decrease, 1.0) - 1e-12
        # Global optimum is s = (-1, 0) with model value -2.
        assert res.predicted_decrease == pytest.approx(2.0, abs=1e-9)

    def test_critical_model_returns_zero(self):
        res = solve_trs(model([0.0, 0.0], np.zeros((2, 2))), 1.0, "second_order")
        assert np.all(res.step == 0.0)
        assert not res.certified_first_order and not res.certified_second_order

    def test_certificates_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = random_model(rng)
            delta = float(10.0 ** rng.uniform(-2, 1))
            res = solve_trs(m, delta, "second_order")
            gnorm = np.linalg.norm(m.gradient)
            tau = tau_of(m)
            if gnorm > 0:
                assert res.certified_first_order
                assert res.predicted_decrease >= first_order_bound(m, delta) * (1 - 1e-9)
            if tau > 0:
                assert res.certified_second_order
                assert res.predicted_decrease >= 0.5 * tau * delta**2 * (1 - 1e-9)

    def test_matches_dense_grid_oracle_p2(self):
        # Oracle: interior stationary point (when PD and inside) plus a fine
        # polar sweep of the boundary with golden-section refinement.
        rng = np.random.default_rng(3)
        golden = 0.5 * (np.sqrt(5.0) - 1.0)
        for _ in range(40):
            m = random_model(rng, p=2)
            delta = float(10.0 ** rng.uniform(-1, 1))

            def mval(s):
                return float(m.gradient @ s + 0.5 * s @ (m.hessian @ s))

            best = 0.0
            w = np.linalg.eigvalsh(m.hessian)
            if w[0] > 0:
                s_int = -np.linalg.solve(m.hessian, m.gradient)
                if np.linalg.norm(s_int) <= delta:
                    best = min(best, mval(s_int))

            def bval(phi):
                return mval(delta * np.array([np.cos(phi), np.sin(phi)]))

            grid = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
            vals = np.array([bval(phi) for phi in grid])
            j = int(np.argmin(vals))
            a = grid[j] - 2 * np.pi / 720
            b = grid[j] + 2 * np.pi / 720
            for _ in range(80):
                c = b - golden * (b - a)
                d = a + golden * (b - a)
                if bval(c) < bval(d):
                    b = d
                else:
                    a = c
            best = min(best, bval(0.5 * (a + b)))

            res = solve_trs(m, delta, "second_order")
            assert res.predicted_decrease == pytest.approx(-best, abs=1e-6)

    def test_matches_interval_oracle_p1(self):
        # In one dimension the ball optimum is at an endpoint or the interior
        # stationary point, all checkable directly.
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = random_model(rng, p=1)
            delta = float(10.0 ** rng.uniform(-1, 1))
            g, h = float(m.gradient[0]), float(m.hessian[0, 0])

            def mval(s):
                return g * s + 0.5 * h * s * s

            cands = [mval(-delta), mval(delta)]
            if h > 0 and abs(g / h) <= delta:
                cands.append(mval(-g / h))
            best = min(0.0, *cands)
            res = solve_trs(m, delta, "second_order")
            assert res.predicted_decrease == pytest.approx(-best, abs=1e-6)

    def test_large_dimension_exact_solution(self):
        # p = 80, positive definite and indefinite H: the step satisfies the
        # exact ball-minimizer conditions (H + lam I) s = -g, lam >= 0,
        # H + lam I PSD, lam = 0 unless the step is on the boundary.
        rng = np.random.default_rng(4)
        p = 80
        g = rng.standard_normal(p)
        a = rng.standard_normal((p, p)) / np.sqrt(p)
        for shift in (3.0, 0.0):
            h = a + a.T + shift * np.eye(p)
            m = model(g, h)
            res = solve_trs(m, 0.7, "first_order")
            cau = cauchy_step(m, 0.7)
            assert res.predicted_decrease >= cau.predicted_decrease - 1e-10
            s = res.step
            assert np.linalg.norm(s) <= 0.7 * (1 + 1e-12)
            lam = 0.0
            if np.linalg.norm(s) >= 0.7 * (1 - 1e-8):
                lam = -float(s @ (h @ s + g)) / float(s @ s)
            assert lam >= 0.0, shift
            assert np.linalg.norm(h @ s + lam * s + g) <= 1e-10 * np.linalg.norm(g), shift
            assert np.linalg.eigvalsh(h + lam * np.eye(p))[0] >= -1e-10, shift
        assert np.linalg.eigvalsh(h)[0] < 0.0  # the second case is indefinite

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        g_exp=st.floats(0.0, 300.0),
        h_exp=st.floats(0.0, 300.0),
        delta=st.floats(1e-3, 1e3),
        mode=st.sampled_from(["first_order", "second_order"]),
    )
    @example(seed=0, p=3, g_exp=300.0, h_exp=0.0, delta=1.0, mode="second_order")
    @example(seed=0, p=3, g_exp=0.0, h_exp=20.0, delta=1.0, mode="second_order")
    def test_returns_for_huge_finite_models(self, seed, p, g_exp, h_exp, delta, mode):
        # g or H up to 1e300: squares of g overflow, and H + lam I cannot
        # be shifted by the gradient's scale. The solve must still return
        # a step in the ball with a finite, nonnegative decrease.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p))
        m = model(10.0**g_exp * rng.standard_normal(p), 10.0**h_exp * (a + a.T))

        def timed_out(signum, frame):
            raise TimeoutError("solve_trs did not return")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(10)
        try:
            res = solve_trs(m, delta, mode)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert np.all(np.isfinite(res.step))
        assert np.linalg.norm(res.step) <= delta * (1 + 1e-12)
        assert math.isfinite(res.predicted_decrease)
        assert res.predicted_decrease >= 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        g_exp=st.floats(-300.0, 3.0),
        h_exp=st.floats(-300.0, 3.0),
        delta_exp=st.floats(-300.0, 3.0),
        mode=st.sampled_from(["first_order", "second_order"]),
    )
    # delta = 10^-156.5 and ||g|| near 10^-158.75: g @ g and the squared
    # step norm are subnormal, and the unscaled norms put the step outside
    # the ball by a relative 5e-10 and 9e-7.
    @example(seed=92, p=1, g_exp=-157.33, h_exp=-198.49, delta_exp=-156.5, mode="first_order")
    @example(seed=33, p=1, g_exp=-158.75, h_exp=-280.16, delta_exp=-12.47, mode="second_order")
    def test_step_stays_in_the_ball_at_tiny_scales(self, seed, p, g_exp, h_exp, delta_exp, mode):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p))
        m = model(10.0**g_exp * rng.standard_normal(p), 10.0**h_exp * (a + a.T))
        delta = 10.0**delta_exp
        step = solve_trs(m, delta, mode).step
        big = float(np.max(np.abs(step)))
        # Scaled, so the norm itself does not underflow.
        norm = big * float(np.linalg.norm(step / big)) if big > 0.0 else 0.0
        assert norm <= delta * (1 + 1e-12)

    def test_tiny_radius_returns(self):
        # At delta <= 1e-120 the secular Newton step's n2 * n underflows to
        # zero; the solve must stop there instead of dividing by it.
        m = model([1.0, 5.0], np.diag([-1.0, 2.0]))
        for delta in (1e-120, 1e-200):
            res = solve_trs(m, delta, "second_order")
            assert np.all(np.isfinite(res.step))
            assert 0.0 < res.predicted_decrease < math.inf


@np.errstate(over="ignore", invalid="ignore")
def three_result_solve_trs(m, delta, mode):
    """solve_trs as it was when it built a full TrsResult for every candidate."""
    w, v, gnorm, hnorm, tau = trs._spectrum(m, delta)
    candidates = []
    if gnorm > 0.0:
        candidates.append((trs._cauchy(m, delta, gnorm), "cauchy"))
    if mode == "second_order" and tau > 0.0:
        candidates.append((trs._eigen(m, delta, v, gnorm), "eigen"))
    if candidates:
        refined = trs._exact_trs_eig(m.gradient, w, v, delta)
        nrm = trs._norm(refined)
        if nrm > delta:
            refined = refined * (delta / nrm)
        candidates.append((refined, "refined"))
    results = [trs._result(m, delta, step, kind, gnorm, hnorm, tau) for step, kind in candidates]
    finite = [r for r in results if math.isfinite(r.predicted_decrease)]
    best = max(finite, key=lambda r: r.predicted_decrease, default=None)
    if best is None or best.predicted_decrease <= 0.0:
        return trs.TrsResult(np.zeros(m.dim), 0.0, "cauchy", False, False)
    return best


def captured_models():
    """(model, delta) of every solve_trs call in two short solver runs."""
    seen = []

    def spy(model, delta, mode):
        seen.append((model, delta))
        return solve_trs(model, delta, mode)

    mp = pytest.MonkeyPatch()
    mp.setattr(solvers_mod, "solve_trs", spy)
    try:
        run_rsdfoq(make_problem("saddle_quartic", 12), SolverConfig(p=4, seed=0, max_evals=300))
        run_rsdfo2(make_problem("trigonometric", 12), SolverConfig(p=3, seed=0, max_evals=300))
    finally:
        mp.undo()
    return seen


class TestOneResult:
    def assert_same(self, m, delta):
        for mode in ("first_order", "second_order"):
            got = solve_trs(m, delta, mode)
            want = three_result_solve_trs(m, delta, mode)
            assert got.step.tobytes() == want.step.tobytes()
            assert np.float64(got.predicted_decrease).tobytes() == np.float64(
                want.predicted_decrease
            ).tobytes()
            assert got.kind == want.kind
            assert got.certified_first_order == want.certified_first_order
            assert got.certified_second_order == want.certified_second_order

    def test_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            m = random_model(rng)
            scale = 10.0 ** float(rng.choice([0.0, 150.0, 300.0, -160.0]))
            if scale != 1.0:
                m = model(m.gradient * scale, m.hessian * 10.0 ** float(rng.uniform(-2, 2)))
            self.assert_same(m, 10.0 ** float(rng.uniform(-3, 2)))

    def test_captured_models(self):
        seen = captured_models()
        assert len(seen) > 30
        for m, delta in seen:
            self.assert_same(m, delta)


class TestDecreaseRatio:
    def test_exact_model(self):
        assert decrease_ratio(5.0, 4.0, 1.0) == pytest.approx(1.0)

    def test_super_model(self):
        assert decrease_ratio(5.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_sign_convention(self):
        assert decrease_ratio(5.0, 5.5, 1.0) == pytest.approx(-0.5)

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(ContractViolationError):
            decrease_ratio(5.0, 4.0, 0.0)
