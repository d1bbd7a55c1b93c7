import math
import tracemalloc

import numpy as np
import pytest

from subdfo.exceptions import CatalogError, UnsupportedDiagnosticError
from subdfo.problems import Problem, catalog, make_problem, true_criticality
from subdfo.seeding import derive_rng

ALL_NAMES = sorted(catalog())


def central_diff_grad(f, x, h=1e-5):
    n = x.size
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_diff_hess_from_grad(grad, x, h=1e-5):
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[:, i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (out + out.T)


class TestCatalog:
    def test_sphere_basics(self):
        p = make_problem("sphere", 4)
        assert p.raw_objective(p.x0) == pytest.approx(4.0)
        assert p.f_min == 0.0
        assert np.allclose(p.x0, 1.0)

    def test_saddle_quartic_minimum(self):
        p = make_problem("saddle_quartic", 3)
        x_star = np.array([0.0, 1.0 / np.sqrt(2.0), 0.0])
        assert p.raw_objective(x_star) == pytest.approx(-0.25, abs=1e-14)
        assert p.f_min == -0.25

    def test_chained_rosenbrock_minimizer(self):
        p = make_problem("chained_rosenbrock", 2)
        assert p.raw_objective(np.ones(2)) == pytest.approx(0.0, abs=1e-14)

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            make_problem("nope", 5)

    def test_low_rank_parameter_parsing(self):
        p = make_problem("low_rank_quadratic(3)", 10)
        h = p.hessian_oracle(p.x0)
        assert np.linalg.matrix_rank(h, tol=1e-8) == 3
        assert make_problem("low_rank_quadratic", 10).name == "low_rank_quadratic(5)"

    def test_dimension_floor(self):
        with pytest.raises(Exception):
            make_problem("sphere", 1)


class TestOracles:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_gradient_matches_finite_differences(self, name):
        n = 6
        p = make_problem(name, n)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x = p.x0 + rng.uniform(-0.5, 0.5, n)
            g = p.gradient_oracle(x)
            g_fd = central_diff_grad(p.raw_objective, x)
            scale = max(1.0, np.linalg.norm(g))
            assert np.linalg.norm(g - g_fd) <= 1e-6 * scale

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_hessian_matches_finite_differences(self, name):
        n = 5
        p = make_problem(name, n)
        rng = np.random.default_rng(hash(name) % 2**31)
        for _ in range(20):
            x = p.x0 + rng.uniform(-0.5, 0.5, n)
            h = p.hessian_oracle(x)
            h_fd = central_diff_hess_from_grad(p.gradient_oracle, x)
            scale = max(1.0, np.linalg.norm(h, 2))
            assert np.max(np.abs(h - h_fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_objective_bounded_below_by_f_min(self, name):
        n = 4
        p = make_problem(name, n)
        rng = np.random.default_rng(123)
        xs = p.x0 + rng.uniform(-2.0, 2.0, size=(10000, n))
        vals = np.array([p.raw_objective(x) for x in xs])
        assert np.all(vals >= p.f_min - 1e-12)

    def test_eval_counter_exact(self):
        p = make_problem("sphere", 3)
        for _ in range(17):
            p.objective(p.x0)
        assert p.evals == 17


def low_rank_frame(n, r):
    """The seeded orthonormal n x r frame U and the eigenvalues lam."""
    rng = derive_rng(0xC0FFEE, "low_rank_quadratic", n, r)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return u, np.logspace(0.0, 2.0, r)


def dense_low_rank_hessian(n, r):
    # The dense matrix the problem was defined by: 0.5 (a + a^T) with
    # a = U diag(lam) U^T.
    u, lam = low_rank_frame(n, r)
    a = u @ (lam[:, None] * u.T)
    return 0.5 * (a + a.T)


class TestLowRankQuadratic:
    @pytest.mark.parametrize("n", [6, 50])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_factored_form_matches_the_dense_matrix(self, n, r):
        p = make_problem(f"low_rank_quadratic({r})", n)
        a = dense_low_rank_hessian(n, r)
        rng = np.random.default_rng(n * 10 + r)
        for x in rng.standard_normal((50, n)) * rng.uniform(0.01, 10.0, (50, 1)):
            f, f_dense = p.raw_objective(x), 0.5 * x @ (a @ x)
            assert abs(f - f_dense) <= 1e-12 * max(1.0, abs(f))
            g = p.gradient_oracle(x)
            assert np.linalg.norm(g - a @ x) <= 1e-12 * max(1.0, np.linalg.norm(g))

    def test_hessian_is_the_dense_matrix_formed_once(self):
        p = make_problem("low_rank_quadratic(3)", 40)
        h = p.hessian_oracle(p.x0)
        assert h.tobytes() == dense_low_rank_hessian(40, 3).tobytes()
        assert p.hessian_oracle(np.zeros(40)) is h

    def test_value_is_never_negative(self):
        p = make_problem("low_rank_quadratic", 50)
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((10000, 50)) * 10.0 ** rng.uniform(-8, 8, (10000, 1))
        assert min(p.raw_objective(x) for x in xs) >= 0.0

    def test_no_dense_matrix_without_a_hessian_request(self):
        # An n x n matrix at n = 5000 takes 200 MB; the factor takes 200 kB.
        n = 5000
        tracemalloc.start()
        try:
            p = make_problem("low_rank_quadratic", n)
            x = np.linspace(-1.0, 1.0, n)
            for _ in range(10):
                p.objective(x)
                p.gradient_oracle(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def _previous_objective(name, n):
    """The catalog objective as written before it dropped np.sum's wrapper."""
    if name == "chained_rosenbrock":
        return lambda x: float(
            np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
        )
    if name == "saddle_quartic":
        return lambda x: float(x[0] ** 2 - x[1] ** 2 + x[1] ** 4 + np.sum(x[2:] ** 2))
    if name == "sum_of_powers":
        powers = 2.0 + 2.0 * (np.arange(n) % 3)
        return lambda x: float(np.sum(x**powers))
    if name == "trigonometric":
        idx = np.arange(1, n + 1, dtype=float)

        def f(x):
            r = n - np.sum(np.cos(x)) + idx * (1.0 - np.cos(x)) - np.sin(x)
            return float(r @ r)

        return f
    assert name == "low_rank_quadratic"  # at its default rank
    u, lam = low_rank_frame(n, min(5, n))

    def f(x):
        z = u.T @ x
        return float(0.5 * lam @ (z * z))

    return f


def _objective_inputs(n):
    rng = np.random.default_rng(n)
    xs = list(rng.standard_normal((20, n)) * 10.0 ** rng.uniform(-3, 3, (20, 1)))
    xs.append(np.zeros(n))
    xs.append(np.full(n, 1e200))  # every power overflows to inf
    xs.append(rng.standard_normal(n) * 1e160)
    for bad in (np.inf, -np.inf, np.nan):
        for i in sorted({0, 1, n - 1}):
            x = rng.standard_normal(n)
            x[i] = bad
            xs.append(x)
    return xs


class TestObjectiveBits:
    @pytest.mark.parametrize(
        "name",
        ["chained_rosenbrock", "low_rank_quadratic", "saddle_quartic", "sum_of_powers",
         "trigonometric"],
    )
    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_equals_the_previous_expression(self, name, n):
        f = make_problem(name, n).raw_objective
        ref = _previous_objective(name, n)
        with np.errstate(all="ignore"):
            for x in _objective_inputs(n):
                got, want = f(x), ref(x)
                assert np.array_equal(got, want, equal_nan=True), (x, got, want)
                assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(got)


class TestTrueCriticality:
    def test_sphere_at_origin(self):
        p = make_problem("sphere", 4)
        rep = true_criticality(p, np.zeros(4))
        assert rep.sigma == pytest.approx(0.0, abs=1e-14)

    def test_saddle_at_origin(self):
        p = make_problem("saddle_quartic", 4)
        rep = true_criticality(p, np.zeros(4))
        assert rep.grad_norm == pytest.approx(0.0, abs=1e-14)
        assert rep.tau == pytest.approx(2.0, abs=1e-12)
        assert rep.sigma == pytest.approx(2.0, abs=1e-12)

    def test_sphere_off_origin(self):
        p = make_problem("sphere", 3)
        x = np.array([1.0, 0.0, 0.0])
        rep = true_criticality(p, x)
        assert rep.sigma == pytest.approx(2.0, abs=1e-12)

    def test_missing_oracle(self):
        p = Problem("custom", 2, lambda x: 0.0, None, None, np.zeros(2), 0.0)
        with pytest.raises(UnsupportedDiagnosticError):
            true_criticality(p, np.zeros(2))
