import math

import numpy as np
import pytest

from subdfo.exceptions import ContractViolationError
from subdfo.seeding import derive_rng
from subdfo.sketch import (
    default_p_max,
    estimate_alignment_probability,
    gaussian_sketch,
    identity_sketch,
    is_well_aligned,
    make_sketch,
    scaled_orthonormal_sketch,
    theta_margin,
    verify_polarization_bound,
)


class TestGaussianSketch:
    def test_entry_second_moment(self):
        # 40000 draws of 5x5 matrices = 1e6 entries; Var = 1/p = 1/5.
        total = 0.0
        count = 0
        for seed in range(40000):
            m = gaussian_sketch(5, 5, seed).map
            total += float(np.sum(m * m))
            count += m.size
        assert total / count == pytest.approx(0.2, abs=0.01)

    def test_projected_gradient_norm_unbiased(self):
        # Each component of P^T g is N(0, ||g||^2 / p), so E||P^T g||^2 = 1.
        rng = np.random.default_rng(0)
        g = rng.standard_normal(100)
        g /= np.linalg.norm(g)
        acc = 0.0
        for seed in range(10000):
            p = gaussian_sketch(100, 20, seed).map
            v = p.T @ g
            acc += float(v @ v)
        assert acc / 10000 == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        a = gaussian_sketch(10, 3, 42).map
        b = gaussian_sketch(10, 3, 42).map
        assert np.array_equal(a, b)

    def test_bad_dims(self):
        with pytest.raises(ContractViolationError):
            gaussian_sketch(5, 6, 0)
        with pytest.raises(ContractViolationError):
            gaussian_sketch(5, 0, 0)


class TestScaledOrthonormalSketch:
    def test_square_case_is_orthogonal(self):
        p = scaled_orthonormal_sketch(4, 4, 1).map
        assert np.linalg.norm(p, 2) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(p.T @ p - np.eye(4))) <= 1e-10

    def test_operator_norm(self):
        p = scaled_orthonormal_sketch(100, 4, 3).map
        assert np.linalg.norm(p, 2) == pytest.approx(5.0, abs=1e-10)
        assert np.max(np.abs(p.T @ p - (100 / 4) * np.eye(4))) <= 1e-10

    def test_column_norms(self):
        sk = scaled_orthonormal_sketch(30, 6, 5)
        norms = np.linalg.norm(sk.map, axis=0)
        assert np.allclose(norms, math.sqrt(30 / 6), atol=1e-10)


class TestSketchSources:
    """An int seed keeps its per-kind recipe; a Generator is drawn from in order."""

    SHAPES = [(1, 1), (5, 2), (30, 3), (1000, 8)]

    @staticmethod
    def orthonormal_reference(g, n, p):
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        return q * math.sqrt(n / p)

    @pytest.mark.parametrize("n,p", SHAPES)
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_int_seed_keeps_its_bits(self, n, p, seed):
        sk = make_sketch("gaussian", n, p, seed)
        want = derive_rng(seed, "gaussian").standard_normal((n, p)) / math.sqrt(p)
        assert sk.map.tobytes() == want.tobytes()
        assert sk.seed == seed
        sk = make_sketch("scaled_orthonormal", n, p, seed)
        g = derive_rng(seed, "orthonormal").standard_normal((n, p))
        assert sk.map.tobytes() == self.orthonormal_reference(g, n, p).tobytes()
        assert sk.seed == seed

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_generator_gives_its_next_draws(self, n, p):
        rng, ref = derive_rng(3, "sketch"), derive_rng(3, "sketch")
        for _ in range(3):
            sk = make_sketch("gaussian", n, p, rng)
            want = ref.standard_normal((n, p)) / math.sqrt(p)
            assert sk.map.tobytes() == want.tobytes()
            assert sk.seed is None
        sk = make_sketch("scaled_orthonormal", n, p, rng)
        want = self.orthonormal_reference(ref.standard_normal((n, p)), n, p)
        assert sk.map.tobytes() == want.tobytes()
        assert sk.seed is None

    def test_identity_draws_nothing(self):
        rng = derive_rng(3, "sketch")
        state = rng.bit_generator.state
        assert np.array_equal(make_sketch("identity", 4, 4, rng).map, np.eye(4))
        assert rng.bit_generator.state == state


class TestWellAligned:
    def test_identity_passes_for_all_alpha(self):
        n = 6
        rng = np.random.default_rng(2)
        grad = rng.standard_normal(n)
        a = rng.standard_normal((n, n))
        hess = a + a.T
        sk = identity_sketch(n)
        for alpha in (0.05, 0.3, 0.6, 0.95):
            rep = is_well_aligned(sk, grad, hess, alpha, p_max=1.0)
            assert rep.passed

    def test_orthogonal_gradient_fails(self):
        p = np.array([[1.0], [0.0]])  # P = e1 as a 2x1 map
        rep = is_well_aligned(p, np.array([0.0, 1.0]), np.zeros((2, 2)), 0.5, 10.0)
        assert not rep.gradient_ok
        assert rep.hessian_rank == 0
        assert rep.eigvec_ok and rep.cross_terms_ok  # vacuous at rank 0

    def test_gaussian_pass_rate_rank3(self):
        n, p = 100, 20
        rng = np.random.default_rng(9)
        grad = rng.standard_normal(n)
        grad /= np.linalg.norm(grad)
        frame, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        hess = frame @ np.diag([3.0, 2.0, 1.0]) @ frame.T
        rate = estimate_alignment_probability(
            "gaussian", n, p, grad, hess, 0.5, default_p_max(n, p), 1000, seed=0
        )
        assert rate >= 0.9


class TestThetaMargin:
    def test_alpha_zero_limit(self):
        assert theta_margin(0.0, 1.0, 5, 1.0).theta == pytest.approx(1.0)

    def test_formula_value(self):
        # (1-0.1)^2 - 4*1*(2-1)*0.1^2 / (1*(1-0.1)^2) = 0.81 - 0.04/0.81
        expected = 0.81 - 0.04 / 0.81
        tm = theta_margin(0.1, 1.0, 2, 1.0)
        assert tm.theta == pytest.approx(expected, abs=1e-12)
        assert tm.theta == pytest.approx(0.760617, abs=1e-6)
        assert tm.positive

    def test_large_rank_negative(self):
        tm = theta_margin(0.5, 10.0, 100, 0.01)
        assert tm.theta < 0
        assert not tm.positive

    def test_preconditions(self):
        with pytest.raises(ContractViolationError):
            theta_margin(1.0, 1.0, 1, 1.0)
        with pytest.raises(ContractViolationError):
            theta_margin(0.5, 1.0, 1, 0.0)
        with pytest.raises(ContractViolationError):
            theta_margin(0.5, -1.0, 1, 1.0)
        with pytest.raises(ContractViolationError):
            theta_margin(0.5, 1.0, 0, 1.0)


class TestAlignmentProbability:
    def test_identity_always_passes(self):
        n = 8
        rng = np.random.default_rng(4)
        grad = rng.standard_normal(n)
        hess = np.diag(np.arange(1.0, n + 1))
        rate = estimate_alignment_probability(
            "identity", n, n, grad, hess, 0.5, 1.0, trials=25, seed=0
        )
        assert rate == 1.0

    def test_single_trial_is_bernoulli(self):
        rng = np.random.default_rng(5)
        grad = rng.standard_normal(20)
        hess = np.zeros((20, 20))
        rate = estimate_alignment_probability(
            "gaussian", 20, 4, grad, hess, 0.3, default_p_max(20, 4), trials=1, seed=7
        )
        assert rate in (0.0, 1.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        grad = rng.standard_normal(30)
        hess = np.outer(grad, grad)
        args = ("gaussian", 30, 6, grad, hess, 0.5, default_p_max(30, 6), 50, 123)
        assert estimate_alignment_probability(*args) == estimate_alignment_probability(*args)


class TestPolarizationBound:
    def test_identity_preserves_everything(self):
        v_i = np.array([1.0, 0.0, 0.0])
        v_r = np.array([0.0, 1.0, 0.0])
        sk = identity_sketch(3)
        assert verify_polarization_bound(sk, v_i, v_r, alpha=1e-12)
        inner = (sk.map.T @ v_i) @ (sk.map.T @ v_r)
        assert inner == pytest.approx(0.0, abs=1e-15)

    def test_scaling_breaks_norm_conditions(self):
        v_i = np.array([1.0, 0.0])
        v_r = np.array([0.0, 1.0])
        assert not verify_polarization_bound(2.0 * np.eye(2), v_i, v_r, alpha=0.5)

    def test_implication_never_falsified(self):
        # The inner-product bound is asserted inside whenever the norm
        # conditions hold; any violation would raise.
        n, p, alpha = 50, 12, 0.5
        rng = np.random.default_rng(8)
        held = 0
        for seed in range(100):
            frame, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            sk = gaussian_sketch(n, p, seed)
            held += verify_polarization_bound(sk, frame[:, 0], frame[:, 1], alpha)
        assert held > 0  # the conditions do hold for a decent fraction

    def test_non_orthonormal_inputs_rejected(self):
        with pytest.raises(ContractViolationError):
            verify_polarization_bound(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
        with pytest.raises(ContractViolationError):
            verify_polarization_bound(np.eye(2), np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0.5)
