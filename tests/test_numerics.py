import numpy as np
import pytest

from subdfo.exceptions import (
    ContractViolationError,
    EmptyBasisError,
    SingularSystemError,
)
from subdfo.numerics import Basis, min_eigenpair, orthonormal_basis, solve_saddle_system


class TestOrthonormalBasis:
    def test_already_orthonormal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        b = orthonormal_basis([e1, e2])
        assert b.rank == 2
        assert np.allclose(b.columns, np.column_stack([e1, e2]), atol=1e-14)

    def test_dependent_column_dropped(self):
        b = orthonormal_basis([[1.0, 0.0], [1.0, 1e-15]])
        assert b.rank == 1
        assert np.allclose(b.columns[:, 0], [1.0, 0.0], atol=1e-14)

    def test_matches_hand_gram_schmidt(self):
        # By hand: q1 = (3,4)/5 = (0.6, 0.8); residual of (0,5) is
        # (0,5) - 4*(0.6,0.8) = (-2.4, 1.8), normalized (-0.8, 0.6).
        b = orthonormal_basis([[3.0, 4.0], [0.0, 5.0]])
        q = b.columns
        assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-12
        assert np.allclose(q[:, 0], [0.6, 0.8], atol=1e-12)
        assert np.allclose(q[:, 1], [-0.8, 0.6], atol=1e-12)
        for v in (np.array([3.0, 4.0]), np.array([0.0, 5.0])):
            assert np.linalg.norm(q @ (q.T @ v) - v) <= 1e-10 * np.linalg.norm(v)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyBasisError):
            orthonormal_basis([np.zeros(3), np.zeros(3)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolationError):
            orthonormal_basis([[np.nan, 1.0]])

    def test_random_sets_reconstruct(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 12)
            m = rng.integers(1, n + 1)
            vecs = [rng.standard_normal(n) for _ in range(m)]
            b = orthonormal_basis(vecs)
            q = b.columns
            assert np.max(np.abs(q.T @ q - np.eye(b.rank))) <= 1e-12
            for v in vecs:
                err = np.linalg.norm(q @ (q.T @ v) - v)
                assert err <= 1e-8 * np.linalg.norm(v)


def _reference_basis(vectors):
    """np.linalg.qr on the stacked columns, with the same drop rule and sign fix."""
    mat = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    norms = np.sqrt(np.einsum("ij,ij->j", mat, mat))
    mat, norms = mat[:, norms > 0.0], norms[norms > 0.0]
    while True:
        q, r = np.linalg.qr(mat)
        diag = np.diag(r)
        ok = np.zeros(mat.shape[1], dtype=bool)
        ok[: diag.size] = np.abs(diag) > 1e-10 * norms[: diag.size]
        if np.all(ok):
            return q * np.where(diag < 0, -1.0, 1.0)
        mat, norms = mat[:, ok], norms[ok]


class TestOrthonormalBasisBits:
    """The LAPACK path gives the bits of np.linalg.qr, as a C-order Q."""

    @staticmethod
    def _vectors(rng, n, k):
        scales = 10.0 ** rng.uniform(-8.0, 2.0, size=k)
        return rng.standard_normal((k, n)) * scales[:, None]

    def _assert_bit_equal(self, rows):
        ref = _reference_basis(list(rows))
        for arg in (list(rows), np.asarray(rows)):
            q = orthonormal_basis(arg).columns
            assert q.flags.c_contiguous
            assert q.shape == ref.shape
            assert np.array_equal(q, ref)

    @pytest.mark.parametrize("n, k", [(2000, 50), (100, 25), (12, 12)])
    def test_random_shapes(self, n, k):
        rng = np.random.default_rng(n + k)
        for _ in range(3):
            self._assert_bit_equal(self._vectors(rng, n, k))

    @pytest.mark.parametrize("n, k", [(2000, 50), (100, 25), (12, 12)])
    def test_zero_and_dependent_vectors(self, n, k):
        rng = np.random.default_rng(7 * n + k)
        rows = self._vectors(rng, n, k)
        rows[1] = 0.0
        rows[k // 2] = rows[0] - 2.0 * rows[2]
        rows[-1] = rows[3] * (1.0 + 1e-15)
        q = orthonormal_basis(rows).columns
        assert q.shape == (n, k - 3)
        self._assert_bit_equal(rows)

    def test_more_vectors_than_dimensions(self):
        self._assert_bit_equal(self._vectors(np.random.default_rng(5), 12, 15))

    def test_input_is_not_modified(self):
        rows = self._vectors(np.random.default_rng(9), 100, 25)
        rows[3] = rows[4]  # forces a second factorization
        before = rows.copy()
        orthonormal_basis(rows)
        assert np.array_equal(rows, before)


class TestBasisType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractViolationError):
            Basis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_coords_roundtrip(self):
        b = orthonormal_basis([np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0])])
        s = b.project_coords(np.array([2.0, 2.0, 3.0]))
        assert np.allclose(b.lift(s), [2.0, 2.0, 3.0], atol=1e-12)


class TestMinEigenpair:
    def test_diagonal(self):
        lam, v = min_eigenpair(np.diag([1.0, -2.0]))
        assert lam == pytest.approx(-2.0, abs=1e-14)
        assert np.allclose(np.abs(v), [0.0, 1.0], atol=1e-12)

    def test_identity(self):
        lam, v = min_eigenpair(np.eye(3))
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        # Eigenvalues of [[2,1],[1,2]] are 3 and 1; the small one has
        # eigenvector (1,-1)/sqrt(2).
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam, v = min_eigenpair(h)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(v), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
        assert v[0] > 0  # lexicographically positive normalization

    def test_residual_and_rayleigh(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.integers(2, 15)
            a = rng.standard_normal((p, p))
            h = (a + a.T) * rng.uniform(0.1, 10.0)
            lam, v = min_eigenpair(h)
            assert np.linalg.norm(h @ v - lam * v) <= 1e-10 * max(
                1.0, np.linalg.norm(h, 2)
            )
            rayleigh = float(v @ (h @ v))
            assert rayleigh == pytest.approx(lam, abs=1e-10 * max(1.0, abs(lam)))
            for _ in range(100):
                u = rng.standard_normal(p)
                u /= np.linalg.norm(u)
                assert lam <= float(u @ (h @ u)) + 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolationError):
            min_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSolveSaddleSystem:
    def test_two_by_two_saddle(self):
        # [[0,1],[1,0]] x = (1,2) gives x = (2,1) by hand.
        x = solve_saddle_system(np.zeros((1, 1)), np.array([[1.0]]), np.array([1.0, 2.0]))
        assert np.allclose(x, [2.0, 1.0], atol=1e-12)

    def test_singular_raises_with_condition(self):
        with pytest.raises(SingularSystemError, match="2x2 saddle system singular"):
            solve_saddle_system(np.zeros((1, 1)), np.zeros((1, 1)), np.array([1.0, 1.0]))

    def test_random_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.integers(1, 8)
            k = rng.integers(1, m + 1)
            a = rng.standard_normal((m, m))
            a = a + a.T + 2 * m * np.eye(m)
            b = rng.standard_normal((k, m))
            rhs = rng.standard_normal(m + k)
            sol = solve_saddle_system(a, b, rhs)
            kkt = np.zeros((m + k, m + k))
            kkt[:m, :m] = a
            kkt[m:, :m] = b
            kkt[:m, m:] = b.T
            res = np.linalg.norm(kkt @ sol - rhs)
            assert res <= 1e-9 * max(1.0, np.linalg.norm(rhs))
