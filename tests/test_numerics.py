import warnings

import numpy as np
import pytest
import scipy.linalg

from subdfo.exceptions import (
    ContractViolationError,
    EmptyBasisError,
    SingularSystemError,
)
from subdfo.numerics import (
    Basis,
    economic_qr,
    identity_error,
    min_eigenpair,
    orthonormal_basis,
    solve_saddle_system,
    upper_triangle,
)


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

    def test_independent_vector_after_a_dependent_one_is_kept(self):
        # 2 e1's Householder step is the identity, so e2's diagonal entry of
        # R is 0 in the first factorization; e2 survives the refactor.
        b = orthonormal_basis([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert b.rank == 2
        assert np.allclose(b.columns, np.eye(3)[:, :2], atol=1e-14)

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
    cols = [np.asarray(v, dtype=float) for v in vectors]
    cols = [v for v in cols if np.sqrt(v @ v) > 0.0]
    while True:
        mat = np.column_stack(cols)
        q, r = np.linalg.qr(mat)
        diag = np.diag(r)
        ok = [abs(diag[j]) > 1e-10 * np.sqrt(cols[j] @ cols[j]) for j in range(diag.size)]
        if all(ok) and len(cols) == diag.size:
            return q * np.where(diag < 0, -1.0, 1.0)
        if all(ok):
            del cols[diag.size :]  # the first n span R^n
        else:
            del cols[ok.index(False)]


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


class TestEconomicQr:
    """economic_qr gives the bits of scipy.linalg.qr(mode="economic")."""

    @staticmethod
    def _assert_bit_equal(a):
        before = a.copy()
        q_ref, r_ref = scipy.linalg.qr(a, mode="economic", check_finite=False)
        q, r = economic_qr(a)
        assert np.array_equal(a, before)
        assert q.shape == q_ref.shape and r.shape == r_ref.shape
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        assert q.flags.f_contiguous == q_ref.flags.f_contiguous

    @pytest.mark.parametrize("m, n", [(12, 12), (100, 25), (151, 50), (2000, 50)])
    def test_listed_shapes(self, m, n):
        rng = np.random.default_rng(m + n)
        a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8.0, 2.0, size=n)
        for arr in (a, np.asfortranarray(a), a.T.copy().T[:, ::-1]):
            self._assert_bit_equal(arr)

    def test_random_shapes(self):
        # Tall, square and wide matrices, in C and Fortran order.
        rng = np.random.default_rng(21)
        for _ in range(60):
            m, n = (int(x) for x in rng.integers(1, 160, size=2))
            a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8.0, 2.0, size=n)
            self._assert_bit_equal(a if rng.random() < 0.5 else np.asfortranarray(a))


class TestUpperTriangle:
    """upper_triangle gives np.triu's values and memory order, bit for bit."""

    @staticmethod
    def _assert_bit_equal(a):
        before = a.copy()
        ref = np.triu(a)
        r = upper_triangle(a)
        assert np.array_equal(a, before, equal_nan=True)
        assert r.shape == ref.shape and r.dtype == ref.dtype
        assert r.tobytes() == ref.tobytes()
        assert r.flags.c_contiguous == ref.flags.c_contiguous
        assert not np.shares_memory(r, a)

    @pytest.mark.parametrize("m, n", [(100, 25), (25, 25), (12, 30), (1, 1), (1, 7), (7, 1)])
    def test_tall_square_wide_and_one_by_one(self, m, n):
        rng = np.random.default_rng(m * n)
        a = rng.standard_normal((m, n))
        a[rng.random((m, n)) < 0.1] = -0.0
        a[rng.random((m, n)) < 0.05] = np.nan
        for arr in (a, np.asfortranarray(a), np.asfortranarray(a)[: max(1, m // 2)]):
            self._assert_bit_equal(arr)

    def test_the_factor_of_a_qr(self):
        # economic_qr's R is the triangle of geqrf's Fortran-order output.
        rng = np.random.default_rng(3)
        for m, n in ((100, 25), (12, 12), (5, 9)):
            qr = scipy.linalg.lapack.dgeqrf(rng.standard_normal((m, n)))[0]
            self._assert_bit_equal(qr[: min(m, n)] if m >= n else qr)


def _old_identity_error(g):
    return np.max(np.abs(g - np.eye(len(g))))


class TestIdentityError:
    """identity_error gives max |X X^T - I| as the eye-subtracting form did."""

    def test_random_products(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = int(rng.integers(1, 40))
            x = rng.standard_normal((c, int(rng.integers(c, 60))))
            if rng.random() < 0.5:
                x = np.linalg.qr(x.T)[0].T  # near-orthonormal rows
            ref = _old_identity_error(x @ x.T)
            got = identity_error(x @ x.T)
            assert type(got) is float and got == ref, (got, ref)

    def test_nan_and_inf_entries(self):
        rng = np.random.default_rng(6)
        for c in (1, 2, 5, 25):
            for bad in (np.nan, np.inf, -np.inf):
                g = np.eye(c) + 1e-15 * rng.standard_normal((c, c))
                g[int(rng.integers(c)), int(rng.integers(c))] = bad
                ref = _old_identity_error(g)
                got = identity_error(g.copy())
                assert (np.isnan(got) and np.isnan(ref)) or got == ref, (c, bad)

    def test_non_contiguous_input(self):
        # A strided g is read through a copy, so the result is still exact.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((12, 12))
        view = np.asfortranarray(g)[::2, ::2]
        assert identity_error(view) == _old_identity_error(view)


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


def _mfn_system(u, rng):
    """The saddle blocks and a right-hand side of an MFN build on the points u."""
    a = 0.25 * (u @ u.T) ** 2
    b = np.hstack([np.ones((len(u), 1)), u]).T
    return a, b, np.concatenate([rng.standard_normal(len(u)), np.zeros(len(b))])


def _unit_points(rng, m, r):
    """m random points in R^r scaled to a largest norm of 1, as MFN builds scale them."""
    u = rng.standard_normal((m, r))
    return u / np.max(np.sqrt(np.einsum("ij,ij->i", u, u)))


def _scipy_saddle(a, b, rhs):
    """solve_saddle_system through scipy.linalg.solve(assume_a="sym"): the reference.

    None where LAPACK reports an exactly singular pivot or the solution is
    not finite, the two cases in which solve_saddle_system raises.
    """
    m, k = a.shape[0], b.shape[0]
    kkt = np.zeros((m + k, m + k))
    kkt[:m, :m], kkt[m:, :m], kkt[:m, m:] = a, b, b.T
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
    except np.linalg.LinAlgError:
        return None
    return sol if np.all(np.isfinite(sol)) else None


class TestSaddleSystemBits:
    """The LAPACK saddle path gives the bits of scipy.linalg.solve(assume_a="sym")."""

    @staticmethod
    def _assert_same(a, b, rhs):
        ref = _scipy_saddle(a, b, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if ref is None:
                with pytest.raises(SingularSystemError):
                    solve_saddle_system(a, b, rhs)
            else:
                assert np.array_equal(solve_saddle_system(a, b, rhs), ref)
        return ref

    def test_random_mfn_systems(self):
        # Orders r + m + 1 from 13 to 152: suite (r = 25), fullspace
        # (r = 12, up to 91 points) and highdim (r = 50) shapes.
        rng = np.random.default_rng(3)
        orders = set()
        for r, m in [(12, 91), (25, 51), (50, 101), (12, 13), (3, 9)] + [
            (int(r), int(rng.integers(max(r + 1, 12 - r), min(151 - r, (r + 1) * (r + 2) // 2) + 1)))
            for r in rng.integers(3, 51, size=40)
        ]:
            a, b, rhs = _mfn_system(_unit_points(rng, m, r), rng)
            orders.add(m + r + 1)
            assert self._assert_same(a, b, rhs) is not None
        assert min(orders) == 13 and max(orders) == 152

    def test_near_singular_systems_that_scipy_warns_on(self):
        # Near-duplicate points: SciPy warns of ill-conditioning; the new path
        # warns of nothing and returns the same bits or fails the same way.
        rng = np.random.default_rng(4)
        warned = 0
        for r, m in [(12, 91), (12, 60), (25, 51), (6, 28)]:
            for rel in (1e-6, 1e-8, 1e-10):
                u = _unit_points(rng, m, r)
                u[-1] = u[0] * (1.0 + rel)
                a, b, rhs = _mfn_system(u, rng)
                kkt = np.block([[a, b.T], [b, np.zeros((r + 1, r + 1))]])
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    scipy.linalg.solve(kkt, rhs, assume_a="sym")
                warned += any(issubclass(w.category, scipy.linalg.LinAlgWarning) for w in caught)
                self._assert_same(a, b, rhs)
        assert warned >= 6

    def test_exactly_singular_system_raises_after_one_factorization(self, monkeypatch):
        # A repeated point with two values: no quadratic interpolates them.
        rng = np.random.default_rng(5)
        u = _unit_points(rng, 40, 8)
        u[1] = u[0]
        a, b, rhs = _mfn_system(u, rng)
        rhs[1] = rhs[0] + 1.0
        real = scipy.linalg.lapack.dsytrf
        calls = []

        def spy(mat, **kwargs):
            calls.append(mat.shape)
            return real(mat, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", spy)
        with pytest.raises(SingularSystemError, match="49x49 saddle system singular"):
            solve_saddle_system(a, b, rhs)
        assert calls == [(49, 49)]
        assert _scipy_saddle(a, b, rhs) is None
