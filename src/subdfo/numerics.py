"""Dense linear-algebra primitives shared by the whole package.

Everything here is pure and reentrant: orthonormalization, symmetric
eigensolves and saddle-point (KKT) solves on matrices of at most a few
hundred rows, backed by NumPy/SciPy dense routines.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import ContractViolationError, EmptyBasisError, SingularSystemError

# Orthonormality tolerance enforced on every Basis instance.
BASIS_ORTHO_TOL = 1e-12

# Relative residual accepted from a saddle-point solve.
SADDLE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of a subspace of R^n: the columns of an n x r matrix.

    ``coords`` holds the columns themselves, or, when ``frame`` is given,
    their coordinates in it: ``frame`` is a k x n array whose rows are
    orthonormal, and the columns are ``frame.T @ coords``. A framed basis
    forms its n x r columns only when ``columns`` is read; ``lift`` and
    ``project_coords`` go through the frame without forming them.

    ``gram_error`` is the measured max |C^T C - I| of the coords C, at most
    BASIS_ORTHO_TOL.
    """

    coords: np.ndarray
    frame: Optional[np.ndarray] = None
    gram_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if q.ndim != 2 or q.shape[1] == 0:
            raise ContractViolationError("basis must have at least one column")
        if not np.all(np.isfinite(q)):
            raise ContractViolationError("basis columns must be finite")
        if self.frame is not None and self.frame.shape[0] != q.shape[0]:
            raise ContractViolationError("basis coordinates do not match the frame")
        gram_err = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
        if gram_err > BASIS_ORTHO_TOL:
            raise ContractViolationError(
                f"basis columns not orthonormal (max |Q^T Q - I| = {gram_err:.3e})"
            )
        object.__setattr__(self, "coords", q)
        object.__setattr__(self, "gram_error", float(gram_err))

    @cached_property
    def columns(self) -> np.ndarray:
        """The n x r columns; for a framed basis an n x k x r product, formed once."""
        if self.frame is None:
            return self.coords
        return self.frame.T @ self.coords

    @property
    def dim(self) -> int:
        return self.coords.shape[0] if self.frame is None else self.frame.shape[1]

    @property
    def rank(self) -> int:
        return self.coords.shape[1]

    def project_coords(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates Q^T v of a full-space vector in this basis."""
        if self.frame is None:
            return self.coords.T @ vec
        return self.coords.T @ (self.frame @ vec)

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """Full-space vector Q s from subspace coordinates."""
        if self.frame is None:
            return self.coords @ coords
        return self.frame.T @ (self.coords @ coords)


def orthonormal_basis(vectors) -> Basis:
    """Orthonormalize a sequence of n-vectors, dropping dependent ones.

    ``vectors`` is a list of n-vectors or a (k, n) array whose rows are the
    vectors. Uses Householder QR with signs fixed so the result matches
    Gram-Schmidt orientation. A vector whose residual against the preceding
    ones falls below 1e-10 times its input norm is dropped (and the
    factorization redone without it). Raises EmptyBasisError when nothing
    survives.

    This is the only factorization of ``run_rsdfoq``'s primary directions,
    in the interpolation set's frame coordinates
    (``InterpolationSet.frame_directions``). ``add_orthogonal_points``
    calls it once per call, and the set holds the result with the drawn
    directions appended as known columns; the read at the start of the
    next iteration (``InterpolationSet.held_basis``) calls it again only
    when the primary set has changed since.

    Bit contract: the factorization is LAPACK ``geqrf``/``orgqr`` on a
    Fortran-order copy of the n x k matrix (``scipy.linalg.qr``, economic
    mode), which gives the same bits as ``np.linalg.qr``, and the sign-fixed
    Q is returned in C order. The memory order of Q decides the bits of every
    later product with it, so solver records depend on both choices.
    """
    rows = np.asarray(vectors, dtype=float)
    if len(rows) == 0:
        raise EmptyBasisError("no input vectors")
    if not np.all(np.isfinite(rows)):
        raise ContractViolationError("input vectors must be finite")
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    live = norms > 0.0
    if not np.all(live):
        rows, norms = rows[live], norms[live]
    while len(rows) > 0:
        q, r = scipy.linalg.qr(
            rows.T.copy(order="F"), mode="economic", overwrite_a=True, check_finite=False
        )
        diag = np.diag(r)
        ok = np.zeros(len(rows), dtype=bool)
        ok[: diag.size] = np.abs(diag) > 1e-10 * norms[: diag.size]
        if np.all(ok):
            signs = np.where(diag < 0, -1.0, 1.0)
            return Basis(np.multiply(q, signs, order="C"))
        rows, norms = rows[ok], norms[ok]
    raise EmptyBasisError("all input vectors are numerically zero or dependent")


def check_symmetric(h: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix that is symmetric up to roundoff."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[0] != h.shape[1]:
        raise ContractViolationError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    asym = float(np.max(np.abs(h - h.T))) if h.size else 0.0
    if asym > 1e-12 * scale:
        raise ContractViolationError(
            f"matrix not symmetric (max |H - H^T| = {asym:.3e})"
        )
    return 0.5 * (h + h.T)


def lex_positive(v: np.ndarray) -> np.ndarray:
    """Flip the sign of v so its first significantly nonzero entry is positive."""
    v = np.asarray(v, dtype=float)
    thresh = 1e-12 * max(1.0, float(np.linalg.norm(v)))
    for x in v:
        if abs(x) > thresh:
            return -v if x < 0 else v
    return v


def min_eigenpair(h: np.ndarray):
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix.

    The eigenvector sign is normalized so its first nonzero entry is positive.
    """
    hs = check_symmetric(h)
    w, v = np.linalg.eigh(hs)
    vec = lex_positive(v[:, 0])
    return float(w[0]), vec


def solve_saddle_system(a, b, rhs) -> np.ndarray:
    """Solve the symmetric saddle-point system [[A, B^T], [B, 0]] z = rhs.

    ``a`` is the symmetric top-left block (m x m), ``b`` the coupling block
    (k x m) and ``rhs`` the full right-hand side of length m + k.
    Near-singular systems are retried once with a small inertia-preserving
    ridge; anything worse raises SingularSystemError.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m = a.shape[0]
    if a.shape[1] != m:
        raise ContractViolationError("A block must be square")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[1] != m:
        raise ContractViolationError("B block has inconsistent column count")
    k = b.shape[0]
    kkt = np.zeros((m + k, m + k))
    kkt[:m, :m] = a
    kkt[m:, :m] = b
    kkt[:m, m:] = b.T
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (m + k,):
        raise ContractViolationError("rhs length inconsistent with blocks")

    scale = max(1.0, float(np.linalg.norm(rhs)))

    def attempt(mat):
        try:
            # The residual is verified below, so scipy's conditioning warning
            # is redundant noise here.
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                sol = scipy.linalg.solve(mat, rhs, assume_a="sym")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None
        if not np.all(np.isfinite(sol)):
            return None
        if np.linalg.norm(kkt @ sol - rhs) > SADDLE_RESIDUAL_TOL * scale:
            return None
        return sol

    sol = attempt(kkt)
    if sol is None:
        # Ridge fallback: +ridge on the A block, -ridge on the zero block,
        # which preserves the saddle inertia.
        ridge = 1e-12 * max(1.0, float(np.linalg.norm(np.diag(kkt))))
        reg = kkt + ridge * np.diag(np.concatenate([np.ones(m), -np.ones(k)]))
        sol = attempt(reg)
    if sol is None:
        raise SingularSystemError(
            f"{m + k}x{m + k} saddle system singular beyond regularization"
        )
    return sol
