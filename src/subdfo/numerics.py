"""Dense linear-algebra primitives shared by the whole package.

Everything here is pure and reentrant: orthonormalization, symmetric
eigensolves and saddle-point (KKT) solves on matrices of at most a few
hundred rows. The QR factorizations and the saddle solves call LAPACK
through ``scipy.linalg.lapack``, with the arguments SciPy's own wrappers
use, so they carry the wrappers' bits without their per-call overhead.
SciPy is imported on the first such call: ``run_rsdfo`` and ``run_rsdfo2``
never make one, and importing ``scipy.linalg`` costs more than the rest of
the package.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, EmptyBasisError, SingularSystemError

# Orthonormality tolerance enforced on every Basis instance.
BASIS_ORTHO_TOL = 1e-12


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
        if not np.isfinite(q).all():
            raise ContractViolationError("basis columns must be finite")
        if self.frame is not None and self.frame.shape[0] != q.shape[0]:
            raise ContractViolationError("basis coordinates do not match the frame")
        gram_err = identity_error(q.T @ q)
        if gram_err > BASIS_ORTHO_TOL:
            raise ContractViolationError(
                f"basis columns not orthonormal (max |Q^T Q - I| = {gram_err:.3e})"
            )
        object.__setattr__(self, "coords", q)
        object.__setattr__(self, "gram_error", gram_err)

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


def identity_error(g: np.ndarray) -> float:
    """max |g - I| of a square array g, which it may overwrite.

    The same value as ``np.max(np.abs(g - np.eye(len(g))))``, NaN included:
    1 is subtracted from the diagonal in place, and no identity is formed.
    """
    d = g.reshape(-1)  # a view of a contiguous g, else a copy: d holds the values
    d[:: len(g) + 1] -= 1.0
    return float(np.abs(d, out=d).max())


@cache
def _strict_lower(shape) -> np.ndarray:
    """Read-only boolean mask of the strict lower triangle of a ``shape`` array."""
    mask = np.tri(*shape, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def upper_triangle(a: np.ndarray) -> np.ndarray:
    """``np.triu(a)`` of a 2-D float array: a C-order copy, strict lower triangle zeroed.

    The mask is cached per shape, which saves ``np.triu``'s ``np.tri`` and
    ``np.where`` calls; the values and the C order are the same.
    """
    r = np.array(a, order="C")
    r[_strict_lower(r.shape)] = 0.0
    return r


@cache
def _lapack():
    """The ``scipy.linalg.lapack`` module, imported on first use."""
    from scipy.linalg import lapack

    return lapack


@cache
def _qr_lwork(m: int, n: int):
    """The workspace sizes SciPy queries for ``geqrf`` and ``orgqr`` on an m x n matrix."""
    k = min(m, n)
    lapack = _lapack()
    work = lapack.dgeqrf(np.zeros((m, n), order="F"), lwork=-1)[2]
    work_q = lapack.dorgqr(np.zeros((m, k), order="F"), np.zeros(k), lwork=-1)[1]
    return int(work[0]), int(work_q[0])


def economic_qr(a: np.ndarray):
    """Economic QR factorization a = Q R of a float m x n array, without finiteness checks.

    Calls LAPACK ``dgeqrf``/``dorgqr`` with the workspace sizes that
    ``scipy.linalg.qr(a, mode="economic")`` queries, which it caches per
    shape, so Q (m x min(m, n), Fortran order) and R carry SciPy's bits
    without its per-call overhead. ``a`` is not modified.
    """
    m, n = a.shape
    lwork, lwork_q = _qr_lwork(m, n)
    lapack = _lapack()
    qr, tau, _, info = lapack.dgeqrf(a, lwork=lwork)
    if m < n:
        r, qr = upper_triangle(qr), qr[:, :m]
    else:
        r = upper_triangle(qr[:n])
    q, _, info_q = lapack.dorgqr(qr, tau, lwork=lwork_q, overwrite_a=1)
    if info or info_q:
        raise ContractViolationError(f"QR of a {m}x{n} matrix failed (info {info}, {info_q})")
    return q, r


def orthonormal_basis(vectors) -> Basis:
    """Orthonormalize a sequence of n-vectors, dropping dependent ones.

    ``vectors`` is a list of n-vectors or a (k, n) array whose rows are the
    vectors. Uses Householder QR with signs fixed so the result matches
    Gram-Schmidt orientation. A vector whose residual against the preceding
    ones falls below 1e-10 times its input norm is dependent. Only the
    first such vector is dropped before the factorization is redone: the
    Householder step of a dependent vector is the identity, so a later
    vector's diagonal entry can be 0 although the vector is independent
    (e1, 2 e1, e2 has rank 2). Vectors past the n-th are dropped together
    once the first n are independent. Raises EmptyBasisError when nothing
    survives.

    This is the only factorization of ``run_rsdfoq``'s primary directions,
    in the interpolation set's frame coordinates
    (``InterpolationSet.frame_directions``). ``add_orthogonal_points``
    calls it once per call, and the set holds the result with the drawn
    directions appended as known columns; the read at the start of the
    next iteration (``InterpolationSet.held_basis``) calls it again only
    when the primary set has changed since.

    Bit contract: the factorization is ``economic_qr`` of the n x k matrix,
    LAPACK ``geqrf``/``orgqr`` with SciPy's workspace sizes. It gives the
    bits of ``scipy.linalg.qr`` in economic mode and of ``np.linalg.qr``,
    and the sign-fixed Q is returned in C order. The memory order of Q
    decides the bits of every later product with it, so solver records
    depend on both choices.
    """
    rows = np.asarray(vectors, dtype=float)
    if len(rows) == 0:
        raise EmptyBasisError("no input vectors")
    if not np.isfinite(rows).all():
        raise ContractViolationError("input vectors must be finite")
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    live = norms > 0.0
    if not live.all():
        rows, norms = rows[live], norms[live]
    while len(rows) > 0:
        q, r = economic_qr(rows.T)
        diag = r.diagonal()
        ok = np.abs(diag) > 1e-10 * norms[: diag.size]
        if not ok.all():
            drop = ok.argmin()  # the first dependent vector
        elif len(rows) > diag.size:
            drop = slice(diag.size, None)
        else:
            signs = np.where(diag < 0, -1.0, 1.0)
            return Basis(np.multiply(q, signs, order="C"))
        rows, norms = np.delete(rows, drop, axis=0), np.delete(norms, drop)
    raise EmptyBasisError("all input vectors are numerically zero or dependent")


def check_symmetric(h: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix that is symmetric up to roundoff."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[0] != h.shape[1]:
        raise ContractViolationError("matrix must be square")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)
    asym = float(np.abs(h - h.T).max()) if h.size else 0.0
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


@cache
def _sytrf_lwork(order: int) -> int:
    """The optimal ``sytrf`` workspace, as ``scipy.linalg.solve(assume_a="sym")`` uses it."""
    return int(_lapack().dsytrf_lwork(order, lower=0)[0])


def solve_saddle_system(a, b, rhs) -> np.ndarray:
    """Solve the symmetric saddle-point system [[A, B^T], [B, 0]] z = rhs.

    ``a`` is the symmetric top-left block (m x m), ``b`` the coupling block
    (k x m) and ``rhs`` the full right-hand side of length m + k.

    The system is factored once with LAPACK ``dsytrf`` (upper triangle,
    optimal workspace) and solved with ``dsytrs``, which gives the bits of
    ``scipy.linalg.solve(assume_a="sym")``. Raises SingularSystemError only
    when the factorization meets an exactly singular pivot or the solution
    is not finite. There is no residual check and no retry with a ridge:
    whether the solution is accurate enough is the caller's decision
    (``interp.build_mfn_model`` checks its interpolation residuals).
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

    lapack = _lapack()
    with np.errstate(all="ignore"):
        ldu, piv, info = lapack.dsytrf(kkt, lower=0, lwork=_sytrf_lwork(m + k))
        if info == 0:
            sol, info = lapack.dsytrs(ldu, piv, rhs, lower=0)
    if info != 0 or not np.isfinite(sol).all():
        raise SingularSystemError(f"{m + k}x{m + k} saddle system singular")
    return sol
