"""Random subspace maps and well-alignedness diagnostics.

Generates the n x p sketch matrices used to restrict each solver iteration
to a random subspace, and checks the alignment conditions (gradient capture,
leftmost-eigenvector capture, eigenvector cross terms) against derivative
oracles, along with the associated positivity margin of the second-order
theory.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .exceptions import ContractViolationError
from .seeding import derive_rng, derive_seed

SKETCH_KINDS = ("gaussian", "scaled_orthonormal", "identity")

# Eigenvalues below this fraction of the Hessian norm are treated as zero
# when determining the numerical rank r.
HESSIAN_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SketchMatrix:
    """An n x p subspace map together with its generation recipe."""

    map: np.ndarray
    kind: str
    seed: Optional[int]  # None when drawn from a caller's Generator

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.map, dtype=float))
        if not np.isfinite(m).all():
            raise ContractViolationError("sketch entries must be finite")
        if self.kind not in SKETCH_KINDS:
            raise ContractViolationError(f"unknown sketch kind {self.kind!r}")
        object.__setattr__(self, "map", m)


def _check_dims(n: int, p: int):
    if p < 1 or p > n:
        raise ContractViolationError(f"need 1 <= p <= n, got p={p}, n={n}")


def _source(seed: Union[int, np.random.Generator], key: str):
    """The Generator to draw from and the seed to record.

    A Generator is drawn from as it is, and no seed is recorded. An int seed
    gets a fresh Generator of its own, derived from (seed, key).
    """
    if isinstance(seed, np.random.Generator):
        return seed, None
    return derive_rng(seed, key), int(seed)


def gaussian_sketch(n: int, p: int, seed: Union[int, np.random.Generator]) -> SketchMatrix:
    """Sketch with independent N(0, 1/p) entries."""
    _check_dims(n, p)
    rng, seed = _source(seed, "gaussian")
    mat = rng.standard_normal((n, p))
    mat /= math.sqrt(p)  # in place: the bits of mat / sqrt(p)
    return SketchMatrix(mat, "gaussian", seed)


def scaled_orthonormal_sketch(
    n: int, p: int, seed: Union[int, np.random.Generator]
) -> SketchMatrix:
    """First p columns of a Haar-random orthogonal matrix, scaled by sqrt(n/p).

    Drawn as the sign-fixed QR factor of an n x p Gaussian matrix, which has
    the same distribution as the leading columns of a Haar orthogonal matrix.
    """
    _check_dims(n, p)
    rng, seed = _source(seed, "orthonormal")
    g = rng.standard_normal((n, p))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix signs for the Haar distribution
    return SketchMatrix(q * math.sqrt(n / p), "scaled_orthonormal", seed)


def identity_sketch(n: int) -> SketchMatrix:
    """Full-space map (p = n); turns the subspace solvers into classical ones."""
    return SketchMatrix(np.eye(n), "identity", 0)


def make_sketch(
    kind: str, n: int, p: int, seed: Union[int, np.random.Generator]
) -> SketchMatrix:
    """One n x p sketch of the given kind.

    ``seed`` is an int or a Generator, as for ``np.random.default_rng``. An
    int gives the same map on every call; a Generator gives its next draw,
    so a run that holds one Generator draws a new map per call.
    """
    if kind == "gaussian":
        return gaussian_sketch(n, p, seed)
    if kind == "scaled_orthonormal":
        return scaled_orthonormal_sketch(n, p, seed)
    if kind == "identity":
        if p != n:
            raise ContractViolationError("identity sketch requires p = n")
        return identity_sketch(n)
    raise ContractViolationError(f"unknown sketch kind {kind!r}")


def default_p_max(n: int, p: int) -> float:
    """Default operator-norm bound used by the alignment diagnostics."""
    return 2.0 * math.sqrt(n / p)


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of the four alignment conditions for one sketch.

    ``hessian_rank`` is the numerical rank r used for the eigenvector
    conditions; r = 0 means those conditions were vacuously true.
    """

    norm_bound_ok: bool
    gradient_ok: bool
    eigvec_ok: bool
    cross_terms_ok: bool
    alpha: float
    p_max: float
    worst_cross_term: float
    hessian_rank: int

    @property
    def passed(self) -> bool:
        return (
            self.norm_bound_ok
            and self.gradient_ok
            and self.eigvec_ok
            and self.cross_terms_ok
        )


def _retained_eigenpairs(hess: np.ndarray):
    """Eigenpairs above the rank cutoff, sorted by descending eigenvalue."""
    hess = 0.5 * (hess + hess.T)
    w, v = np.linalg.eigh(hess)
    hnorm = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > HESSIAN_RANK_TOL * hnorm
    w, v = w[keep], v[:, keep]
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def is_well_aligned(sketch, grad, hess, alpha: float, p_max: float) -> AlignmentReport:
    """Check the four alignment conditions of one sketch against oracles.

    Conditions: operator norm within ``p_max``; at least a (1 - alpha)
    fraction of the gradient norm captured; at least 1 - alpha of the
    leftmost retained Hessian eigenvector captured; squared cross terms
    between the sketched leading eigenvectors and the sketched leftmost one
    at most 4 alpha^2.
    """
    if not (0.0 < alpha < 1.0):
        raise ContractViolationError("alpha must lie in (0, 1)")
    p_mat = sketch.map if isinstance(sketch, SketchMatrix) else np.asarray(sketch, float)
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ContractViolationError("gradient must be finite")
    hess = np.atleast_2d(np.asarray(hess, dtype=float))
    if np.max(np.abs(hess - hess.T)) > 1e-10 * max(1.0, np.max(np.abs(hess))):
        raise ContractViolationError("Hessian must be symmetric")

    norm_ok = bool(np.linalg.norm(p_mat, 2) <= p_max)
    grad_ok = bool(
        np.linalg.norm(p_mat.T @ grad) >= (1.0 - alpha) * np.linalg.norm(grad)
    )

    w, v = _retained_eigenpairs(hess)
    r = w.size
    if r == 0:
        return AlignmentReport(norm_ok, grad_ok, True, True, alpha, p_max, 0.0, 0)

    v_r_hat = p_mat.T @ v[:, -1]  # smallest retained eigenvalue is last
    eigvec_ok = bool(np.linalg.norm(v_r_hat) >= 1.0 - alpha)
    worst = 0.0
    for i in range(r - 1):
        worst = max(worst, abs(float((p_mat.T @ v[:, i]) @ v_r_hat)))
    cross_ok = bool(worst**2 <= 4.0 * alpha**2)
    return AlignmentReport(norm_ok, grad_ok, eigvec_ok, cross_ok, alpha, p_max, worst, r)


@dataclass(frozen=True)
class ThetaMargin:
    """Positivity margin of the second-order subspace criticality bound."""

    alpha: float
    hessian_bound_M: float
    rank_r: int
    epsilon: float
    theta: float

    @property
    def positive(self) -> bool:
        return self.theta > 0.0


def theta_margin(alpha: float, m_bound: float, r: int, epsilon: float) -> ThetaMargin:
    """theta = (1 - alpha)^2 - 4 M (r - 1) alpha^2 / (eps (1 - alpha)^2)."""
    if not (0.0 <= alpha < 1.0):
        raise ContractViolationError("alpha must lie in [0, 1)")
    if epsilon <= 0.0:
        raise ContractViolationError("epsilon must be positive")
    if m_bound < 0.0:
        raise ContractViolationError("Hessian bound M must be nonnegative")
    if r < 1:
        raise ContractViolationError("rank r must be at least 1")
    theta = (1.0 - alpha) ** 2 - 4.0 * m_bound * (r - 1) * alpha**2 / (
        epsilon * (1.0 - alpha) ** 2
    )
    return ThetaMargin(alpha, m_bound, int(r), epsilon, float(theta))


def estimate_alignment_probability(
    kind: str,
    n: int,
    p: int,
    grad,
    hess,
    alpha: float,
    p_max: float,
    trials: int,
    seed: int,
) -> float:
    """Fraction of freshly drawn sketches passing all four alignment conditions.

    Each trial derives its own seed from (seed, trial index), so the estimate
    is deterministic and order-independent.
    """
    if trials < 1:
        raise ContractViolationError("need at least one trial")
    passes = 0
    for t in range(trials):
        sk = make_sketch(kind, n, p, derive_seed(seed, "align", t))
        if is_well_aligned(sk, grad, hess, alpha, p_max).passed:
            passes += 1
    return passes / trials


def verify_polarization_bound(sketch, v_i, v_r, alpha: float) -> bool:
    """Check the norm-preservation conditions and the implied cross-term bound.

    Returns True iff the sketch preserves the norms of v_i, v_r, v_i + v_r
    and v_i - v_r within a factor 1 +/- alpha. Whenever those conditions
    hold, asserts the polarization consequence |<P^T v_i, P^T v_r>| <= 2 alpha
    (up to 1e-12), which is a mathematical identity for orthonormal inputs.
    """
    p_mat = sketch.map if isinstance(sketch, SketchMatrix) else np.asarray(sketch, float)
    v_i = np.asarray(v_i, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    if abs(np.linalg.norm(v_i) - 1.0) > 1e-10 or abs(np.linalg.norm(v_r) - 1.0) > 1e-10:
        raise ContractViolationError("v_i and v_r must be unit vectors")
    if abs(float(v_i @ v_r)) > 1e-10:
        raise ContractViolationError("v_i and v_r must be orthogonal")

    ok = True
    for w in (v_i, v_r, v_i + v_r, v_i - v_r):
        nw = np.linalg.norm(w)
        nhat = np.linalg.norm(p_mat.T @ w)
        if not ((1.0 - alpha) * nw <= nhat <= (1.0 + alpha) * nw):
            ok = False
            break
    if ok:
        inner = abs(float((p_mat.T @ v_i) @ (p_mat.T @ v_r)))
        assert inner <= 2.0 * alpha + 1e-12, (
            f"polarization bound violated: |inner| = {inner} > 2*alpha = {2 * alpha}"
        )
    return ok
