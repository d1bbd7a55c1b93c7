"""Trust-region subproblem solvers in subspace coordinates.

Provides the certified Cauchy (steepest-descent) and negative-curvature
steps, an exact solver built on the model's one eigendecomposition of its
Hessian, and the acceptance ratio. All steps respect the ball constraint and
carry directly verified decrease flags.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError
from .interp import SubspaceModel
from .numerics import lex_positive

# Certificate slack, a pure roundoff allowance.
CERT_SLACK = 1e-12

# Smallest positive normal double; a squared norm below it has lost precision.
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TrsResult:
    """A trust-region step with its predicted decrease and certificates."""

    step: np.ndarray
    predicted_decrease: float
    kind: str  # cauchy | eigen | refined
    certified_first_order: bool
    certified_second_order: bool


def _decrease(model: SubspaceModel, step: np.ndarray) -> float:
    return -float(model.gradient @ step + 0.5 * step @ (model.hessian @ step))


def _flags(dec: float, delta: float, gnorm: float, hnorm: float, tau: float):
    """Directly evaluate both decrease certificates for a given step."""
    slack = CERT_SLACK * max(1.0, abs(dec))
    first = gnorm > 0.0 and dec + slack >= 0.5 * gnorm * min(
        delta, gnorm / max(hnorm, 1.0)
    )
    second = tau > 0.0 and dec + slack >= 0.5 * tau * delta**2
    return first, second


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``, rescaled only when v.v is below the normal range.

    Otherwise it is sqrt(v.v), bit for bit. Below the range v.v is subnormal
    or zero and has lost digits, so the norm is taken of v / max|v| and
    scaled back. An overflowing v.v is left as it is: the callers drop the
    non-finite steps that result.
    """
    sq = float(v @ v)
    if not sq < _TINY:
        return math.sqrt(sq)
    big = float(np.abs(v).max()) if v.size else 0.0
    if big == 0.0:
        return 0.0
    u = v / big
    return big * math.sqrt(float(u @ u))


def _spectrum(model: SubspaceModel, delta: float):
    """The model's eigendecomposition of H plus the gradient norm, |H|_2 and tau."""
    if delta <= 0.0:
        raise ContractViolationError("delta must be positive")
    w, v = model.eig
    gnorm = _norm(model.gradient)
    hnorm = max(abs(float(w[0])), abs(float(w[-1]))) if w.size else 0.0
    tau = max(-float(w[0]), 0.0) if w.size else 0.0
    return w, v, gnorm, hnorm, tau


def _cauchy(model: SubspaceModel, delta: float, gnorm: float) -> np.ndarray:
    """Minimizer along the negative (nonzero) gradient within the ball."""
    g = model.gradient
    curv = float(g @ (model.hessian @ g))
    t_max = delta / gnorm
    t = t_max if curv <= 0.0 else min(gnorm**2 / curv, t_max)
    return -t * g


def _eigen(model: SubspaceModel, delta: float, v: np.ndarray, gnorm: float) -> np.ndarray:
    """Boundary step along the bottom eigenvector ``v[:, 0]``, signed downhill."""
    u = lex_positive(v[:, 0])
    inner = float(model.gradient @ u)
    if abs(inner) > 1e-12 * max(1.0, gnorm):
        u = -u if inner > 0 else u
    return delta * u


def _result(model: SubspaceModel, delta: float, step, kind: str, gnorm, hnorm, tau) -> TrsResult:
    dec = _decrease(model, step)
    return TrsResult(step, dec, kind, *_flags(dec, delta, gnorm, hnorm, tau))


def cauchy_step(model: SubspaceModel, delta: float) -> TrsResult:
    """Best step along the negative model gradient within the ball.

    A zero gradient yields a zero step with both certificates False; callers
    needing progress at such points must use eigen_step.
    """
    _w, _v, gnorm, hnorm, tau = _spectrum(model, delta)
    if gnorm == 0.0:
        return TrsResult(np.zeros(model.dim), 0.0, "cauchy", False, False)
    return _result(model, delta, _cauchy(model, delta, gnorm), "cauchy", gnorm, hnorm, tau)


def eigen_step(model: SubspaceModel, delta: float) -> TrsResult:
    """Boundary step along the most negative curvature direction.

    The sign is chosen so the gradient term does not increase the model;
    exact ties go to the lexicographically positive eigenvector. When the
    model Hessian has no negative curvature the step is zero and flagged.
    """
    _w, v, gnorm, hnorm, tau = _spectrum(model, delta)
    if tau == 0.0:
        return TrsResult(np.zeros(model.dim), 0.0, "eigen", False, False)
    return _result(model, delta, _eigen(model, delta, v, gnorm), "eigen", gnorm, hnorm, tau)


def _secular_root(c: np.ndarray, w: np.ndarray, lam_lo: float, delta: float) -> float:
    """Solve sum c_i / (w_i + lam)^2 = delta^2 for lam in (lam_lo, inf).

    ``c`` holds squared gradient components in the eigenbasis; the norm is
    strictly decreasing in lam, so a safeguarded Newton iteration on
    1/norm(lam) - 1/delta converges quickly from the bracketing interval.
    Returns NaN when no finite bracket above ``lam_lo`` is representable,
    which happens when g or H is huge relative to delta.
    """
    target = delta * delta

    def n2(lam):
        d = w + lam
        val = float((c / (d * d)).sum())
        return val if math.isfinite(val) else math.inf

    hi = lam_lo + max(1.0, math.sqrt(float(c.sum())) / delta)
    with np.errstate(divide="ignore", over="ignore"):
        while lam_lo < hi < math.inf and n2(hi) > target:
            hi = lam_lo + 2.0 * (hi - lam_lo)
    if not lam_lo < hi < math.inf:
        return math.nan
    lo = lam_lo
    lam = hi
    for _ in range(100):
        d = w + lam
        dd = d * d
        n2v = float((c / dd).sum())
        nv = math.sqrt(n2v)
        if abs(nv - delta) <= 1e-13 * delta or n2v * nv == 0.0:  # converged or underflowed
            break
        if nv > delta:
            lo = lam
        else:
            hi = lam
        # Newton on phi(lam) = 1/nv - 1/delta; phi' = sum c/(w+lam)^3 / nv^3
        dphi = float((c / (dd * d)).sum()) / (n2v * nv)
        if dphi <= 0.0:
            lam = 0.5 * (lo + hi)
            continue
        step = (1.0 / nv - 1.0 / delta) / dphi
        lam_new = lam - step
        if not (lo < lam_new < hi):
            lam_new = 0.5 * (lo + hi)
        if lam_new == lam:
            break
        lam = lam_new
    return lam


def _exact_trs_eig(g: np.ndarray, w: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    """Global ball minimizer from a precomputed eigendecomposition of H."""
    p = g.size
    gt = v.T @ g
    gscale = max(1.0, math.sqrt(gt @ gt))
    lam_bar = max(0.0, -float(w[0]))

    if w[0] > 0:
        s0 = -gt / w
        if float(s0 @ s0) <= delta * delta:
            return v @ s0

    active = np.abs(w + lam_bar) <= 1e-12 * max(1.0, abs(float(w[0])))
    gta = gt[active]
    if math.sqrt(gta @ gta) <= 1e-13 * gscale:
        s_in = np.zeros(p)
        inactive = ~active
        s_in[inactive] = -gt[inactive] / (w[inactive] + lam_bar)
        nrm2 = float(s_in @ s_in)
        if nrm2 <= delta * delta:
            if lam_bar == 0.0:
                return v @ s_in  # singular PSD case, interior solution
            # Hard case: fill to the boundary along the bottom eigenvector.
            fill = math.sqrt(max(delta * delta - nrm2, 0.0))
            u = lex_positive(v[:, 0])
            base = v @ s_in
            plus, minus = base + fill * u, base - fill * u
            mp = float(g @ plus)
            mm = float(g @ minus)
            return plus if mp <= mm else minus  # curvature terms are equal

    lam = _secular_root(gt * gt, w, lam_bar, delta)
    s = -gt / (w + lam)
    return v @ s


# Huge models overflow; the non-finite decreases that result are dropped below.
@np.errstate(over="ignore", invalid="ignore")
def solve_trs(model: SubspaceModel, delta: float, mode: str = "first_order") -> TrsResult:
    """Approximate ball minimizer dominating the certified elementary steps.

    In first_order mode the result's decrease dominates the Cauchy step's;
    in second_order mode it dominates both the Cauchy and the
    negative-curvature step. The exact ball minimizer, from the model's
    eigendecomposition, is kept only when it improves the decrease. Steps
    whose decrease overflows are dropped; with no finite positive decrease
    left, the step is zero.
    """
    if mode not in ("first_order", "second_order"):
        raise ContractViolationError(f"unknown TRS mode {mode!r}")
    w, v, gnorm, hnorm, tau = _spectrum(model, delta)

    candidates = []
    if gnorm > 0.0:
        candidates.append((_cauchy(model, delta, gnorm), "cauchy"))
    if mode == "second_order" and tau > 0.0:
        candidates.append((_eigen(model, delta, v, gnorm), "eigen"))
    if candidates:
        refined = _exact_trs_eig(model.gradient, w, v, delta)
        nrm = _norm(refined)
        if nrm > delta:  # roundoff only; never violate the ball
            refined = refined * (delta / nrm)
        candidates.append((refined, "refined"))

    results = [_result(model, delta, step, kind, gnorm, hnorm, tau) for step, kind in candidates]
    finite = [r for r in results if math.isfinite(r.predicted_decrease)]
    best = max(finite, key=lambda r: r.predicted_decrease, default=None)
    if best is None or best.predicted_decrease <= 0.0:
        return TrsResult(np.zeros(model.dim), 0.0, "cauchy", False, False)
    return best


def decrease_ratio(f_current: float, f_trial: float, predicted_decrease: float) -> float:
    """Actual-over-predicted decrease ratio of a tentative step."""
    if not predicted_decrease > 0.0:
        raise ContractViolationError(
            "decrease ratio requires a strictly positive predicted decrease"
        )
    return (f_current - f_trial) / predicted_decrease
