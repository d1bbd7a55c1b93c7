"""Interpolation sets, subspace quadratic models and model-quality certificates.

Maintains the primary/secondary point sets, projects secondary points into
the current subspace, and builds quadratic models either by
minimum-Frobenius-norm (MFN) interpolation against a reference Hessian or by
fully determined quadratic interpolation. Also provides linear Lagrange
polynomials for geometry management and empirical certificates for the
model-error scaling laws.
"""

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import (
    ContractViolationError,
    DegenerateGeometryError,
    ModelConstructionError,
    SingularSystemError,
)
from .numerics import BASIS_ORTHO_TOL, Basis, check_symmetric, solve_saddle_system
from .seeding import derive_rng

logger = logging.getLogger(__name__)

INTERP_RESIDUAL_TOL = 1e-9  # relative interpolation residual accepted
KKT_RESIDUAL_TOL = 1e-8  # optimality certificate for the MFN solve
LAGRANGE_TOL = 1e-8  # cardinality-condition tolerance


class _RowStack:
    """Rows of a (len, n) array kept contiguous, in insertion order.

    Rows live in a preallocated buffer: appending copies the row in, popping
    the first row only moves the start, and the buffer is compacted or
    doubled when the end is reached.
    """

    def __init__(self, n: int, capacity: int):
        self._buf = np.empty((max(capacity, 1), n))
        self._start = self._stop = 0

    @property
    def rows(self) -> np.ndarray:
        """The rows as one C-contiguous array, aliasing the buffer."""
        return self._buf[self._start : self._stop]

    def append(self, row):
        if self._stop == len(self._buf):
            rows = self.rows
            if self._start == 0:
                self._buf = np.empty((2 * len(self._buf), self._buf.shape[1]))
            self._buf[: len(rows)] = rows
            self._start, self._stop = 0, len(rows)
        self._buf[self._stop] = row
        self._stop += 1

    def pop(self, index: int):
        if index == 0:
            self._start += 1
        else:
            i = self._start + index
            self._buf[i : self._stop - 1] = self._buf[i + 1 : self._stop]
            self._stop -= 1


@dataclass
class _Factor:
    """Economic QR factor ``q @ r`` of primary offsets from an anchor.

    Column j of ``q @ r`` is the offset of the primary point with id
    ``ids[j]`` from ``anchor``, a copy of the primary point with id
    ``anchor_id``. ``ids`` lists the other primary points in stored order.
    """

    q: np.ndarray
    r: np.ndarray
    ids: list
    anchor_id: int
    anchor: np.ndarray


class InterpolationSet:
    """Primary and secondary interpolation points with cached values.

    The primary set always contains the base point (current iterate); the
    secondary set holds up to ``q - p - 1`` previously demoted points in
    demotion order, so the oldest is discarded first on overflow.

    ``primary`` and ``secondary`` are (len, n) arrays whose rows are the
    points in stored order. They alias the set's storage, so they are valid
    only until the set next changes; ``base`` is a copy.

    The set can hold a QR factor of its primary directions (see
    ``updated_basis`` and ``hold_basis``). The factor is anchored at one
    primary point, not at the base: while that point stays in the set, a
    moved base leaves the factor as it is. Changes to the primary set are
    applied to it only when it is next read. The set also keeps the
    subspace coordinates of its primary points in the basis it last
    returned, through later demotions and points added with known
    coordinates (``primary_coords``).
    """

    def __init__(self, base, base_value: float, p: int, q: int):
        if q < p + 1:
            raise ContractViolationError("need q >= p + 1")
        self.p = int(p)
        self.q = int(q)
        base = np.asarray(base, dtype=float)
        self._primary = _RowStack(base.shape[0], self.p + 2)
        self._primary.append(base)
        self.primary_values = [float(base_value)]
        self.base_index = 0
        self._secondary = _RowStack(base.shape[0], 2 * self.secondary_capacity)
        self.secondary_values = []
        # A distinct id per primary point, in stored order; the held factor
        # names its columns by these ids.
        self._ids = [0]
        self._next_id = 1
        self._factor: Optional[_Factor] = None
        # (basis, z): row t of z is Q^T (primary[t] - o) for one fixed origin
        # o, with Q = basis.columns.
        self._coords: Optional[tuple] = None

    @property
    def primary(self) -> np.ndarray:
        return self._primary.rows

    @property
    def secondary(self) -> np.ndarray:
        return self._secondary.rows

    @property
    def base(self) -> np.ndarray:
        return self.primary[self.base_index].copy()

    @property
    def base_value(self) -> float:
        return self.primary_values[self.base_index]

    @property
    def secondary_capacity(self) -> int:
        return max(0, self.q - self.p - 1)

    def add_primary(self, point, value: float, coords=None):
        """Add a primary point.

        ``coords``, when given, are the point's coordinates Q^T (point -
        base) in the basis the set last returned (a trust-region step: the
        point is base + Q coords); they keep ``primary_coords`` free of
        products with Q.
        """
        self._primary.append(point)
        self.primary_values.append(float(value))
        self._ids.append(self._next_id)
        self._next_id += 1
        if self._coords is not None:
            if coords is None:
                self._coords = None
            else:
                basis, z = self._coords
                self._coords = (basis, np.vstack([z, z[self.base_index] + coords]))

    def add_orthogonal(self, directions: np.ndarray, lengths, values):
        """Add the points base + lengths[j] * directions[:, j] with their values.

        ``directions`` are orthonormal columns orthogonal to the span of the
        held factor. When the factor has no pending change they are appended
        to it as they are: R gains the base's column above a diagonal of
        ``lengths``. The next ``updated_basis`` checks them with the rest.
        """
        f, base, base_id = self._factor, self.base, self._ids[self.base_index]
        current = f is not None and set(self._ids) == set(f.ids) | {f.anchor_id}
        for j, (length, value) in enumerate(zip(lengths, values)):
            self.add_primary(base + length * directions[:, j], value)
        if current and len(lengths):
            k, m = len(f.ids), len(lengths)
            r = np.zeros((k + m, k + m))
            r[:k, :k] = f.r
            if base_id != f.anchor_id:
                r[:k, k:] = f.r[:, f.ids.index(base_id), None]
            r[k:, k:] = np.diag(lengths)
            f.q, f.r = np.hstack([f.q, directions]), r
            f.ids += self._ids[-m:]

    def contains_primary(self, point) -> bool:
        """Whether a primary point lies within 1e-14 max(1, ||point||) of ``point``."""
        point = np.asarray(point, dtype=float)
        scale = max(1.0, float(np.linalg.norm(point)))
        diffs = self.primary - point
        return bool(np.min(np.einsum("ij,ij->i", diffs, diffs)) <= (1e-14 * scale) ** 2)

    def move_to_secondary(self, index: int):
        """Demote primary point ``index`` to the secondary set (never the base)."""
        if index == self.base_index:
            raise ContractViolationError("cannot demote the base point")
        self._secondary.append(self.primary[index])
        self.secondary_values.append(self.primary_values.pop(index))
        self._primary.pop(index)
        del self._ids[index]
        if index < self.base_index:
            self.base_index -= 1
        if self._coords is not None:
            basis, z = self._coords
            self._coords = (basis, np.delete(z, index, axis=0))
        while len(self.secondary_values) > self.secondary_capacity:
            self._secondary.pop(0)
            self.secondary_values.pop(0)

    def recenter_to_best(self):
        """Move the base marker to the primary point with smallest value."""
        self.base_index = int(np.argmin(self.primary_values))

    def primary_directions(self) -> np.ndarray:
        """Offsets of the non-base primary points from the base, one per row."""
        pts, b = self.primary, self.base_index
        out = np.empty((len(pts) - 1, pts.shape[1]))
        np.subtract(pts[:b], pts[b], out=out[:b])
        np.subtract(pts[b + 1 :], pts[b], out=out[b:])
        return out

    def primary_coords(self, basis: Basis) -> np.ndarray:
        """Coordinates Q^T (y - base) of the primary points, one row each.

        For the basis that ``updated_basis`` or ``hold_basis`` last returned
        they come from the set's own record, O(p^2); for any other basis
        they are computed as (primary - base) @ Q.
        """
        if self._coords is not None and self._coords[0] is basis:
            z = self._coords[1]
            return z - z[self.base_index]
        return (self.primary - self.primary[self.base_index]) @ basis.columns

    def hold_basis(self, basis: Basis) -> Basis:
        """Hold the factor of a fresh ``orthonormal_basis(primary_directions())``.

        The factor is anchored at the base, and R is read off as the upper
        triangle of Q^T D. A basis that dropped a dependent direction is not
        held, so the next read refactors again.
        """
        dirs = self.primary_directions()
        q, b = basis.columns, self.base_index
        qtd = q.T @ dirs.T
        if basis.rank == len(dirs):
            ids = self._ids[:b] + self._ids[b + 1 :]
            self._factor = _Factor(q, np.triu(qtd), ids, self._ids[b], self.base)
        self._coords = (basis, np.insert(qtd.T, b, 0.0, axis=0))
        return basis

    def updated_basis(self) -> Optional[Basis]:
        """Basis of the held factor after the changes since it was last read.

        Applies the changes as ``updated_span`` does, then checks the
        columns with ``Basis``, and records the primary coordinates from R.
        Returns None, and drops the factor, when ``updated_span`` does or
        when max |Q^T Q - I| exceeds half of BASIS_ORTHO_TOL. The caller then
        refactors from scratch and calls ``hold_basis``.
        """
        f = self._updated_factor()
        if f is None:
            return None
        try:
            basis = Basis(f.q)
        except ContractViolationError:
            basis = None
        if basis is None or basis.gram_error > 0.5 * BASIS_ORTHO_TOL:
            self._factor = None
            return None
        # Column j of R holds the coordinates of point ids[j] from the
        # anchor, whose own are zero.
        self._coords = (basis, np.insert(f.r.T, self._ids.index(f.anchor_id), 0.0, axis=0))
        return basis

    def updated_span(self) -> Optional[np.ndarray]:
        """Columns Q of the held factor after the pending changes, unchecked.

        Points that left the primary set are deleted first, one
        ``scipy.linalg.qr_delete`` per run of adjacent columns; when the
        anchor itself has left, the base becomes the anchor through one
        rank-one update. New points are then inserted. Returns None, and
        drops the factor, when there is none, when no held column is left to
        update, when there are more directions than dimensions, or when a
        direction is dependent (SciPy rejects it, or it fails the drop rule
        of ``orthonormal_basis``: |r_jj| <= 1e-10 ||d_j||).
        """
        f = self._updated_factor()
        return None if f is None else f.q

    def _updated_factor(self) -> Optional[_Factor]:
        f, self._factor = self._factor, None
        if f is None:
            return None
        try:
            if not self._update(f):
                return None
        except np.linalg.LinAlgError:
            return None
        col_norms = np.sqrt(np.einsum("ij,ij->j", f.r, f.r))
        if np.any(np.abs(np.diag(f.r)) <= 1e-10 * col_norms):
            return None
        self._factor = f
        return f

    def _update(self, f: _Factor) -> bool:
        """Apply the pending changes to ``f``; False when that is not possible."""
        ids = self._ids
        live = set(ids)
        base_id = ids[self.base_index]
        # Deletions come first: a trial direction lies in the old span. When
        # the anchor has left, the base's column goes too.
        anchor_left = f.anchor_id not in live
        keep = live - {base_id} if anchor_left else live
        drop = [j for j, i in enumerate(f.ids) if i not in keep]
        if len(drop) == len(f.ids):
            return False
        runs = []
        for j in drop:
            if runs and runs[-1][0] + runs[-1][1] == j:
                runs[-1][1] += 1
            else:
                runs.append([j, 1])
        for j, count in reversed(runs):
            f.q, f.r = scipy.linalg.qr_delete(
                f.q, f.r, j, count, which="col", check_finite=False
            )
        f.ids = [i for i in f.ids if i in keep]
        # A square Q is read as a full factorization, which keeps all n
        # columns of Q; the held factor is the economic part.
        f.q, f.r = f.q[:, : len(f.ids)], f.r[: len(f.ids)]
        if anchor_left:
            # Every column y - anchor becomes y - base.
            base = self.base
            f.q, f.r = scipy.linalg.qr_update(
                f.q, f.r, f.anchor - base, np.ones(len(f.ids)), check_finite=False
            )
            f.anchor, f.anchor_id = base, base_id
        known = set(f.ids)
        known.add(f.anchor_id)
        new = [t for t, i in enumerate(ids) if i not in known]
        if len(f.ids) + len(new) > len(f.anchor):
            return False  # more directions than dimensions: some are dependent
        if new:
            u = (self.primary[new] - f.anchor).T
            f.q, f.r = scipy.linalg.qr_insert(
                f.q, f.r, u, len(f.ids), which="col", check_finite=False
            )
            f.ids += [ids[t] for t in new]
        return True


@dataclass
class SubspaceModel:
    """Quadratic model c + g^T s + 0.5 s^T H s over subspace coordinates.

    ``base`` and ``map`` locate the subspace in full space (x = base + map @ s);
    both may be None for a pure coordinate-space model. Non-finite
    coefficients raise ModelConstructionError. ``eig`` is cached, so the
    Hessian must not be changed in place after it is read.
    """

    base: Optional[np.ndarray]
    map: Optional[np.ndarray]
    constant: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=float)
        h = np.asarray(self.hessian, dtype=float)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ModelConstructionError("model coefficients must be finite")
        self.gradient = g
        self.hessian = check_symmetric(h)
        self.constant = float(self.constant)
        if self.base is not None:
            self.base = np.asarray(self.base, dtype=float)
        if self.map is not None:
            self.map = np.atleast_2d(np.asarray(self.map, dtype=float))

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    @cached_property
    def eig(self):
        """Eigenvalues (ascending) and eigenvectors of the Hessian, computed once.

        Both arrays are read-only because every reader shares them.
        """
        try:
            w, v = np.linalg.eigh(self.hessian)
        except np.linalg.LinAlgError as err:
            raise ModelConstructionError(f"model Hessian: {err}") from err
        w.flags.writeable = v.flags.writeable = False
        return w, v

    def value(self, s_hat) -> float:
        s = np.asarray(s_hat, dtype=float)
        return float(self.constant + self.gradient @ s + 0.5 * s @ (self.hessian @ s))

    def gradient_at(self, s_hat) -> np.ndarray:
        return self.gradient + self.hessian @ np.asarray(s_hat, dtype=float)


def project_secondary(iset: InterpolationSet, basis: Basis):
    """Subspace coordinates Q^T (y - base) and cached values of secondary points."""
    if not len(iset.secondary):
        return []
    coords = (iset.secondary - iset.base) @ basis.columns
    return list(zip(coords, iset.secondary_values))


def _dedup_coords(coords, tol: float):
    """Indices of coordinates to keep, dropping near-duplicates of earlier ones.

    Greedy in order: a point is dropped when it lies within ``tol`` of an
    earlier point that was kept. Only points with some close earlier point
    can be dropped, so only those are visited.
    """
    pts = np.atleast_2d(np.asarray(coords))
    lower = np.tril_indices(len(pts), -1)
    diff = np.take(pts, lower[0], axis=0) - np.take(pts, lower[1], axis=0)
    close = np.zeros((len(pts), len(pts)), dtype=bool)
    close[lower] = np.sqrt(np.einsum("ij,ij->i", diff, diff)) < tol
    keep = np.ones(len(pts), dtype=bool)
    for j in np.flatnonzero(close.any(axis=1)):
        keep[j] = not np.any(close[j] & keep)
    return np.flatnonzero(keep)


def build_mfn_model(
    iset: InterpolationSet,
    basis: Basis,
    prev: Optional[SubspaceModel] = None,
    dedup_tol: Optional[float] = None,
    max_residual: Optional[float] = None,
    use_secondary: bool = True,
) -> SubspaceModel:
    """Minimum-Frobenius-norm quadratic interpolation over the current sets.

    Solves for the symmetric Hessian closest (Frobenius) to the previous
    model Hessian re-projected into the current subspace, subject to
    interpolating all primary and projected secondary values. The solve goes
    through the standard saddle-point system in scaled coordinates; the
    optimality certificate is its residual.

    Secondary values are used at face value at their projected coordinates.
    When ``max_residual`` is given, secondary points whose out-of-subspace
    residual exceeds it are excluded for this build: their values are
    inconsistent with any quadratic on the subspace by O(residual), which
    destroys the model once the trust region is smaller than that.

    ``use_secondary=False`` interpolates the primary points alone, base point
    first; ``run_rsdfoq`` falls back to it when the secondary points make the
    system degenerate.
    """
    q_mat = basis.columns
    r = basis.rank
    base = iset.base
    coords = iset.primary_coords(basis)
    if use_secondary:
        values = list(iset.primary_values)
    else:
        order = list(range(len(iset.primary)))
        order.insert(0, order.pop(iset.base_index))
        coords = coords[order]
        values = [iset.primary_values[i] for i in order]
    if use_secondary and len(iset.secondary):
        diffs = iset.secondary - base
        sec = diffs @ q_mat
        if max_residual is not None:
            res2 = np.einsum("ij,ij->i", diffs, diffs) - np.einsum("ij,ij->i", sec, sec)
            ok = res2 <= max_residual**2
            if not np.all(ok):
                logger.debug(
                    "MFN: excluding %d stale secondary point(s)", int(np.sum(~ok))
                )
            sec = sec[ok]
            sec_vals = [v for v, keep in zip(iset.secondary_values, ok) if keep]
        else:
            sec_vals = list(iset.secondary_values)
        coords = np.vstack([coords, sec]) if len(sec) else coords
        values.extend(sec_vals)

    if dedup_tol is None:
        dedup_tol = 1e-10 * max(1.0, float(np.max(np.linalg.norm(coords, axis=1))))
    keep = _dedup_coords(coords, dedup_tol)
    if len(keep) < len(coords):
        logger.debug(
            "MFN: excluding %d duplicate projected point(s)", len(coords) - len(keep)
        )
    coords = coords[keep]
    values = [values[j] for j in keep]
    m = len(coords)
    if m < r + 1:
        raise ModelConstructionError(f"need at least {r + 1} distinct points, have {m}")

    # Reference Hessian: previous model Hessian carried into the new subspace.
    if prev is None or prev.map is None:
        h_ref = np.zeros((r, r))
    else:
        cross = q_mat.T @ prev.map
        h_ref = cross @ prev.hessian @ cross.T
        h_ref = 0.5 * (h_ref + h_ref.T)

    u, dbar = _unit_scale(coords)  # (m, r)
    h_ref_s = h_ref * dbar**2

    gram = u @ u.T
    a_block = 0.25 * gram**2
    x_block = np.hstack([np.ones((m, 1)), u])  # (m, r+1)
    resid_rhs = np.array(values) - 0.5 * np.einsum("ij,ij->i", u @ h_ref_s, u)
    rhs = np.concatenate([resid_rhs, np.zeros(r + 1)])

    try:
        sol = solve_saddle_system(a_block, x_block.T, rhs)
    except SingularSystemError as err:
        raise ModelConstructionError(f"degenerate MFN system: {err}") from err

    lam = sol[:m]
    const = float(sol[m])
    grad_s = sol[m + 1 :]
    h_s = h_ref_s + 0.5 * (u.T * lam) @ u
    h_s = 0.5 * (h_s + h_s.T)

    # Optimality certificate: residual of the full KKT system.
    kkt_top = a_block @ lam + x_block @ sol[m:] - resid_rhs
    kkt_bot = x_block.T @ lam
    kkt_res = float(np.linalg.norm(np.concatenate([kkt_top, kkt_bot])))
    if kkt_res > KKT_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise ModelConstructionError(f"MFN KKT residual {kkt_res:.3e} too large")

    model = SubspaceModel(base, q_mat, const, grad_s / dbar, h_s / dbar**2)
    vals = np.asarray(values)
    pred = const + u @ grad_s + 0.5 * np.einsum("ij,ij->i", u @ h_s, u)
    if np.any(np.abs(pred - vals) > INTERP_RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))):
        raise ModelConstructionError("interpolation residuals exceed tolerance")
    return model


def _unit_scale(coords):
    """Coordinates divided by their largest norm (for conditioning), and that norm."""
    dbar = float(np.max(np.linalg.norm(coords, axis=1)))
    if dbar <= 0.0:
        dbar = 1.0
    return coords / dbar, dbar


def n_quadratic_coeffs(p: int) -> int:
    """Number of coefficients of a p-dimensional quadratic: (p+1)(p+2)/2."""
    return (p + 1) * (p + 2) // 2


def full_quadratic_stencil(p: int, delta: float) -> np.ndarray:
    """Poised sample set {0} u {+-delta e_i} u {delta (e_i + e_j), i < j}."""
    pts = [np.zeros(p)]
    eye = np.eye(p)
    for i in range(p):
        pts.append(delta * eye[i])
    for i in range(p):
        pts.append(-delta * eye[i])
    for i in range(p):
        for j in range(i + 1, p):
            pts.append(delta * (eye[i] + eye[j]))
    return np.array(pts)


def build_full_quadratic_model(coords, values) -> SubspaceModel:
    """Unique quadratic interpolant through exactly (p+1)(p+2)/2 points."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    values = np.asarray(values, dtype=float)
    m, p = coords.shape
    if m != n_quadratic_coeffs(p):
        raise ContractViolationError(
            f"need exactly {n_quadratic_coeffs(p)} points for p={p}, got {m}"
        )
    u, dbar = _unit_scale(coords)

    cols = [np.ones(m)]
    cols.extend(u[:, i] for i in range(p))
    cols.extend(0.5 * u[:, i] ** 2 for i in range(p))
    for i in range(p):
        for j in range(i + 1, p):
            cols.append(u[:, i] * u[:, j])
    design = np.column_stack(cols)

    try:
        with np.errstate(all="ignore"):
            coef = np.linalg.solve(design, values)
    except np.linalg.LinAlgError as err:
        raise ModelConstructionError(f"non-poised quadratic sample set: {err}") from err
    if not np.all(np.isfinite(coef)) or (
        np.linalg.norm(design @ coef - values)
        > INTERP_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(values)))
    ):
        raise ModelConstructionError("non-poised quadratic sample set (ill-conditioned solve)")

    const = float(coef[0])
    grad = coef[1 : p + 1] / dbar
    hess = np.zeros((p, p))
    hess[np.diag_indices(p)] = coef[p + 1 : 2 * p + 1]
    idx = 2 * p + 1
    for i in range(p):
        for j in range(i + 1, p):
            hess[i, j] = hess[j, i] = coef[idx]
            idx += 1
    return SubspaceModel(None, None, const, grad, hess / dbar**2)


@dataclass(frozen=True)
class LagrangeSet:
    """Affine Lagrange functions l_t(s) = c_t + g_t^T s for a point set."""

    constants: np.ndarray  # (m,)
    gradients: np.ndarray  # (m, p)

    def evaluate(self, s_hat) -> np.ndarray:
        return self.constants + self.gradients @ np.asarray(s_hat, dtype=float)


def lagrange_from_coords(coords) -> LagrangeSet:
    """Linear Lagrange polynomials of p+1 affinely independent p-dim points."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    m, p = coords.shape
    if m != p + 1:
        raise DegenerateGeometryError(
            f"need exactly p+1 = {p + 1} points for linear Lagrange basis, got {m}"
        )
    mat = np.hstack([np.ones((m, 1)), coords])
    try:
        with np.errstate(all="ignore"):
            inv = np.linalg.solve(mat, np.eye(m))
    except np.linalg.LinAlgError as err:
        raise DegenerateGeometryError(f"affinely dependent point set: {err}") from err
    if not np.all(np.isfinite(inv)):
        raise DegenerateGeometryError("affinely dependent point set")
    # Cardinality: l_t(y_j) = (mat @ inv)[j, t] must be the identity.
    if np.max(np.abs(mat @ inv - np.eye(m))) > LAGRANGE_TOL:
        raise DegenerateGeometryError("Lagrange cardinality check failed")
    return LagrangeSet(inv[0, :].copy(), inv[1:, :].T.copy())


@dataclass(frozen=True)
class ErrorCertificate:
    """Empirical max-error constants of a model over a sampled trust region."""

    delta: float
    kappa_ef_est: float
    kappa_eg_est: float
    kappa_eh_est: Optional[float]
    samples: int


def _ball_samples(p: int, delta: float, extra: int, seed: int) -> np.ndarray:
    """0, all +-delta e_i, and ``extra`` uniform points in the delta-ball."""
    pts = [np.zeros(p)]
    eye = np.eye(p)
    for i in range(p):
        pts.append(delta * eye[i])
        pts.append(-delta * eye[i])
    rng = derive_rng(seed, "ball", p)
    for _ in range(extra):
        d = rng.standard_normal(p)
        d /= np.linalg.norm(d)
        pts.append(delta * rng.uniform() ** (1.0 / p) * d)
    return np.array(pts)


def _certify(model, f_oracle, grad_oracle, hess_oracle, delta, samples, seed):
    """Max model errors over the ball; the Hessian error only with its oracle.

    The value, gradient and Hessian errors are divided by delta^(k+1),
    delta^k and delta, with k = 1 without a Hessian oracle and k = 2 with one.
    """
    k = 1 if hess_oracle is None else 2
    pts = _ball_samples(model.dim, delta, samples, seed)
    p_mat = model.map
    kef = keg = keh = 0.0
    for s in pts:
        x = model.base + p_mat @ s
        kef = max(kef, abs(f_oracle(x) - model.value(s)) / delta ** (k + 1))
        err_g = p_mat.T @ np.asarray(grad_oracle(x), float) - model.gradient_at(s)
        keg = max(keg, float(np.linalg.norm(err_g)) / delta**k)
        if hess_oracle is not None:
            err_h = p_mat.T @ np.asarray(hess_oracle(x), float) @ p_mat - model.hessian
            keh = max(keh, float(np.linalg.norm(err_h, 2)) / delta)
    return ErrorCertificate(delta, kef, keg, None if hess_oracle is None else keh, len(pts))


def certify_fully_linear(
    model: SubspaceModel, f_oracle, grad_oracle, delta: float, samples: int, seed: int
) -> ErrorCertificate:
    """Measure max |f - m| / delta^2 and max grad error / delta over the ball."""
    return _certify(model, f_oracle, grad_oracle, None, delta, samples, seed)


def certify_fully_quadratic(
    model: SubspaceModel,
    f_oracle,
    grad_oracle,
    hess_oracle,
    delta: float,
    samples: int,
    seed: int,
) -> ErrorCertificate:
    """As certify_fully_linear, with cubic/quadratic/linear error normalization."""
    return _certify(model, f_oracle, grad_oracle, hess_oracle, delta, samples, seed)


def model_criticality(model: SubspaceModel):
    """(sigma_m, tau_m): max of gradient norm and negative-curvature magnitude."""
    tau = max(-float(model.eig[0][0]), 0.0)
    return max(float(np.linalg.norm(model.gradient)), tau), tau
