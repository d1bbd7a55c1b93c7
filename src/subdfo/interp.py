"""Interpolation sets, subspace quadratic models and model-quality certificates.

Maintains the primary/secondary point sets, projects secondary points into
the current subspace, and builds quadratic models either by
minimum-Frobenius-norm (MFN) interpolation against a reference Hessian or by
fully determined quadratic interpolation. Also provides linear Lagrange
polynomials for geometry management and empirical certificates for the
model-error scaling laws.
"""

import logging
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Optional

import numpy as np

from .exceptions import (
    ContractViolationError,
    DegenerateGeometryError,
    ModelConstructionError,
    SingularSystemError,
)
from .numerics import (
    Basis,
    check_symmetric,
    economic_qr,
    identity_error,
    solve_saddle_system,
)
from .seeding import derive_rng

logger = logging.getLogger(__name__)

# Interpolation residual accepted from a model build. It is the only
# acceptance check of an MFN build, at each point relative to max(1, |f|);
# a full quadratic build checks the residual's norm relative to
# max(1, ||f||).
INTERP_RESIDUAL_TOL = 1e-9
# Largest entry of |M M^-1 - I| accepted for a linear Lagrange system M.
LAGRANGE_TOL = 1e-8
# Largest entry of |D D^T - I| and of |D F^T| accepted for new frame rows D
# before they are orthogonalized again.
FRAME_ORTHO_TOL = 1e-14
# A point given without coordinates extends the frame when its distance from
# the frame's span exceeds this, relative to max(1, ||point||).
FRAME_RESIDUAL_TOL = 1e-13

_EPS = float(np.finfo(float).eps)


class _RowStack:
    """Rows of a (len, n) array kept contiguous, in insertion order.

    Rows live in a preallocated buffer: appending copies the row in, and
    popping a row moves the rows on its shorter side, so popping the first
    row only moves the start. When the end is reached the rows move to the
    start of the buffer, or of one twice as long when they fill more than
    half of it, so a full buffer is not compacted again after each pop.
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
            if 2 * len(rows) > len(self._buf):
                self._buf = np.empty((2 * len(self._buf), self._buf.shape[1]))
            self._buf[: len(rows)] = rows
            self._start, self._stop = 0, len(rows)
        self._buf[self._stop] = row
        self._stop += 1

    def widened(self, width: int) -> "_RowStack":
        """A copy with ``width`` columns, the new ones zero."""
        rows = self.rows
        out = _RowStack(width, len(self._buf))
        out._buf[: len(rows)] = 0.0
        out._buf[: len(rows), : rows.shape[1]] = rows
        out._stop = len(rows)
        return out

    def pop(self, index: int):
        i = self._start + index
        if 2 * index < self._stop - self._start:
            self._buf[self._start + 1 : i + 1] = self._buf[self._start : i]
            self._start += 1
        else:
            self._buf[i : self._stop - 1] = self._buf[i + 1 : self._stop]
            self._stop -= 1


def _projection_coefficients(span, coords):
    """y with coords - span y = (I - span span^T)^2 coords: two projection passes."""
    y = span.T @ coords
    y += span.T @ (coords - span @ y)
    return y


def _off_frame(leak, res) -> bool:
    """Whether every entry of |leak| = |res F^T| is within FRAME_ORTHO_TOL ||res_i||."""
    tol = FRAME_ORTHO_TOL * math.sqrt(np.einsum("ij,ij->i", res, res).min())
    return bool(np.abs(leak).max(initial=0.0) <= tol)


def _orthonormal_rows(x):
    """(u, t) with orthonormal rows u and x = t^T u, t upper triangular.

    Goes through the Gram matrix x x^T (Cholesky QR), once more when an entry
    of |u u^T - I| exceeds FRAME_ORTHO_TOL. For one row the Cholesky factor
    is the row's norm and its inverse a reciprocal, which give the same bits.
    """
    c = len(x)
    if c == 1:
        t = 1.0
        for _ in range(2):
            gram = x[0] @ x[0]
            if not gram > 0.0:  # also NaN, which Cholesky rejects too
                raise ContractViolationError("failed to draw orthogonal directions")
            norm = math.sqrt(gram)
            x = (1.0 / norm) * x
            t *= norm
            if abs(x[0] @ x[0] - 1.0) <= FRAME_ORTHO_TOL:
                return x, np.array([[t]])
        raise ContractViolationError("failed to draw orthogonal directions")
    t = np.eye(c)
    for _ in range(2):
        try:
            chol = np.linalg.cholesky(x @ x.T)
        except np.linalg.LinAlgError as err:
            raise ContractViolationError("failed to draw orthogonal directions") from err
        x = np.linalg.inv(chol) @ x
        t = chol.T @ t
        if identity_error(x @ x.T) <= FRAME_ORTHO_TOL:
            return x, t
    raise ContractViolationError("failed to draw orthogonal directions")


def _with_zero_row(a, b: int) -> np.ndarray:
    """``np.insert(a, b, 0.0, axis=0)`` of a 2-D float array, by row copies."""
    out = np.empty((len(a) + 1, a.shape[1]))
    out[:b] = a[:b]
    out[b] = 0.0
    out[b + 1 :] = a[b:]
    return out


def _without_row(a, b: int) -> np.ndarray:
    """``np.delete(a, b, axis=0)`` of a 2-D float array, by row copies."""
    out = np.empty((len(a) - 1, a.shape[1]))
    out[:b] = a[:b]
    out[b:] = a[b + 1 :]
    return out


def _offsets(pts, b: int) -> np.ndarray:
    """Rows of ``pts`` other than row b, minus row b."""
    out = np.empty((len(pts) - 1, pts.shape[1]))
    np.subtract(pts[:b], pts[b], out=out[:b])
    np.subtract(pts[b + 1 :], pts[b], out=out[b:])
    return out


class InterpolationSet:
    """Primary and secondary interpolation points with cached values.

    The primary set always contains the base point (current iterate); the
    secondary set holds up to ``q - p - 1`` previously demoted points in
    demotion order, so the oldest is discarded first on overflow.

    Frame: every point x is held by its frame coordinates w, with x = o + F w
    up to roundoff, where F is n x k with orthonormal columns (``frame``
    holds them as rows) and o is ``origin``. The primary points also keep
    their n-vectors, because the base must be exactly the point at which
    the objective was evaluated: ``primary`` is a (len, n) array whose rows
    are the points in stored order, aliasing the set's storage, so it is
    valid only until the set next changes (``base`` is a copy). The
    secondary points are held only as frame coordinates; ``secondary``
    forms their rows o + F w when it is read.

    When n <= 2q the frame is full: F = I_n, k = n and o = 0, so the frame
    coordinates are the points, and every product with F is exact. A full
    frame spans R^n; it is never extended or compacted. Otherwise the frame
    starts empty at the base and F spans the affine hull of the points: a
    point joins with known coordinates (a trust-region step base + Q s) or
    along new directions orthogonal to F, which extend it
    (``draw_orthogonal``, ``add_orthogonal``). When new directions would
    take k past the frame's width of 3q/2, the frame is first rebuilt on the
    hull of the stored points, at most q - 1 directions (a compaction).

    The set can hold an orthonormal factor Q of its primary directions in
    frame coordinates (``hold_basis``), read as a Basis by ``held_basis``.
    The directions drawn orthogonal to it join it as known columns
    (``add_orthogonal``); any other change to the primary set makes it
    stale. A moved base leaves it as it is: the offsets from any primary
    point span the same space. The set also keeps the subspace coordinates
    of its primary points in the basis it last returned, through later
    demotions and points added with known coordinates (``primary_coords``).
    """

    def __init__(self, base, base_value: float, p: int, q: int):
        if q < p + 1:
            raise ContractViolationError("need q >= p + 1")
        self.p = int(p)
        self.q = int(q)
        base = np.asarray(base, dtype=float)
        n = base.shape[0]
        if n <= 2 * self.q:
            self._frame, self._k, self._origin = np.eye(n), n, np.zeros(n)
        else:
            # Frame rows in a buffer of 3q/2 rows: passes over F cost O(nk)
            # and a compaction O(nk^2), and the hull needs at most q - 1.
            self._frame, self._k, self._origin = np.empty((3 * self.q // 2, n)), 0, base.copy()
        width = len(self._frame)
        self._primary = _RowStack(n, self.p + 2)
        self._wprimary = _RowStack(width, self.p + 2)
        self._wsecondary = _RowStack(width, 2 * self.secondary_capacity)
        self.primary_values = []
        self.base_index = 0
        self.secondary_values = []
        # Q of the held factor in frame coordinates; None when stale.
        self._held: Optional[np.ndarray] = None
        # (basis, z): row t of z is Q^T (primary[t] - o) for one fixed origin
        # o, with Q = basis.columns; basis is None for a held factor that
        # has not been read yet.
        self._coords: Optional[tuple] = None
        # (frame buffer before the last compaction, U): the old frame's
        # first k rows are U @ (new rows), so coordinates c become U^T c.
        self._rotation: Optional[tuple] = None
        self._push(base, base_value, self._locate(base, None)[0])

    @property
    def primary(self) -> np.ndarray:
        return self._primary.rows

    @property
    def secondary(self) -> np.ndarray:
        """The secondary points o + F w, one row each, formed from their frame coordinates."""
        return self._origin + self.secondary_frame_coords @ self.frame

    @property
    def base(self) -> np.ndarray:
        return self.primary[self.base_index].copy()

    @property
    def base_value(self) -> float:
        return self.primary_values[self.base_index]

    @property
    def secondary_capacity(self) -> int:
        return max(0, self.q - self.p - 1)

    @property
    def frame(self) -> np.ndarray:
        """The k x n orthonormal frame rows (F^T); the n x n identity for a full frame."""
        return self._frame[: self._k]

    @property
    def origin(self) -> np.ndarray:
        return self._origin.copy()

    @property
    def frame_dim(self) -> int:
        """k, the number of frame coordinates (n for a full frame)."""
        return self._k

    @property
    def primary_frame_coords(self) -> np.ndarray:
        """Frame coordinates of the primary points, one row each (aliases storage)."""
        return self._wprimary.rows[:, : self._k]

    @property
    def secondary_frame_coords(self) -> np.ndarray:
        """Frame coordinates of the secondary points, one row each (aliases storage)."""
        return self._wsecondary.rows[:, : self._k]

    def _push(self, point, value: float, w):
        self._primary.append(point)
        self._wprimary.append(w)
        self.primary_values.append(float(value))

    def add_primary(self, point, value: float, coords=None):
        """Add a primary point.

        ``coords``, when given, are the point's coordinates Q^T (point -
        base) in the basis the set last returned (a trust-region step: the
        point is base + Q coords); they keep ``primary_coords`` free of
        products with Q and give the point's frame coordinates in O(kp).
        A point without them is projected on the frame, which it extends
        when it lies off the frame's span. The held factor becomes stale.
        """
        self._held = None
        point = np.asarray(point, dtype=float)
        w, res = self._locate(point, coords)
        if res is not None and math.sqrt(res @ res) > FRAME_RESIDUAL_TOL * max(
            1.0, math.sqrt(point @ point)
        ):
            if self._k == len(self._frame):
                self._make_room(1)
                w, res = self._locate(point, None)
            norm = math.sqrt(res @ res)
            w[self._extend((res / norm)[:, None])] = norm
        self._push(point, value, w)
        if self._coords is not None:
            if coords is None:
                self._coords = None
            else:
                basis, z = self._coords
                grown = np.empty((len(z) + 1, z.shape[1]))
                grown[:-1] = z
                np.add(z[self.base_index], coords, out=grown[-1])
                self._coords = (basis, grown)

    def _locate(self, point, coords):
        """Frame coordinates (full buffer width) of a point, and its residual.

        With ``coords`` for the basis last returned, the point is base + Q
        coords and its residual is None. Otherwise the point is projected on
        the frame twice; the residual is the part of point - origin off it.
        """
        basis = None if self._coords is None else self._coords[0]
        if coords is not None and basis is not None and self._in_frame(basis):
            w = self._wprimary.rows[self.base_index].copy()
            w[: basis.coords.shape[0]] += basis.coords @ coords
            return w, None
        f = self.frame
        w = np.zeros(len(self._frame))
        res = np.asarray(point, dtype=float) - self._origin
        for _ in range(2):
            c = f @ res
            res = res - f.T @ c
            w[: self._k] += c
        return w, res

    def draw_orthogonal(self, draws: np.ndarray):
        """Orthonormal directions from the n x c Gaussian ``draws``, orthogonal to the held factor.

        Returns the directions and their frame coordinates. A full frame
        spans R^n and cannot be extended: the draws' frame coordinates get
        two projection passes against the held factor and a QR
        factorization, and the directions are their lift. Otherwise the
        frame is first compacted if c more directions would not fit, and
        three passes over F do the rest: the draws' frame coordinates; the
        residuals off the frame, together with the lift of the part the
        projection removes; and a check, which repeats the residuals'
        projection only when an entry of |F res| exceeds FRAME_ORTHO_TOL
        ||res||. The residuals, orthonormalized through their c x c Gram
        matrix, extend the frame. The projection against the held factor and
        the orthonormalization, again through the Gram matrix, run on the
        (k + c) x c coordinates.
        """
        if self._k == self._frame.shape[1]:
            # Row layout, as below; the coordinates keep the draws' memory order.
            f, span = self.frame, self._held
            coords = (draws.T @ f.T).T
            for _ in range(2):
                coords -= span @ (span.T @ coords)
            out, r = economic_qr(coords)
            if (np.abs(r.diagonal()) <= 1e-8).any():
                raise ContractViolationError("failed to draw orthogonal directions")
            return (out.T @ f).T, out
        c = draws.shape[1]
        self._make_room(c)
        span = self._held
        # Row layout: products of the form (few rows) @ F stream F fastest.
        f, rows = self.frame, draws.T
        coords = rows @ f.T
        y = _projection_coefficients(span, coords.T)
        # One pass gives the residuals and the lift of the projected part.
        stacked = np.empty((2 * c, coords.shape[1]))
        stacked[:c] = coords
        stacked[c:] = (span @ y).T
        lifted = stacked @ f
        res = rows - lifted[:c]
        leak = res @ f.T  # the check pass
        if not _off_frame(leak, res):
            res -= leak @ f
            coords += leak
            if not _off_frame(res @ f.T, res):
                raise ContractViolationError("failed to draw orthogonal directions")
            y = _projection_coefficients(span, coords.T)
            lifted[c:] = (span @ y).T @ f
        res, tri = _orthonormal_rows(res)
        self._extend(res.T)
        # In the frame extended by the residuals the draws are [coords; tri];
        # less the projections they factor as v t, and [F; E]^T v is
        # (draws - F^T span y) t^-1, which needs no further pass.
        kc = coords.shape[1]
        joined = np.empty((c, kc + c))
        np.subtract(coords, y.T @ span.T, out=joined[:, :kc])
        joined[:, kc:] = tri.T
        v, t = _orthonormal_rows(joined)
        directions = rows - lifted[c:]
        if c == 1:
            return ((1.0 / t[0, 0]) * directions).T, v.T
        return (np.linalg.inv(t).T @ directions).T, v.T

    def add_orthogonal(self, points, lengths, values, coords: np.ndarray):
        """Add ``points[j]`` = base + lengths[j] d_j with ``values[j]``.

        The points are the ones the objective was evaluated at, along
        directions d_j from ``draw_orthogonal``, orthogonal to the held
        factor; ``coords`` holds the d_j's frame coordinates as columns, so
        the new points' frame coordinates are the base's plus lengths[j]
        coords[:, j]. The coordinates join the held factor as known columns,
        and new point j's subspace coordinates are the base's plus
        lengths[j] along column j of them. The next ``held_basis`` checks
        them with the rest.
        """
        # The old points have no part along the new columns.
        z, m = self._coords[1], len(lengths)
        t, h = z.shape
        grown = np.zeros((t + m, h + m))
        grown[:t, :h] = z
        grown[t:, :h] = z[self.base_index]
        wbase = self._wprimary.rows[self.base_index].copy()
        for j, (point, length, value) in enumerate(zip(points, lengths, values)):
            w = wbase.copy()
            w[: len(coords)] += length * coords[:, j]
            self._push(point, value, w)
            grown[t + j, h + j] = length
        held = np.empty((len(self._held), h + m))
        held[:, :h] = self._held
        held[:, h:] = coords
        self._held = held
        self._coords = (None, grown)

    def _make_room(self, c: int):
        """Compact the frame when c more directions would not fit in its buffer."""
        if self._k + c > len(self._frame):
            self._compact(c)

    def _extend(self, directions) -> int:
        """Append orthonormal n-vector columns to the frame; their first index.

        Makes room first. The held factor's Q gains zero rows for them.
        """
        c = directions.shape[1]
        self._make_room(c)
        k = self._k
        self._frame[k : k + c] = directions.T
        self._k = k + c
        if self._held is not None and c:
            held = np.zeros((len(self._held) + c, self._held.shape[1]))
            held[:-c] = self._held
            self._held = held
        return k

    def _compact(self, room: int):
        """Rebuild the frame on the affine hull of the stored points.

        The base becomes the origin. With the offsets of the other points
        from it factored as U R in the old frame coordinates, the new frame
        is F U and the points' new coordinates are the columns of R. The
        held factor's Q, whose columns lie in the hull, becomes U^T Q; the
        recorded subspace coordinates stay as they are. A basis expressed
        in the old frame is carried over by U^T (``overlap``).
        The buffer is widened when ``room`` more directions would still not
        fit, which happens only when more than q points are stored.
        """
        k, b, n = self._k, self.base_index, self._frame.shape[1]
        prim, sec = self._wprimary.rows, self._wsecondary.rows
        wbase = prim[b, :k].copy()
        offsets = np.vstack([prim[:b, :k], prim[b + 1 :, :k], sec[:, :k]]) - wbase
        width = min(k, len(offsets))
        if width:
            u, r = economic_qr(offsets.T)
        else:
            u, r = np.zeros((k, 0)), np.zeros((0, len(offsets)))
        size = len(self._frame)
        if width + room > size:
            size = min(max(width + room, 2 * size), n)
            self._wprimary = self._wprimary.widened(size)
            self._wsecondary = self._wsecondary.widened(size)
            prim, sec = self._wprimary.rows, self._wsecondary.rows
        frame = np.empty((size, n))
        np.matmul(u.T, self._frame[:k], out=frame[:width])
        coords = np.zeros((len(offsets), size))
        coords[:, :width] = r.T
        prim[:b], prim[b], prim[b + 1 :] = coords[:b], 0.0, coords[b : len(prim) - 1]
        sec[:] = coords[len(prim) - 1 :]
        self._rotation = (self._frame, u)
        self._frame, self._k = frame, width
        self._origin = self.base
        if self._held is not None:
            self._held = u.T @ self._held

    def contains_primary(self, point, coords=None) -> bool:
        """Whether a primary point lies within 1e-14 max(1, ||point||) of ``point``.

        ``coords`` are as for ``add_primary``; with them the distances are
        taken in frame coordinates without a product with the frame.
        """
        point = np.asarray(point, dtype=float)
        scale = max(1.0, math.sqrt(point @ point))
        w, res = self._locate(point, coords)
        diffs = self.primary_frame_coords - w[: self._k]
        off = 0.0 if res is None else float(res @ res)
        return bool(np.einsum("ij,ij->i", diffs, diffs).min() + off <= (1e-14 * scale) ** 2)

    def move_to_secondary(self, index: int):
        """Demote primary point ``index`` to the secondary set (never the base).

        The held factor becomes stale.
        """
        if index == self.base_index:
            raise ContractViolationError("cannot demote the base point")
        self._held = None
        self._primary.pop(index)
        self._wsecondary.append(self._wprimary.rows[index])
        self._wprimary.pop(index)
        self.secondary_values.append(self.primary_values.pop(index))
        if index < self.base_index:
            self.base_index -= 1
        if self._coords is not None:
            basis, z = self._coords
            self._coords = (basis, _without_row(z, index))
        while len(self.secondary_values) > self.secondary_capacity:
            self._wsecondary.pop(0)
            self.secondary_values.pop(0)

    def recenter_to_best(self):
        """Move the base marker to the primary point with smallest value."""
        values = self.primary_values
        self.base_index = min(range(len(values)), key=values.__getitem__)

    def frame_directions(self) -> np.ndarray:
        """Offsets of the non-base primary points from the base in frame coordinates, one per row."""
        return _offsets(self.primary_frame_coords, self.base_index)

    def _in_frame(self, basis: Basis) -> bool:
        """Whether ``basis.coords`` are coordinates in the set's current frame."""
        return basis.frame is not None and basis.frame.base is self._frame

    def _space(self, basis: Basis):
        """(primary rows, secondary rows, C): coordinates in ``basis`` are (row - base row) @ C.

        The rows are frame coordinates when the basis is expressed in the
        set's frame; otherwise they are the points and C = basis.columns.
        """
        if not self._in_frame(basis):
            return self.primary, self.secondary, basis.columns
        k = basis.coords.shape[0]
        return self._wprimary.rows[:, :k], self._wsecondary.rows[:, :k], basis.coords

    def primary_coords(self, basis: Basis) -> np.ndarray:
        """Coordinates Q^T (y - base) of the primary points, one row each.

        For the basis that ``held_basis`` last returned they come from the
        set's own record, O(p^2); for any other basis they are computed as
        (primary - base) @ Q, in frame coordinates when the basis is
        expressed in the set's frame.
        """
        if self._coords is not None and self._coords[0] is basis:
            z = self._coords[1]
            return z - z[self.base_index]
        rows, _, c = self._space(basis)
        return (rows - rows[self.base_index]) @ c

    def secondary_offsets(self, basis: Basis):
        """(D, C): rows of D are the secondary points minus the base, and D @ C
        their coordinates in ``basis``; D is in frame coordinates when the
        basis is expressed in the set's frame."""
        prim, sec, c = self._space(basis)
        return sec - prim[self.base_index], c

    def overlap(self, basis: Basis, model: "SubspaceModel") -> Optional[np.ndarray]:
        """basis.columns.T @ model.map, or None when the model has no map.

        When both bases are expressed in the set's frame (the model's
        possibly from before the last compaction, carried over by U^T), this
        is a product of k x r coordinates, and neither n x r matrix is formed.
        """
        if model.basis is None and model.map is None:
            return None
        carried = self._carried(model.basis) if self._in_frame(basis) else None
        if carried is not None:
            k = min(len(carried), len(basis.coords))
            return basis.coords[:k].T @ carried[:k]
        return basis.columns.T @ model.map

    def _carried(self, basis: Optional[Basis]) -> Optional[np.ndarray]:
        """Coordinates in the current frame of a basis expressed in this set's
        frame, now or before the last compaction; None for any other basis."""
        if basis is None or basis.frame is None:
            return None
        if basis.frame.base is self._frame:
            return basis.coords
        if self._rotation is not None and basis.frame.base is self._rotation[0]:
            return self._rotation[1][: len(basis.coords)].T @ basis.coords
        return None

    def hold_basis(self, basis: Optional[Basis], dirs: np.ndarray) -> np.ndarray:
        """Hold ``basis``, the ``orthonormal_basis`` of ``dirs = frame_directions()``.

        ``basis`` is None when ``dirs`` is empty, and the held factor then
        has no columns. Records the primary coordinates D Q for the next
        ``held_basis`` and returns Q, in frame coordinates. A factor that
        dropped a dependent direction is held as it is: a fresh factor of
        the same directions drops it too.
        """
        q = np.zeros((self.frame_dim, 0)) if basis is None else basis.coords
        self._held = q
        self._coords = (None, _with_zero_row(dirs @ q, self.base_index))
        return q

    def held_basis(self) -> Optional[Basis]:
        """The held factor as a Basis in the set's frame; None when it is stale.

        The Basis check, max |Q^T Q - I| <= BASIS_ORTHO_TOL, is the only work:
        it covers the columns appended since the factor was held. A factor
        that fails it is dropped, and None is returned. The recorded primary
        coordinates become those of the returned basis.
        """
        if self._held is None:
            return None
        try:
            basis = Basis(self._held, self.frame)
        except ContractViolationError:
            self._held = None
            return None
        self._coords = (basis, self._coords[1])
        return basis


class _ModelMap:
    """The ``map`` field of SubspaceModel: an n x r array, or a Basis.

    A model given its Basis keeps it as ``model.basis`` and reads ``map`` as
    its columns, which a framed basis forms only then.
    """

    def __get__(self, model, owner=None):
        if model is None:
            raise AttributeError("map")  # the field has no default
        if model._map is None and model.basis is not None:
            model._map = model.basis.columns
        return model._map

    def __set__(self, model, value):
        if isinstance(value, Basis):
            model.basis, model._map = value, None
        else:
            model.basis = None
            model._map = None if value is None else np.atleast_2d(np.asarray(value, dtype=float))


@dataclass
class SubspaceModel:
    """Quadratic model c + g^T s + 0.5 s^T H s over subspace coordinates.

    ``base`` and ``map`` locate the subspace in full space (x = base + map @ s);
    both may be None for a pure coordinate-space model. ``map`` may be given
    as a Basis (kept as ``basis``), whose columns are then formed only when
    ``map`` is read. Non-finite coefficients raise ModelConstructionError.
    ``eig`` is cached, so the Hessian must not be changed in place after it
    is read.
    """

    base: Optional[np.ndarray]
    map: Optional[np.ndarray] = _ModelMap()
    constant: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=float)
        h = np.asarray(self.hessian, dtype=float)
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ModelConstructionError("model coefficients must be finite")
        self.gradient = g
        self.hessian = check_symmetric(h)
        self.constant = float(self.constant)
        if self.base is not None:
            self.base = np.asarray(self.base, dtype=float)

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
    if not iset.secondary_values:
        return []
    diffs, q_mat = iset.secondary_offsets(basis)
    return list(zip(diffs @ q_mat, iset.secondary_values))


@cache
def _dedup_direction(r: int) -> np.ndarray:
    # A fixed generic unit vector: points on coordinate axes, as the
    # orthogonal directions leave them, still project to distinct values.
    w = np.random.default_rng(0).standard_normal(r)
    w /= np.linalg.norm(w)
    w.flags.writeable = False
    return w


def _dedup_coords(pts, tol: float):
    """Indices of the rows of the 2-D array ``pts`` to keep, dropping near-duplicates.

    Greedy in order: a point is dropped when it lies within ``tol`` of an
    earlier point that was kept. Only points with some close earlier point
    can be dropped, so only those are visited. Two points within ``tol`` of
    each other project within ``tol`` (plus roundoff) of each other on any
    unit vector, so the points are sorted by their projection on a fixed
    one, and distances are taken only for pairs inside that window.
    """
    m, r = pts.shape
    w = _dedup_direction(r)
    v = pts @ w
    order = v.argsort(kind="stable")
    v = v[order]
    # The window covers the roundoff of the computed distance (relative,
    # and absolute where squared gaps underflow) and of the projections,
    # whose error is at most r eps max|pts| ||w||_1, with ||w||_1 <= sqrt(r).
    slack = 4.0 * (r + 2) * _EPS
    amax = float(np.abs(pts).max(initial=0.0))
    window = tol * (1.0 + slack) + slack * amax * math.sqrt(r) + 1e-150
    counts = np.maximum(v.searchsorted(v + window, side="right") - np.arange(1, m + 1), 0)
    if not counts.any():
        return np.arange(m)
    first = np.repeat(np.arange(m), counts)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[first], order[second]
    later, earlier = np.maximum(i, j), np.minimum(i, j)
    diff = np.take(pts, later, axis=0) - np.take(pts, earlier, axis=0)
    close = np.zeros((m, m), dtype=bool)
    close[later, earlier] = np.sqrt(np.einsum("ij,ij->i", diff, diff)) < tol
    keep = np.ones(m, dtype=bool)
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
    through the standard saddle-point system in scaled coordinates, factored
    once. The model is accepted when it reproduces every interpolated value
    to INTERP_RESIDUAL_TOL relative to max(1, |f|); otherwise, or when the
    system is exactly singular, ModelConstructionError is raised. It is
    also raised, before the solve, when a huge objective overflows the
    reference Hessian or the right-hand side.

    Secondary values are used at face value at their projected coordinates.
    When ``max_residual`` is given, secondary points whose out-of-subspace
    residual exceeds it are excluded for this build: their values are
    inconsistent with any quadratic on the subspace by O(residual), which
    destroys the model once the trust region is smaller than that.

    ``use_secondary=False`` interpolates the primary points alone, base point
    first; ``run_rsdfoq`` falls back to it when the secondary points make the
    system degenerate.
    """
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
    if use_secondary and iset.secondary_values:
        diffs, q_mat = iset.secondary_offsets(basis)
        sec = diffs @ q_mat
        sec_vals = iset.secondary_values
        if max_residual is not None:
            res2 = np.einsum("ij,ij->i", diffs, diffs) - np.einsum("ij,ij->i", sec, sec)
            ok = res2 <= max_residual**2
            if not ok.all():
                logger.debug(
                    "MFN: excluding %d stale secondary point(s)", len(ok) - int(ok.sum())
                )
                sec = sec[ok]
                sec_vals = [v for v, keep in zip(sec_vals, ok) if keep]
        if len(sec):
            stacked = np.empty((len(coords) + len(sec), r))
            stacked[: len(coords)] = coords
            stacked[len(coords) :] = sec
            coords = stacked
        values.extend(sec_vals)

    if dedup_tol is None:
        dedup_tol = 1e-10 * max(1.0, float(np.linalg.norm(coords, axis=1).max()))
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
    cross = None if prev is None else iset.overlap(basis, prev)
    u, dbar = _unit_scale(coords)  # (m, r)
    vals = np.array(values)
    rhs = np.zeros(m + r + 1)
    # A huge objective can overflow these products; the check below rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        if cross is None:
            h_ref = np.zeros((r, r))
        else:
            h_ref = cross @ prev.hessian @ cross.T
            h_ref = 0.5 * (h_ref + h_ref.T)
        h_ref_s = h_ref * dbar**2
        np.subtract(vals, 0.5 * np.einsum("ij,ij->i", u @ h_ref_s, u), out=rhs[:m])
    if not (np.isfinite(h_ref_s).all() and np.isfinite(rhs).all()):
        raise ModelConstructionError("non-finite reference Hessian or MFN right-hand side")

    gram = u @ u.T
    a_block = 0.25 * gram**2
    x_block = np.empty((m, r + 1))
    x_block[:, 0] = 1.0
    x_block[:, 1:] = u

    try:
        sol = solve_saddle_system(a_block, x_block.T, rhs)
    except SingularSystemError as err:
        raise ModelConstructionError(f"degenerate MFN system: {err}") from err

    lam = sol[:m]
    const = float(sol[m])
    grad_s = sol[m + 1 :]
    h_s = h_ref_s + 0.5 * (u.T * lam) @ u
    h_s = 0.5 * (h_s + h_s.T)

    model = SubspaceModel(base, basis, const, grad_s / dbar, h_s / dbar**2)
    # The acceptance check: the model reproduces every value it interpolates.
    pred = const + u @ grad_s + 0.5 * np.einsum("ij,ij->i", u @ h_s, u)
    if (np.abs(pred - vals) > INTERP_RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))).any():
        raise ModelConstructionError("interpolation residuals exceed tolerance")
    return model


def _unit_scale(coords):
    """Coordinates divided by their largest norm (for conditioning), and that norm."""
    dbar = float(np.linalg.norm(coords, axis=1).max())
    if dbar <= 0.0:
        dbar = 1.0
    return coords / dbar, dbar


def n_quadratic_coeffs(p: int) -> int:
    """Number of coefficients of a p-dimensional quadratic: (p+1)(p+2)/2."""
    return (p + 1) * (p + 2) // 2


@cache
def _pairs(p: int):
    """Row and column indices (i, j), i < j, of the strict upper triangle, read-only."""
    iu, ju = np.triu_indices(p, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@cache
def _unit_stencil(p: int) -> np.ndarray:
    eye = np.eye(p)
    iu, ju = _pairs(p)
    pts = np.vstack([np.zeros(p), eye, -eye, eye[iu] + eye[ju]])
    pts.flags.writeable = False
    return pts


def full_quadratic_stencil(p: int, delta: float) -> np.ndarray:
    """Poised sample set {0} u {+-delta e_i} u {delta (e_i + e_j), i < j}.

    Scales one cached unit stencil per p; for delta >= 0 the result is bit
    for bit the stencil built from delta directly, signed zeros included.
    """
    return delta * _unit_stencil(p)


@lru_cache(maxsize=8)
def _quadratic_design(shape, data: bytes):
    """The design matrix of the scaled coordinates u and its inverse.

    Keyed on u's exact shape and bytes, so a hit is the same design, bit for
    bit; a run's stencils delta * S scale to a few bit patterns of u, and a
    few entries hold them (an entry is two m x m arrays, m = (p+1)(p+2)/2).
    A singular design raises ModelConstructionError, which is not cached.
    Both arrays are read-only, since every caller with these coordinates
    shares them.
    """
    m, p = shape
    u = np.frombuffer(data).reshape(shape)
    iu, ju = _pairs(p)
    design = np.column_stack([np.ones(m), u, 0.5 * u**2, u[:, iu] * u[:, ju]])
    try:
        with np.errstate(all="ignore"):
            inverse = np.linalg.inv(design)
    except np.linalg.LinAlgError as err:
        raise ModelConstructionError(f"non-poised quadratic sample set: {err}") from err
    design.flags.writeable = inverse.flags.writeable = False
    return design, inverse


def build_full_quadratic_model(coords, values, base=None, map=None) -> SubspaceModel:
    """Unique quadratic interpolant through exactly (p+1)(p+2)/2 points.

    ``base`` and ``map`` locate the model as in SubspaceModel. The design
    matrix of the coordinates and its inverse are cached
    (``_quadratic_design``), and the coefficients are the inverse times the
    values. The finiteness and interpolation-residual checks run on every
    call.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    values = np.asarray(values, dtype=float)
    m, p = coords.shape
    if m != n_quadratic_coeffs(p):
        raise ContractViolationError(
            f"need exactly {n_quadratic_coeffs(p)} points for p={p}, got {m}"
        )
    u, dbar = _unit_scale(coords)
    design, inverse = _quadratic_design(u.shape, u.tobytes())
    with np.errstate(all="ignore"):
        coef = inverse @ values
    if not np.all(np.isfinite(coef)) or (
        np.linalg.norm(design @ coef - values)
        > INTERP_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(values)))
    ):
        raise ModelConstructionError("non-poised quadratic sample set (ill-conditioned solve)")

    const = float(coef[0])
    grad = coef[1 : p + 1] / dbar
    hess = np.diag(coef[p + 1 : 2 * p + 1])
    iu, ju = _pairs(p)
    hess[iu, ju] = hess[ju, iu] = coef[2 * p + 1 :]
    return SubspaceModel(base, map, const, grad, hess / dbar**2)


@dataclass(frozen=True)
class LagrangeSet:
    """Affine Lagrange functions l_t(s) = c_t + g_t^T s for a point set."""

    constants: np.ndarray  # (m,)
    gradients: np.ndarray  # (m, p)

    def evaluate(self, s_hat) -> np.ndarray:
        return self.constants + self.gradients @ np.asarray(s_hat, dtype=float)


@cache
def _identity(m: int) -> np.ndarray:
    """The read-only m x m identity."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def lagrange_from_coords(coords) -> LagrangeSet:
    """Linear Lagrange polynomials of p+1 affinely independent p-dim points."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    m, p = coords.shape
    if m != p + 1:
        raise DegenerateGeometryError(
            f"need exactly p+1 = {p + 1} points for linear Lagrange basis, got {m}"
        )
    mat = np.empty((m, m))
    mat[:, 0] = 1.0
    mat[:, 1:] = coords
    try:
        # solve sets its own floating-point error state around LAPACK.
        inv = np.linalg.solve(mat, _identity(m))
    except np.linalg.LinAlgError as err:
        raise DegenerateGeometryError(f"affinely dependent point set: {err}") from err
    if not np.isfinite(inv).all():
        raise DegenerateGeometryError("affinely dependent point set")
    # Cardinality: l_t(y_j) = (mat @ inv)[j, t] must be the identity.
    if identity_error(mat @ inv) > LAGRANGE_TOL:
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
    g = model.gradient
    return max(math.sqrt(g @ g), tau), tau
