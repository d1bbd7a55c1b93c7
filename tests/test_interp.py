import numpy as np
import pytest

import subdfo.interp as interp_mod
from subdfo.exceptions import (
    ContractViolationError,
    DegenerateGeometryError,
    ModelConstructionError,
)
from subdfo.interp import (
    InterpolationSet,
    SubspaceModel,
    _dedup_coords,
    build_full_quadratic_model,
    build_mfn_model,
    certify_fully_linear,
    certify_fully_quadratic,
    full_quadratic_stencil,
    lagrange_from_coords,
    model_criticality,
    n_quadratic_coeffs,
    project_secondary,
)
from subdfo.numerics import BASIS_ORTHO_TOL, Basis, orthonormal_basis


def make_set(base, base_value, p, q, primary=(), secondary=()):
    iset = InterpolationSet(np.asarray(base, float), base_value, p, q)
    for pt, val in primary:
        iset.add_primary(np.asarray(pt, float), val)
    for pt, val in secondary:
        iset.add_primary(np.asarray(pt, float), val)
        iset.move_to_secondary(len(iset.primary) - 1)
    return iset


class TestInterpolationSet:
    def test_base_protected_and_ages(self):
        iset = make_set([0.0, 0.0], 1.0, 1, 3, primary=[((1.0, 0.0), 2.0), ((0.0, 1.0), 3.0)])
        with pytest.raises(ContractViolationError):
            iset.move_to_secondary(iset.base_index)
        iset.move_to_secondary(1)
        iset.move_to_secondary(1)
        # capacity q - p - 1 = 1: the older demotion was discarded
        assert len(iset.secondary) == 1
        assert iset.secondary_values == [3.0]
        # three demotions into capacity 1 keep only the newest
        iset = make_set([0.0], 0.0, 1, 3, primary=[((1.0,), 1.0), ((2.0,), 2.0), ((3.0,), 3.0)])
        for _ in range(3):
            iset.move_to_secondary(1)
        assert iset.secondary_values == [3.0]

    def test_recenter(self):
        iset = make_set([0.0], 5.0, 1, 3, primary=[((1.0,), 2.0)])
        iset.recenter_to_best()
        assert iset.base_value == 2.0


class _ListSet:
    """The list-based point storage the stacked InterpolationSet must match."""

    def __init__(self, base, base_value, p, q):
        self.capacity = max(0, q - p - 1)
        self.primary = [np.asarray(base, dtype=float)]
        self.primary_values = [float(base_value)]
        self.base_index = 0
        self.secondary = []
        self.secondary_values = []

    def add_primary(self, point, value):
        self.primary.append(np.asarray(point, dtype=float))
        self.primary_values.append(float(value))

    def move_to_secondary(self, index):
        point = self.primary.pop(index)
        value = self.primary_values.pop(index)
        if index < self.base_index:
            self.base_index -= 1
        self.secondary.append(point)
        self.secondary_values.append(value)
        while len(self.secondary) > self.capacity:
            self.secondary.pop(0)
            self.secondary_values.pop(0)

    def recenter_to_best(self):
        self.base_index = int(np.argmin(self.primary_values))

    def primary_directions(self):
        base = self.primary[self.base_index]
        return [y - base for i, y in enumerate(self.primary) if i != self.base_index]


class TestStackedStorage:
    @staticmethod
    def _assert_same(iset, ref):
        n = iset.base.shape[0]
        assert np.array_equal(iset.primary, np.array(ref.primary))
        assert np.array_equal(iset.secondary, np.array(ref.secondary).reshape(-1, n))
        assert iset.primary.flags.c_contiguous and iset.secondary.flags.c_contiguous
        assert iset.primary_values == ref.primary_values
        assert iset.secondary_values == ref.secondary_values
        assert iset.base_index == ref.base_index
        assert np.array_equal(iset.base, ref.primary[ref.base_index])
        dirs = np.array(ref.primary_directions()).reshape(-1, n)
        assert np.array_equal(iset.primary_directions(), dirs)

    @pytest.mark.parametrize("p, q", [(3, 9), (2, 3), (4, 15)])
    def test_scripted_steps_match_list_storage(self, p, q):
        # Adds (beyond the preallocated rows), demotions on both sides of the
        # base, secondary overflow and recentring, checked after every step.
        n = 7
        rng = np.random.default_rng(p * 100 + q)
        base = rng.standard_normal(n)
        iset = InterpolationSet(base, 0.5, p, q)
        ref = _ListSet(base, 0.5, p, q)
        self._assert_same(iset, ref)

        def add():
            pt, val = rng.standard_normal(n), float(rng.standard_normal())
            iset.add_primary(pt, val)
            ref.add_primary(pt, val)

        for _ in range(p + 3):
            add()
            self._assert_same(iset, ref)
        for step in range(200):
            kind = step % 5
            if kind in (0, 1):
                add()
            elif kind in (2, 3) and len(ref.primary) > 1:
                choices = [i for i in range(len(ref.primary)) if i != ref.base_index]
                index = choices[0] if kind == 2 else int(rng.choice(choices))
                iset.move_to_secondary(index)
                ref.move_to_secondary(index)
            else:
                iset.recenter_to_best()
                ref.recenter_to_best()
            self._assert_same(iset, ref)
            assert len(iset.secondary) <= iset.secondary_capacity
        # The acceptance tests read the values as lists.
        vals = list(iset.primary_values)
        vals += iset.secondary_values
        assert vals == ref.primary_values + ref.secondary_values

    def test_base_and_copied_rows_outlive_a_change(self):
        iset = make_set([0.0, 0.0], 1.0, 2, 5, primary=[((1.0, 0.0), 2.0), ((0.0, 1.0), 3.0)])
        base = iset.base
        first = iset.primary[1].copy()
        iset.move_to_secondary(1)
        assert np.array_equal(iset.secondary[-1], first)
        assert np.array_equal(base, [0.0, 0.0])
        assert [list(y) for y in iset.primary] == [[0.0, 0.0], [0.0, 1.0]]


def lifted_factor(iset):
    """F @ Q of the factor the set holds: its columns in full space."""
    q = iset._held
    return q if iset.frame is None else iset.frame.T @ q


def held_factor_errors(iset, basis):
    """(min principal-angle cosine of F Q against a fresh full-space
    orthonormal_basis, max |(FQ)^T FQ - I|, ||D - Z Q^T|| / ||D||) of the
    factor the set holds, with D the primary offsets from the base in frame
    coordinates and Z their recorded coordinates in ``basis``."""
    assert iset._held is not None and np.shares_memory(iset._held, basis.coords)
    q = lifted_factor(iset)
    fresh = orthonormal_basis(iset.primary_directions()).columns
    cosines = np.linalg.svd(fresh.T @ q, compute_uv=False)
    assert fresh.shape == q.shape
    gram = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
    d = iset.frame_directions()
    z = np.delete(iset.primary_coords(basis), iset.base_index, axis=0)
    return cosines.min(), gram, np.linalg.norm(d - z @ iset._held.T) / np.linalg.norm(d)


def hold_fresh(iset):
    """Hold a fresh factor of the primary directions, as add_orthogonal_points does."""
    dirs = iset.frame_directions()
    return iset.hold_basis(orthonormal_basis(dirs) if len(dirs) else None, dirs)


def add_drawn(iset, rng, count):
    """Hold a fresh factor, then add ``count`` points along directions drawn
    orthogonal to it, at random lengths from the base."""
    hold_fresh(iset)
    frame, coords = iset.draw_orthogonal(rng.standard_normal((len(iset.base), count)))
    iset.add_orthogonal(frame, rng.uniform(0.5, 2.0, count), rng.standard_normal(count), coords)


class TestHeldFactor:
    @staticmethod
    def _read(iset):
        basis = iset.held_basis()
        if basis is None:
            hold_fresh(iset)
            basis = iset.held_basis()
        return basis

    @pytest.mark.parametrize("p, q", [(3, 9), (5, 11), (7, 15)])
    def test_scripted_steps_keep_the_factor_exact(self, p, q):
        # Adds, demotions (the old base too, after recentring), recentring,
        # drawn directions appended to a fresh factor, with reads at random
        # times. A read returns None exactly when a point was added or
        # demoted since the factor was held, and every read that returns the
        # held factor passes the three factor checks.
        n = 9
        rng = np.random.default_rng(10 * p + q)
        iset = InterpolationSet(rng.standard_normal(n), 0.0, p, q)
        add_drawn(iset, rng, p)
        stale = False
        held_reads = 0
        for step in range(300):
            kind = int(rng.integers(5))
            if kind == 0 and len(iset.primary) < min(p + 3, n + 1):
                iset.add_primary(rng.standard_normal(n), float(rng.standard_normal()))
                stale = True
            elif kind == 1 and len(iset.primary) > 2:
                choices = [i for i in range(len(iset.primary)) if i != iset.base_index]
                iset.move_to_secondary(int(rng.choice(choices)))
                stale = True
            elif kind == 2:
                iset.primary_values[int(rng.integers(len(iset.primary)))] -= 1.0
                iset.recenter_to_best()
            elif kind == 3 and 0 < p + 1 - len(iset.primary):
                add_drawn(iset, rng, p + 1 - len(iset.primary))
                stale = False
            else:
                basis = iset.held_basis()
                assert (basis is None) == stale, step
                if basis is None:
                    hold_fresh(iset)
                    basis = iset.held_basis()
                    stale = False
                else:
                    held_reads += 1
                cos_min, gram, resid = held_factor_errors(iset, basis)
                assert cos_min >= 1 - 1e-10, step
                assert gram <= BASIS_ORTHO_TOL, step
                assert resid <= 1e-12, step
        assert held_reads > 40

    @pytest.mark.parametrize("p, q", [(3, 9), (6, 13)])
    def test_known_columns_and_coordinates_stay_exact(self, p, q):
        # The solver's cycle, scripted: read, add a point at base + Q s with
        # its coordinates s, demote, recentre, then hold a fresh factor and
        # append orthogonal directions to it as known columns. After every
        # change the recorded coordinates match (primary - base) @ Q of the
        # last read; the read after the append returns the held factor,
        # which passes the three factor checks.
        n = 12
        rng = np.random.default_rng(p + q)
        iset = InterpolationSet(rng.standard_normal(n), 0.0, p, q)
        add_drawn(iset, rng, p)
        appended = 0
        for step in range(80):
            basis = self._read(iset)
            cos_min, gram, resid = held_factor_errors(iset, basis)
            assert cos_min >= 1 - 1e-10 and gram <= BASIS_ORTHO_TOL and resid <= 1e-12, step

            def check():
                direct = (iset.primary - iset.base) @ basis.columns
                assert np.max(np.abs(iset.primary_coords(basis) - direct)) <= 1e-12 * max(
                    1.0, float(np.max(np.linalg.norm(direct, axis=1)))
                ), step
                assert iset._coords[0] is basis

            check()
            s_hat = rng.standard_normal(basis.rank)
            iset.add_primary(iset.base + basis.lift(s_hat), float(rng.standard_normal()), coords=s_hat)
            check()
            for _ in range(int(rng.integers(1, 3))):
                choices = [i for i in range(len(iset.primary)) if i != iset.base_index]
                iset.move_to_secondary(int(rng.choice(choices)))
                check()
            iset.recenter_to_best()
            check()
            count = p + 1 - len(iset.primary)
            if count <= 0:
                assert iset.held_basis() is None
                continue
            held = hold_fresh(iset).shape[1]
            frame, coords = iset.draw_orthogonal(rng.standard_normal((n, count)))
            iset.add_orthogonal(frame, rng.uniform(0.5, 2.0, count), rng.standard_normal(count), coords)
            assert iset._held.shape[1] == held + count
            assert np.array_equal(iset._held[:, held:], coords)
            appended += count
        assert appended > 30

    def test_dependent_direction_is_not_held(self):
        # Three collinear points: orthonormal_basis drops one direction, and
        # the factor is held with the one column left, as a fresh factor of
        # the same directions would be. Replacing the dependent point makes
        # it stale; the refactor holds both directions.
        iset = make_set([0.0, 0.0, 0.0], 0.0, 2, 5, primary=[((1.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 2.0)])
        assert hold_fresh(iset).shape == (3, 1)
        assert iset.held_basis().rank == 1
        assert iset.held_basis().rank == 1
        iset.move_to_secondary(2)
        iset.add_primary(np.array([0.0, 1.0, 0.0]), 1.0)
        assert iset.held_basis() is None
        assert self._read(iset).rank == 2

    def test_dependent_insertion_drops_the_factor(self):
        # A point added or demoted without a fresh factor leaves the read
        # to refactor, which drops a dependent direction.
        iset = make_set([0.0, 0.0, 0.0], 0.0, 3, 7, primary=[((1.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0)])
        self._read(iset)
        iset.add_primary(np.array([1.0, 1.0, 0.0]), 1.0)
        assert iset.held_basis() is None
        assert self._read(iset).rank == 2
        iset.move_to_secondary(3)
        assert iset.held_basis() is None
        # More directions than dimensions.
        iset = make_set([0.0, 0.0], 0.0, 2, 5, primary=[((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
        self._read(iset)
        iset.add_primary(np.array([1.0, 1.0]), 1.0)
        assert iset.held_basis() is None
        assert self._read(iset).rank == 2

    def test_drifted_factor_is_dropped(self):
        # The read is the Basis check: columns that fail it are dropped, and
        # the next refactor is held and read again.
        rng = np.random.default_rng(0)
        iset = InterpolationSet(np.zeros(20), 0.0, 5, 11)
        for _ in range(5):
            iset.add_primary(rng.standard_normal(20), 1.0)
        self._read(iset)
        assert iset.held_basis() is not None
        iset._held = iset._held + 1e-11 * rng.standard_normal((20, 5))
        assert iset.held_basis() is None
        assert iset._held is None
        basis = self._read(iset)
        assert basis.gram_error <= BASIS_ORTHO_TOL
        assert iset.held_basis() is not None

    @pytest.mark.parametrize("n, p, q", [(9, 5, 11), (40, 5, 11)])
    def test_record_equals_the_insert_and_delete_forms(self, n, p, q):
        # hold_basis records the primary coordinates as np.insert(D Q, b, 0)
        # did, at every base index, and a demotion deletes a row as np.delete
        # did; 40 > 2q runs in a grown frame.
        rng = np.random.default_rng(n + p)
        for b in range(p + 1):
            iset = InterpolationSet(rng.standard_normal(n), 0.0, p, q)
            for _ in range(p):
                iset.add_primary(rng.standard_normal(n), 1.0)
            iset.primary_values[b] = -1.0
            iset.recenter_to_best()
            assert iset.base_index == b
            dirs = iset.frame_directions()
            q_mat = hold_fresh(iset)
            record = iset._coords[1]
            assert record.tobytes() == np.insert(dirs @ q_mat, b, 0.0, axis=0).tobytes()
            assert record.flags.c_contiguous
            index = p if b == 0 else b - 1
            iset.move_to_secondary(index)
            assert iset._coords[1].tobytes() == np.delete(record, index, axis=0).tobytes()

    def test_row_helpers_equal_np_insert_and_np_delete(self):
        rng = np.random.default_rng(12)
        for rows, cols in ((1, 3), (5, 1), (26, 25), (0, 4)):
            a = rng.standard_normal((rows, cols))
            if a.size:
                a.flat[0], a.flat[-1] = -0.0, np.nan
            for b in range(rows + 1):
                got = interp_mod._with_zero_row(a, b)
                assert got.tobytes() == np.insert(a, b, 0.0, axis=0).tobytes()
                assert got.shape == (rows + 1, cols) and got.flags.c_contiguous
            for b in range(rows):
                got = interp_mod._without_row(a, b)
                assert got.tobytes() == np.delete(a, b, axis=0).tobytes()
                assert got.shape == (rows - 1, cols) and got.flags.c_contiguous


class TestFramedSet:
    def test_scripted_steps_keep_points_in_the_frame(self):
        # n > 2q: every point is o + F w. Points without coordinates are
        # projected on the frame and extend it when they lie off its span;
        # points near the held span join with subspace coordinates; drawn
        # directions join a fresh factor, which the frame's growth and
        # compactions carry; more than q stored points widen the frame's
        # buffer. Reads pass the factor checks, and the frame stays
        # orthonormal.
        n, p, q = 40, 3, 7
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(n)
        iset = InterpolationSet(x0, 0.0, p, q)
        assert iset.frame is not None and len(iset.frame) == 0
        plane = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        for _ in range(p):
            iset.add_primary(x0 + plane @ rng.standard_normal(5), float(rng.standard_normal()))
        reads = held_reads = 0
        for step in range(300):
            kind = int(rng.integers(5))
            if kind == 0 and len(iset.primary) < p + 6:
                off = rng.standard_normal(n) if rng.uniform() < 0.5 else plane @ rng.standard_normal(5)
                iset.add_primary(x0 + off, float(rng.standard_normal()))
            elif kind == 1 and len(iset.primary) > 2:
                choices = [i for i in range(len(iset.primary)) if i != iset.base_index]
                iset.move_to_secondary(int(rng.choice(choices)))
            elif kind == 2:
                iset.primary_values[int(rng.integers(len(iset.primary)))] -= 1.0
                iset.recenter_to_best()
            elif kind == 3 and len(iset.primary) < p + 5:
                add_drawn(iset, rng, int(rng.integers(1, 3)))
            elif len(iset.primary) > 1:
                basis = iset.held_basis()
                held_reads += basis is not None
                basis = basis or TestHeldFactor._read(iset)
                reads += 1
                direct = (iset.primary - iset.base) @ basis.columns
                assert np.max(np.abs(iset.primary_coords(basis) - direct)) <= 1e-12 * max(
                    1.0, float(np.max(np.linalg.norm(direct, axis=1)))
                ), step
                cos_min, gram, resid = held_factor_errors(iset, basis)
                assert cos_min >= 1 - 1e-10 and gram <= BASIS_ORTHO_TOL and resid <= 1e-12, step
                if kind == 4 and len(iset.primary) < p + 6:
                    s_hat = 0.1 * rng.standard_normal(basis.rank)
                    trial = iset.base + basis.lift(s_hat)
                    assert not iset.contains_primary(trial, s_hat)
                    iset.add_primary(trial, float(rng.standard_normal()), coords=s_hat)
                    assert iset.contains_primary(trial, s_hat)
            self._check(iset, step)
        assert reads > 40 and held_reads > 10
        assert iset._rotation is not None  # compacted at least once
        # More stored points than the frame's width: its buffer widens.
        iset = InterpolationSet(x0, 0.0, 1, 3)
        for step in range(6):
            iset.add_primary(rng.standard_normal(n), 0.0)
            self._check(iset, step)
        assert len(iset.frame) == 6 > 3 * 3 // 2

    @staticmethod
    def _check(iset, step):
        pts = np.vstack([iset.primary, iset.secondary])
        coords = np.vstack([iset.primary_frame_coords, iset.secondary_frame_coords])
        resid = iset.origin + coords @ iset.frame - pts
        assert np.max(np.linalg.norm(resid, axis=1)) <= 1e-12 * max(
            1.0, float(np.max(np.linalg.norm(pts, axis=1)))
        ), step
        f = iset.frame
        assert np.max(np.abs(f @ f.T - np.eye(len(f))), initial=0.0) <= BASIS_ORTHO_TOL, step


class TestProjectSecondary:
    def test_in_subspace_point_recovers_coordinates(self):
        basis = Basis(np.array([[1.0], [0.0]]))
        z = np.array([0.7])
        iset = make_set([0.0, 0.0], 0.0, 1, 4, secondary=[(basis.lift(z), 1.5)])
        [(coords, val)] = project_secondary(iset, basis)
        assert coords == pytest.approx(z)
        assert val == 1.5

    def test_hand_projection(self):
        basis = Basis(np.array([[1.0], [0.0]]))
        iset = make_set([0.0, 0.0], 0.0, 1, 4, secondary=[((3.0, 4.0), 9.0)])
        [(coords, _)] = project_secondary(iset, basis)
        assert coords[0] == pytest.approx(3.0, abs=1e-14)

    def test_empty(self):
        basis = Basis(np.array([[1.0], [0.0]]))
        iset = make_set([0.0, 0.0], 0.0, 1, 4)
        assert project_secondary(iset, basis) == []


def quadratic_on_line(x):
    return float(x[0] ** 2)


class TestDedupCoords:
    def test_greedy_chain_and_exact_duplicate(self):
        # a ~ b ~ c within tol 1 but a is 1.6 from c: b goes as a near
        # duplicate of a, and c stays because its only close point, b, is
        # gone. The exact duplicate of a goes too.
        a, b, c = [0.0, 0.0], [0.8, 0.0], [1.6, 0.0]
        assert list(_dedup_coords(np.array([a, b, c, a]), 1.0)) == [0, 2]

    def test_matches_the_plain_greedy_loop(self):
        # Reference: visit every point in order, keep it unless a kept
        # earlier point lies within tol.
        def greedy(pts, tol):
            keep = []
            for j, y in enumerate(pts):
                if all(np.linalg.norm(y - pts[i]) >= tol for i in keep):
                    keep.append(j)
            return keep

        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.integers(0, 4, size=(int(rng.integers(1, 15)), 2)) * 0.5
            pts = pts + rng.uniform(-0.1, 0.1, size=pts.shape)
            for tol in (1e-10, 0.3, 0.7):
                assert list(_dedup_coords(pts, tol)) == greedy(pts, tol)

    def test_close_matrix_matches_the_full_distance_tensor(self):
        # The lower-triangle distances reduce each pair as the full m x m
        # tensor did, so the same points are dropped even at tol equal to a
        # pair distance.
        def full_tensor(pts, tol):
            diff = pts[:, None, :] - pts[None, :, :]
            close = np.tril(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) < tol, -1)
            keep = np.ones(len(pts), dtype=bool)
            for j in np.flatnonzero(close.any(axis=1)):
                keep[j] = not np.any(close[j] & keep)
            return list(np.flatnonzero(keep))

        rng = np.random.default_rng(11)
        for m, r in ((101, 50), (40, 12), (3, 1)):
            pts = rng.standard_normal((m, r)) * 1e-3
            pts[m // 2] = pts[0] + 1e-13
            lower = np.tril_indices(m, -1)
            dist = np.linalg.norm(pts[lower[0]] - pts[lower[1]], axis=1)
            for tol in (1e-10, float(np.median(dist)), float(np.sort(dist)[1])):
                assert list(_dedup_coords(pts, tol)) == full_tensor(pts, tol), (m, tol)


    def test_matches_the_all_pairs_reference(self):
        # Reference: the version that took the distance of every pair. The
        # windowed search must keep the same points: on random sets, on
        # chains of near-duplicates whose greedy order decides what stays,
        # and at tol equal to a pair distance.
        def all_pairs(pts, tol):
            pts = np.atleast_2d(np.asarray(pts))
            lower = np.tril_indices(len(pts), -1)
            diff = np.take(pts, lower[0], axis=0) - np.take(pts, lower[1], axis=0)
            close = np.zeros((len(pts), len(pts)), dtype=bool)
            close[lower] = np.sqrt(np.einsum("ij,ij->i", diff, diff)) < tol
            keep = np.ones(len(pts), dtype=bool)
            for j in np.flatnonzero(close.any(axis=1)):
                keep[j] = not np.any(close[j] & keep)
            return list(np.flatnonzero(keep))

        rng = np.random.default_rng(29)
        cases = []
        for m, r in ((1, 3), (2, 1), (7, 2), (51, 25), (91, 12), (101, 50)):
            pts = rng.standard_normal((m, r))
            lower = np.tril_indices(m, -1)
            dist = np.linalg.norm(pts[lower[0]] - pts[lower[1]], axis=1)
            tols = [1e-10, 0.5, 3.0] + [float(d) for d in np.sort(dist)[:3]]
            cases.append((pts, tols))
        for r in (1, 4, 30):
            # Chains: each point lies 0.6 tol from the one before, in a
            # random direction, in shuffled order, plus exact duplicates.
            steps = rng.standard_normal((40, r))
            steps *= 0.6 / np.linalg.norm(steps, axis=1, keepdims=True)
            pts = np.cumsum(steps, axis=0)[rng.permutation(40)]
            pts = np.vstack([pts, pts[:5]])
            cases.append((pts, [1.0, 0.6, 1.2, float(np.linalg.norm(pts[1] - pts[0]))]))
        # Points on coordinate axes, as orthogonal directions leave them,
        # with near-duplicates and tol at the gap of a planted pair.
        axes = np.vstack([np.zeros(12), 0.3 * np.eye(12), -0.3 * np.eye(12)])
        axes = np.vstack([axes, axes[3:6] + 1e-11, axes[7] + 4e-11 * np.eye(12)[0]])
        cases.append((axes, [1e-10, 1e-11, 4e-11, float(np.linalg.norm(axes[-1] - axes[7]))]))
        # Gaps along one coordinate at and around tol, and tiny tols.
        line = np.zeros((6, 3))
        line[:, 0] = [0.0, 1e-10, 2e-10, 3e-10 + 1e-26, 1.0, 1.0 + 1e-10]
        cases.append((line, [1e-10, np.nextafter(1e-10, 1.0), 2e-10, 1e-300]))
        cases.append((rng.standard_normal((30, 4)) * 1e-160, [1e-160, 1e-155, 1e-300]))
        for pts, tols in cases:
            for tol in tols:
                assert list(_dedup_coords(pts, tol)) == all_pairs(pts, tol), (pts.shape, tol)

    def test_non_finite_coordinates_are_never_close(self):
        pts = np.array([[0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [np.inf, 0.0], [0.0, 1e-12]])
        with np.errstate(invalid="ignore"):  # inf - inf
            assert list(_dedup_coords(pts, 1e-10)) == [0, 1, 2, 3]


class TestBuildMfnModel:
    def test_affine_objective_zero_hessian(self):
        rng = np.random.default_rng(1)
        n, p = 5, 2
        g_full = rng.standard_normal(n)
        c0 = 0.7

        def f(x):
            return c0 + float(g_full @ x)

        base = rng.standard_normal(n)
        dirs = [rng.standard_normal(n) for _ in range(p)]
        basis = orthonormal_basis(dirs)
        iset = InterpolationSet(base, f(base), p, 2 * p + 1)
        for j in range(p):
            pt = base + basis.columns[:, j]
            iset.add_primary(pt, f(pt))
        extra = base + basis.columns @ np.array([0.3, -0.4])
        iset.add_primary(extra, f(extra))
        iset.move_to_secondary(len(iset.primary) - 1)

        model = build_mfn_model(iset, basis, prev=None)
        assert np.allclose(model.gradient, basis.columns.T @ g_full, atol=1e-9)
        assert np.max(np.abs(model.hessian)) <= 1e-9

    def test_unique_parabola(self):
        # Three points on a line fully determine the 1-D quadratic x^2.
        basis = Basis(np.array([[1.0]]))
        iset = make_set(
            [0.0], 0.0, 1, 3,
            primary=[((1.0,), 1.0)],
            secondary=[((-1.0,), 1.0)],
        )
        model = build_mfn_model(iset, basis, prev=None)
        assert model.constant == pytest.approx(0.0, abs=1e-10)
        assert model.gradient[0] == pytest.approx(0.0, abs=1e-10)
        assert model.hessian[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_prior_inactive_when_fully_determined(self):
        basis = Basis(np.array([[1.0]]))
        iset = make_set(
            [0.0], 0.0, 1, 3,
            primary=[((1.0,), 1.0)],
            secondary=[((-1.0,), 1.0)],
        )
        prev = SubspaceModel(np.zeros(1), np.array([[1.0]]), 0.0, np.zeros(1), np.array([[5.0]]))
        model = build_mfn_model(iset, basis, prev=prev)
        assert model.hessian[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_interpolation_residuals_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = int(rng.integers(1, 5))
            n = p + int(rng.integers(0, 4))
            q = int(rng.integers(p + 2, n_quadratic_coeffs(p) + 1))
            base = rng.standard_normal(n)
            basis = orthonormal_basis([rng.standard_normal(n) for _ in range(p)])

            def f(x):
                return float(np.sin(x @ np.arange(1.0, n + 1)) + 0.1 * x @ x)

            iset = InterpolationSet(base, f(base), p, q)
            for j in range(basis.rank):
                pt = base + rng.uniform(0.5, 1.5) * basis.columns[:, j]
                iset.add_primary(pt, f(pt))
            for _ in range(int(rng.integers(0, q - p))):
                pt = base + basis.columns @ rng.standard_normal(basis.rank)
                iset.add_primary(pt, f(pt))
                iset.move_to_secondary(len(iset.primary) - 1)
            prev = None
            if rng.uniform() < 0.5:
                h = rng.standard_normal((basis.rank, basis.rank))
                prev = SubspaceModel(
                    base, basis.columns, 0.0, np.zeros(basis.rank), h + h.T
                )
            model = build_mfn_model(iset, basis, prev=prev)

            coords = [basis.project_coords(y - base) for y in iset.primary]
            vals = list(iset.primary_values)
            for s, v in project_secondary(iset, basis):
                coords.append(s)
                vals.append(v)
            for s, v in zip(coords, vals):
                assert abs(model.value(s) - v) <= 1e-9 * max(1.0, abs(v))

    def test_mfn_beats_sampled_feasible_hessians(self):
        # Brute-force oracle: parameterize all interpolating quadratics via
        # the null space of the constraint matrix and sample it densely; the
        # MFN Hessian must be at least as close to the prior in Frobenius
        # norm as every sampled feasible Hessian.
        rng = np.random.default_rng(17)
        for trial in range(10):
            p = int(rng.integers(1, 4))
            n = p
            base = np.zeros(n)
            basis = Basis(np.eye(n))
            q = min(2 * p + 1, n_quadratic_coeffs(p))

            def f(x):
                return float(np.cos(x.sum()) + x @ x)

            iset = InterpolationSet(base, f(base), p, q)
            for j in range(p):
                pt = base + np.eye(n)[j]
                iset.add_primary(pt, f(pt))
            pt = base + rng.standard_normal(n) * 0.8
            iset.add_primary(pt, f(pt))
            iset.move_to_secondary(len(iset.primary) - 1)

            h = rng.standard_normal((p, p))
            h_prior = h + h.T
            prev = SubspaceModel(base, basis.columns, 0.0, np.zeros(p), h_prior)
            model = build_mfn_model(iset, basis, prev=prev)
            ours = np.linalg.norm(model.hessian - h_prior, "fro")

            coords = [basis.project_coords(y - base) for y in iset.primary]
            vals = list(iset.primary_values)
            for s, v in project_secondary(iset, basis):
                coords.append(s)
                vals.append(v)
            # Constraint matrix over monomial coefficients (c, g, vech H).
            cols = []
            m = len(coords)
            rows = np.zeros((m, n_quadratic_coeffs(p)))
            for i, s in enumerate(coords):
                row = [1.0] + list(s)
                row += [0.5 * s[a] ** 2 for a in range(p)]
                row += [s[a] * s[b] for a in range(p) for b in range(a + 1, p)]
                rows[i] = row
            del cols
            coef0, *_ = np.linalg.lstsq(rows, np.array(vals), rcond=None)
            _, sv, vt = np.linalg.svd(rows)
            null = vt[np.sum(sv > 1e-10 * sv[0]):].T  # basis of the null space

            def hess_from(coef):
                hm = np.zeros((p, p))
                hm[np.diag_indices(p)] = coef[p + 1 : 2 * p + 1]
                idx = 2 * p + 1
                for a in range(p):
                    for b in range(a + 1, p):
                        hm[a, b] = hm[b, a] = coef[idx]
                        idx += 1
                return hm

            best = np.inf
            for _ in range(400):
                t = rng.standard_normal(null.shape[1]) * 3.0 if null.size else np.zeros(0)
                cand = coef0 + (null @ t if null.size else 0.0)
                best = min(best, np.linalg.norm(hess_from(cand) - h_prior, "fro"))
            assert ours <= best + 1e-6

    def test_infeasible_collinear_constraints_raise(self):
        # Four distinct collinear points carrying cubic values cannot be
        # interpolated by any quadratic restricted to that line, so the KKT
        # system is inconsistent even after regularization.
        basis = Basis(np.eye(2))
        iset = make_set(
            [0.0, 0.0], 0.0, 2, 6,
            primary=[((1.0, 0.0), 1.0), ((2.0, 0.0), 8.0)],
            secondary=[((3.0, 0.0), 27.0)],
        )
        with pytest.raises(ModelConstructionError):
            build_mfn_model(iset, basis)

    def test_inaccurate_saddle_solution_is_rejected(self, monkeypatch):
        # A saddle solution that misses the system by a relative 1e-6 gives
        # no model.
        import subdfo.interp as interp_mod

        real = interp_mod.solve_saddle_system
        rng = np.random.default_rng(2)

        def perturbed(a, b, rhs):
            sol = real(a, b, rhs)
            return sol + 1e-6 * max(1.0, np.max(np.abs(sol))) * rng.standard_normal(sol.shape)

        basis = Basis(np.eye(2))
        iset = make_set(
            [0.0, 0.0], 0.0, 2, 6,
            primary=[((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)],
            secondary=[((-1.0, 0.5), 0.5), ((0.5, -1.0), 3.0)],
        )
        build_mfn_model(iset, basis)
        monkeypatch.setattr(interp_mod, "solve_saddle_system", perturbed)
        with pytest.raises(ModelConstructionError):
            build_mfn_model(iset, basis)

    def test_primary_only_build_matches_set_of_primaries_base_first(self):
        # The MFN fallback: use_secondary=False must give bit for bit the
        # model of a set holding only the primary points, base first, and
        # must not see the secondary points. At this size a build over the
        # primary points in their stored order differs in the last bits.
        rng = np.random.default_rng(0)
        n, p = 12, 8

        def f(x):
            return float(x @ x + np.sin(x).sum())

        iset = InterpolationSet(rng.standard_normal(n), 0.0, p, 2 * p + 4)
        iset.primary_values[0] = f(iset.base)
        for _ in range(p + 2):
            pt = rng.standard_normal(n)
            iset.add_primary(pt, f(pt))
        iset.move_to_secondary(1)
        iset.move_to_secondary(1)
        iset.base_index = 2  # base in the middle of the stored order
        basis = orthonormal_basis(iset.primary_directions())
        prev = SubspaceModel(None, basis.columns, 0.0, np.zeros(p), np.eye(p))

        trimmed = InterpolationSet(iset.base, iset.base_value, p, 2 * p + 4)
        for i, (y, v) in enumerate(zip(iset.primary, iset.primary_values)):
            if i != iset.base_index:
                trimmed.add_primary(y, v)
        ours = build_mfn_model(iset, basis, prev, use_secondary=False)
        ref = build_mfn_model(trimmed, basis, prev)
        assert np.array_equal(ours.gradient, ref.gradient)
        assert np.array_equal(ours.hessian, ref.hessian)
        assert ours.constant == ref.constant

        with_secondary = build_mfn_model(iset, basis, prev)
        assert not np.array_equal(with_secondary.hessian, ours.hessian)


class TestFullQuadraticModel:
    def test_reproduces_known_quadratic(self):
        p = 2
        rng = np.random.default_rng(2)
        g = rng.standard_normal(p)
        a = rng.standard_normal((p, p))
        h = a + a.T
        c = -0.3

        def f(s):
            return c + g @ s + 0.5 * s @ (h @ s)

        coords = full_quadratic_stencil(p, 0.5)
        model = build_full_quadratic_model(coords, [f(s) for s in coords])
        assert model.constant == pytest.approx(c, abs=1e-9)
        assert np.allclose(model.gradient, g, atol=1e-9)
        assert np.allclose(model.hessian, h, atol=1e-9)

    def test_constant_objective(self):
        coords = full_quadratic_stencil(3, 1.0)
        model = build_full_quadratic_model(coords, [4.0] * len(coords))
        assert np.max(np.abs(model.gradient)) <= 1e-9
        assert np.max(np.abs(model.hessian)) <= 1e-9

    def test_duplicate_point_rejected(self):
        coords = full_quadratic_stencil(2, 1.0)
        coords[1] = coords[2]
        with pytest.raises(ModelConstructionError):
            build_full_quadratic_model(coords, np.zeros(len(coords)))

    def test_wrong_count_rejected(self):
        with pytest.raises(ContractViolationError):
            build_full_quadratic_model(np.zeros((4, 2)), np.zeros(4))

    def test_stencil_matches_the_directly_scaled_construction(self):
        # Reference: the stencil built from delta row by row. The cached
        # unit stencil scaled by delta must equal it bit for bit, signed
        # zeros included, and a caller's edits must not reach the cache.
        def reference(p, delta):
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

        for p in range(1, 7):
            for delta in (1.0, 0.5, 1e-3, 0.1, 7.25, 3e-9, 1e300, 5e-324, 0.0):
                ours = full_quadratic_stencil(p, delta)
                ref = reference(p, delta)
                assert ours.shape == ref.shape == (n_quadratic_coeffs(p), p)
                assert ours.tobytes() == ref.tobytes(), (p, delta)
            ours[:] = 9.0
            assert full_quadratic_stencil(p, 1.0).tobytes() == reference(p, 1.0).tobytes()

    def test_model_matches_the_column_by_column_construction(self):
        # Reference: design columns and Hessian entries filled pair by pair,
        # and the coefficients as the design's inverse times the values.
        def reference(coords, values):
            m, p = coords.shape
            dbar = float(np.max(np.linalg.norm(coords, axis=1)))
            u = coords / dbar
            cols = [np.ones(m)]
            cols.extend(u[:, i] for i in range(p))
            cols.extend(0.5 * u[:, i] ** 2 for i in range(p))
            for i in range(p):
                for j in range(i + 1, p):
                    cols.append(u[:, i] * u[:, j])
            coef = np.linalg.inv(np.column_stack(cols)) @ values
            hess = np.zeros((p, p))
            hess[np.diag_indices(p)] = coef[p + 1 : 2 * p + 1]
            idx = 2 * p + 1
            for i in range(p):
                for j in range(i + 1, p):
                    hess[i, j] = hess[j, i] = coef[idx]
                    idx += 1
            return float(coef[0]), coef[1 : p + 1] / dbar, hess / dbar**2

        rng = np.random.default_rng(5)
        for p in range(1, 7):
            coords = full_quadratic_stencil(p, 0.3) + rng.uniform(-0.01, 0.01, (n_quadratic_coeffs(p), p))
            values = rng.standard_normal(len(coords))
            model = build_full_quadratic_model(coords, values)
            const, grad, hess = reference(coords, values)
            assert model.constant == const
            assert model.gradient.tobytes() == grad.tobytes()
            assert model.hessian.tobytes() == hess.tobytes()


    @staticmethod
    def counting_inverse(monkeypatch):
        # Every design factorization goes through np.linalg.inv; start from
        # an empty memo so earlier builds do not count.
        calls = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or real(a))
        interp_mod._quadratic_design.cache_clear()
        return calls

    def test_design_is_factored_once_per_stencil(self, monkeypatch):
        calls = self.counting_inverse(monkeypatch)
        rng = np.random.default_rng(8)
        coords = full_quadratic_stencil(3, 0.5)
        first = build_full_quadratic_model(coords, rng.standard_normal(len(coords)))
        values = rng.standard_normal(len(coords))
        second = build_full_quadratic_model(coords.copy(), values)
        assert calls == [(10, 10)]
        # The memo's answer is the one a fresh factorization gives.
        interp_mod._quadratic_design.cache_clear()
        fresh = build_full_quadratic_model(coords, values)
        assert calls == [(10, 10), (10, 10)]
        assert second.gradient.tobytes() == fresh.gradient.tobytes()
        assert second.hessian.tobytes() == fresh.hessian.tobytes()
        assert first.gradient.tobytes() != second.gradient.tobytes()
        # A new shape is factored again.
        coords4 = full_quadratic_stencil(4, 0.5)
        build_full_quadratic_model(coords4, rng.standard_normal(len(coords4)))
        assert calls == [(10, 10), (10, 10), (15, 15)]

    def test_cached_design_is_read_only(self):
        u, _ = interp_mod._unit_scale(full_quadratic_stencil(3, 0.5))
        design, inverse = interp_mod._quadratic_design(u.shape, u.tobytes())
        for arr in (design, inverse):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_non_poised_set_raises_on_every_call(self, monkeypatch):
        calls = self.counting_inverse(monkeypatch)
        coords = full_quadratic_stencil(2, 1.0)
        coords[1] = coords[2]
        for _ in range(3):
            with pytest.raises(ModelConstructionError):
                build_full_quadratic_model(coords, np.zeros(len(coords)))
        assert len(calls) == 3
        assert interp_mod._quadratic_design.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, bad):
        coords = full_quadratic_stencil(3, 0.5)
        values = np.ones(len(coords))
        build_full_quadratic_model(coords, values)
        values[4] = bad
        for _ in range(2):
            with pytest.raises(ModelConstructionError):
                build_full_quadratic_model(coords, values)

    def test_base_and_map_are_the_model_location(self):
        coords = full_quadratic_stencil(2, 0.5)
        base, mat = np.arange(5.0), np.ones((5, 2))
        model = build_full_quadratic_model(coords, np.arange(6.0), base=base, map=mat)
        assert model.base is base
        assert np.array_equal(model.map, mat)


class TestOrthonormalRows:
    @staticmethod
    def cholesky_qr(x):
        # Reference: the general Cholesky QR path, with its pass count.
        c = len(x)
        t = np.eye(c)
        for passes in (1, 2):
            chol = np.linalg.cholesky(x @ x.T)
            x = np.linalg.inv(chol) @ x
            t = chol.T @ t
            if np.max(np.abs(x @ x.T - np.eye(c))) <= interp_mod.FRAME_ORTHO_TOL:
                return x, t, passes
        raise ContractViolationError("no convergence")

    def test_one_row_matches_the_cholesky_path_bit_for_bit(self):
        rng = np.random.default_rng(21)
        passes = {1: 0, 2: 0}
        for trial in range(600):
            n = int(rng.integers(2, 2500))
            # Tiny rows lose the Gram entry to underflow, so the first pass
            # leaves them off unit length and the second pass runs.
            scale = 10.0 ** (rng.uniform(-163, -152) if trial % 2 else rng.uniform(-5, 5))
            x = rng.standard_normal((1, n)) * scale
            try:
                ref_u, ref_t, used = self.cholesky_qr(x)
            except (np.linalg.LinAlgError, ContractViolationError):
                with pytest.raises(ContractViolationError):
                    interp_mod._orthonormal_rows(x)
                continue
            passes[used] += 1
            u, t = interp_mod._orthonormal_rows(x)
            assert u.tobytes() == ref_u.tobytes(), trial
            assert t.tobytes() == ref_t.tobytes(), trial
            # draw_orthogonal divides by t instead of applying inv(t)^T.
            d = rng.standard_normal((1, n))
            assert ((1.0 / t[0, 0]) * d).tobytes() == (np.linalg.inv(t).T @ d).tobytes()
        assert passes[1] > 100 and passes[2] > 100, passes

    def test_zero_row_raises(self):
        for n in (1, 5, 300):
            with pytest.raises(ContractViolationError):
                interp_mod._orthonormal_rows(np.zeros((1, n)))


class TestLagrange:
    def test_two_point_line(self):
        lag = lagrange_from_coords(np.array([[0.0], [2.0]]))
        assert lag.evaluate([0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)
        assert lag.evaluate([2.0]) == pytest.approx([0.0, 1.0], abs=1e-12)
        assert lag.evaluate([1.0])[1] == pytest.approx(0.5, abs=1e-12)

    def test_simplex_barycentric(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lag = lagrange_from_coords(coords)
        s = np.array([0.3, 0.4])
        assert lag.evaluate(s)[1] == pytest.approx(0.3, abs=1e-12)
        assert lag.evaluate(s)[2] == pytest.approx(0.4, abs=1e-12)

    def test_kronecker_property(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((4, 3))
        lag = lagrange_from_coords(coords)
        vals = np.column_stack([lag.evaluate(s) for s in coords])
        assert np.max(np.abs(vals - np.eye(4))) <= 1e-8

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGeometryError):
            lagrange_from_coords(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_cardinality_after_mutations(self):
        # Demote/replenish cycles must keep the primary set Lagrange-poised.
        from subdfo.solvers import add_orthogonal_points, remove_single_point

        rng = np.random.default_rng(20)
        n, p = 5, 3
        iset = InterpolationSet(np.zeros(n), 0.0, p, 2 * p + 1)
        add_orthogonal_points(iset, 1.0, p, rng, lambda x: float(x @ x))
        for _ in range(5):
            basis = orthonormal_basis([y - iset.base for y in iset.primary[1:]])
            coords = np.array([basis.project_coords(y - iset.base) for y in iset.primary])
            lag = lagrange_from_coords(coords)
            card = np.column_stack([lag.evaluate(s) for s in coords])
            assert np.max(np.abs(card - np.eye(len(coords)))) <= 1e-8
            remove_single_point(iset, basis, rng.standard_normal(n), 1.0)
            add_orthogonal_points(iset, 0.7, 1, rng, lambda x: float(x @ x))


class TestEvaluateModel:
    def test_at_zero_returns_constant(self):
        m = SubspaceModel(None, None, 3.5, np.zeros(2), np.zeros((2, 2)))
        assert m.value(np.zeros(2)) == 3.5

    def test_hand_value(self):
        m = SubspaceModel(None, None, 0.0, np.array([1.0, 0.0]), 2.0 * np.eye(2))
        assert m.value(np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_asymmetric_hessian_rejected_at_construction(self):
        with pytest.raises(ContractViolationError):
            SubspaceModel(None, None, 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_overflowed_coefficients_are_a_model_failure(self):
        with pytest.raises(ModelConstructionError, match="must be finite"):
            SubspaceModel(None, None, 0.0, np.array([np.inf, 0.0]), np.eye(2))

    def test_failed_eigendecomposition_is_a_model_failure(self, monkeypatch):
        def no_convergence(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        m = SubspaceModel(None, None, 0.0, np.zeros(2), np.eye(2))
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ModelConstructionError, match="did not converge"):
            m.eig


def _quadratic_problem(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    a = rng.standard_normal((n, n))
    h = a + a.T

    def f(x):
        return float(g @ x + 0.5 * x @ (h @ x))

    def grad(x):
        return g + h @ x

    def hess(x):
        return h

    return f, grad, hess


class TestCertificates:
    def test_exact_quadratic_restriction_has_zero_linear_errors(self):
        n, p = 4, 2
        f, grad, hess = _quadratic_problem(n, 3)
        base = np.zeros(n)
        basis = orthonormal_basis([np.eye(n)[0], np.eye(n)[1]])
        q = basis.columns
        model = SubspaceModel(base, q, f(base), q.T @ grad(base), q.T @ hess(base) @ q)
        cert = certify_fully_linear(model, f, grad, delta=0.5, samples=50, seed=0)
        assert cert.kappa_ef_est <= 1e-9
        assert cert.kappa_eg_est <= 1e-9

    def test_exact_quadratic_full_model_zero_errors(self):
        n, p = 3, 3
        f, grad, hess = _quadratic_problem(n, 7)
        base = np.zeros(n)
        q = np.eye(n)
        model = SubspaceModel(base, q, f(base), grad(base), hess(base))
        cert = certify_fully_quadratic(model, f, grad, hess, delta=0.3, samples=40, seed=1)
        assert cert.kappa_ef_est <= 1e-8
        assert cert.kappa_eg_est <= 1e-8
        assert cert.kappa_eh_est <= 1e-8

    def test_quartic_full_quadratic_certificate(self):
        def f(x):
            return float(x[0] ** 4)

        def grad(x):
            return np.array([4.0 * x[0] ** 3])

        def hess(x):
            return np.array([[12.0 * x[0] ** 2]])

        delta = 0.1
        coords = np.array([[0.0], [delta], [-delta]])
        model = build_full_quadratic_model(coords, [f(s) for s in coords])
        model = SubspaceModel(np.zeros(1), np.eye(1), model.constant, model.gradient, model.hessian)
        cert = certify_fully_quadratic(model, f, grad, hess, delta, samples=25, seed=3)
        assert np.isfinite(cert.kappa_ef_est)
        assert np.isfinite(cert.kappa_eg_est)
        assert np.isfinite(cert.kappa_eh_est)
        for s in np.linspace(-delta, delta, 9):
            err = abs(f(np.array([s])) - model.value([s]))
            assert err <= cert.kappa_ef_est * delta**3 + 1e-15

    def test_cubic_linear_model_certificate_finite(self):
        def f(x):
            return float(x[0] ** 3)

        def grad(x):
            return np.array([3.0 * x[0] ** 2])

        delta = 0.1
        base = np.zeros(1)
        q = np.eye(1)
        # Linear interpolation through {0, delta}.
        g_fd = (f(np.array([delta])) - f(base)) / delta
        model = SubspaceModel(base, q, f(base), np.array([g_fd]), np.zeros((1, 1)))
        cert = certify_fully_linear(model, f, grad, delta, samples=30, seed=2)
        assert np.isfinite(cert.kappa_ef_est) and np.isfinite(cert.kappa_eg_est)
        # By definition of the max, every sampled error is bounded.
        for s in np.linspace(-delta, delta, 11):
            err = abs(f(base + q @ [s]) - model.value([s]))
            assert err <= cert.kappa_ef_est * delta**2 + 1e-15

    def test_scaling_stability_on_cubic(self):
        n, p = 4, 2
        rng = np.random.default_rng(11)
        w = rng.standard_normal(n)

        def f(x):
            return float(np.sum(x**3) / 3.0 + w @ x)

        def grad(x):
            return x**2 + w

        base = rng.standard_normal(n) * 0.1
        basis = orthonormal_basis([rng.standard_normal(n) for _ in range(p)])
        q = basis.columns
        ests = []
        for delta in (1e-1, 1e-2, 1e-3):
            vals = np.empty(p)
            for i in range(p):
                vals[i] = f(base + delta * q[:, i])
            g_fd = (vals - f(base)) / delta
            model = SubspaceModel(base, q, f(base), g_fd, np.zeros((p, p)))
            cert = certify_fully_linear(model, f, grad, delta, samples=60, seed=4)
            ests.append(cert.kappa_eg_est)
        assert max(ests) <= 10.0 * min(ests)


class TestModelCriticality:
    def test_diagonal(self):
        m = SubspaceModel(None, None, 0.0, np.zeros(2), np.diag([1.0, -2.0]))
        sigma, tau = model_criticality(m)
        assert (sigma, tau) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_psd_hessian(self):
        m = SubspaceModel(None, None, 0.0, np.array([3.0, 0.0]), np.eye(2))
        sigma, tau = model_criticality(m)
        assert (sigma, tau) == (pytest.approx(3.0), 0.0)

    def test_offdiagonal(self):
        m = SubspaceModel(
            None, None, 0.0, np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        sigma, tau = model_criticality(m)
        assert tau == pytest.approx(1.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = int(rng.integers(2, 6))
            g = rng.standard_normal(p)
            a = rng.standard_normal((p, p))
            h = a + a.T
            rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
            m1 = SubspaceModel(None, None, 0.0, g, h)
            m2 = SubspaceModel(None, None, 0.0, rot.T @ g, rot.T @ h @ rot)
            s1, t1 = model_criticality(m1)
            s2, t2 = model_criticality(m2)
            assert s1 == pytest.approx(s2, abs=1e-8)
            assert t1 == pytest.approx(t2, abs=1e-8)
