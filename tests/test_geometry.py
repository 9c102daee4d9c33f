import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d.geometry import (Box2D, Box3D, CameraIntrinsics, alpha_to_yaw, backproject,
                             box3d_corners, clip_polygon, iou_2d, iou_2d_pairs, iou_3d,
                             iou_3d_pairs, iou_bev, iou_bev_pairs, project, project_box,
                             wrap_angle, yaw_to_alpha)
from mono3d.postproc import optimize_rotation

import oracles
from oracles import bev_footprint, polygon_area

CAM = CameraIntrinsics.simple(700.0, 600.0, 180.0)
KITTI_P2 = CameraIntrinsics(np.array([
    [721.5377, 0.0, 609.5593, 44.85728],
    [0.0, 721.5377, 172.854, 0.2163791],
    [0.0, 0.0, 1.0, 0.002745884],
]))
# KITTI's P2 with its translation column's depth term lowered by 0.5: a box
# whose corners all have z > 0 can still project to z_p <= 0
SHIFTED_P2 = CameraIntrinsics(KITTI_P2.K - np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.5]))


def random_box3d(rng, z_range=(8.0, 60.0)):
    return Box3D(
        x=rng.uniform(-15.0, 15.0), y=rng.uniform(0.5, 2.5), z=rng.uniform(*z_range),
        w=rng.uniform(1.2, 2.2), h=rng.uniform(1.2, 2.0), l=rng.uniform(3.0, 5.0),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def _ccw_poly(poly):
    p = np.asarray(poly, dtype=np.float64)
    signed = 0.5 * (np.dot(p[:, 0], np.roll(p[:, 1], -1)) - np.dot(np.roll(p[:, 0], -1), p[:, 1]))
    return p if signed >= 0 else p[::-1]


def _points_inside(poly, pts):
    res = np.ones(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        q, r = poly[i], poly[(i + 1) % n]
        cross = (r[0] - q[0]) * (pts[:, 1] - q[1]) - (r[1] - q[1]) * (pts[:, 0] - q[0])
        res &= cross >= 0.0
    return res


def mc_bev_iou(a, b, rng, samples=1_000_000):
    """Monte-Carlo BEV IoU: only the intersection area is estimated, sampled
    over the overlap of the two footprint bounding boxes; the rectangle areas
    themselves are known exactly."""
    pa, pb = _ccw_poly(bev_footprint(a)), _ccw_poly(bev_footprint(b))
    lo = np.maximum(pa.min(axis=0), pb.min(axis=0))
    hi = np.minimum(pa.max(axis=0), pb.max(axis=0))
    if np.any(hi <= lo):
        inter = 0.0
    else:
        pts = rng.uniform(lo, hi, size=(samples, 2))
        frac = (_points_inside(pa, pts) & _points_inside(pb, pts)).mean()
        inter = frac * np.prod(hi - lo)
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0.0 else 0.0


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def exact_bev_iou(a, b):
    """BEV IoU of (P, 7) [x, y, z, w, h, l, yaw] row pairs by exact polygon
    intersection, independent of Sutherland-Hodgman clipping: the corners of
    each footprint that lie inside the other, plus the edge-edge crossings,
    sorted by angle about their centroid, then the shoelace formula."""
    def corners(r):  # bev_footprint's rectangle, as (P, 4) x and z arrays
        c, s = np.cos(r[:, 6:]), np.sin(r[:, 6:])
        lx = np.array([1, 1, -1, -1]) * r[:, 5:6] / 2.0
        lz = np.array([1, -1, -1, 1]) * r[:, 3:4] / 2.0
        return r[:, 0:1] + lx * c + lz * s, r[:, 2:3] - lx * s + lz * c

    def inside(px, py, qx, qy):
        """(P, 4) mask of the points p within the convex quadrilaterals q."""
        ex, ey = np.roll(qx, -1, axis=1) - qx, np.roll(qy, -1, axis=1) - qy
        side = _cross(ex[:, None], ey[:, None], px[:, :, None] - qx[:, None], py[:, :, None] - qy[:, None])
        return np.all(side >= 0.0, axis=2) | np.all(side <= 0.0, axis=2)

    (ax, ay), (bx, by) = corners(np.asarray(a, dtype=np.float64)), corners(np.asarray(b, dtype=np.float64))
    # edge i of a is p + t r, edge j of b is q + u s, t and u in [0, 1]
    rx, ry = (np.roll(ax, -1, axis=1) - ax)[:, :, None], (np.roll(ay, -1, axis=1) - ay)[:, :, None]
    sx, sy = (np.roll(bx, -1, axis=1) - bx)[:, None], (np.roll(by, -1, axis=1) - by)[:, None]
    dx, dy = bx[:, None] - ax[:, :, None], by[:, None] - ay[:, :, None]
    den = _cross(rx, ry, sx, sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, u = _cross(dx, dy, sx, sy) / den, _cross(dx, dy, rx, ry) / den
    hit = (den != 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    t = np.where(hit, t, 0.0)
    P = len(ax)
    px = np.concatenate([ax, bx, (ax[:, :, None] + t * rx).reshape(P, 16)], axis=1)
    py = np.concatenate([ay, by, (ay[:, :, None] + t * ry).reshape(P, 16)], axis=1)
    valid = np.concatenate([inside(ax, ay, bx, by), inside(bx, by, ax, ay), hit.reshape(P, 16)], axis=1)

    n = valid.sum(axis=1)
    cx = np.where(valid, px, 0.0).sum(axis=1) / np.maximum(n, 1)
    cy = np.where(valid, py, 0.0).sum(axis=1) / np.maximum(n, 1)
    px, py = px - cx[:, None], py - cy[:, None]
    order = np.argsort(np.where(valid, np.arctan2(py, px), np.inf), axis=1)
    px, py = np.take_along_axis(px, order, axis=1), np.take_along_axis(py, order, axis=1)
    k = np.arange(px.shape[1])
    nxt = np.where(k + 1 < n[:, None], k + 1, 0)
    terms = _cross(px, py, np.take_along_axis(px, nxt, axis=1), np.take_along_axis(py, nxt, axis=1))
    inter = np.where(n >= 3, 0.5 * np.abs(np.where(k < n[:, None], terms, 0.0).sum(axis=1)), 0.0)
    return inter / (a[:, 3] * a[:, 5] + b[:, 3] * b[:, 5] - inter)


def random_overlapping_rows(rng, count):
    """(count, 7) row pairs: `random_box3d`'s ranges, the second box's center
    within 3 m of the first's in x and z."""
    def rows():
        return np.stack([rng.uniform(-15.0, 15.0, count), rng.uniform(0.5, 2.5, count),
                         rng.uniform(8.0, 60.0, count), rng.uniform(1.2, 2.2, count),
                         rng.uniform(1.2, 2.0, count), rng.uniform(3.0, 5.0, count),
                         rng.uniform(-math.pi, math.pi, count)], axis=1)
    a, b = rows(), rows()
    b[:, [0, 2]] = a[:, [0, 2]] + rng.uniform(-3.0, 3.0, size=(count, 2))
    return a, b


class TestExactBevOracle:
    """The exact oracle itself, on cases with a known intersection."""

    def test_known_cases(self):
        def row(x, z, w, l, yaw):
            return [x, 1.0, z, w, 1.0, l, yaw]
        inter45 = 8.0 * (math.sqrt(2.0) - 1.0) * 0.25
        a = np.array([row(0, 10, 1, 1, 0), row(0, 10, 2, 4, 0.3), row(0, 10, 2, 4, 0.3),
                      row(0, 10, 2, 2, 0)])
        b = np.array([row(0, 10, 1, 1, math.pi / 4), row(0.2, 10.1, 0.4, 0.5, 1.1),
                      row(9, 10, 2, 4, 0.3), row(1, 11, 2, 2, 0)])
        want = [inter45 / (2.0 - inter45),   # octagon
                0.2 / 8.0,                   # b inside a
                0.0,                         # disjoint
                1.0 / 7.0]                   # quarter overlap of equal squares
        np.testing.assert_allclose(exact_bev_iou(a, b), want, rtol=0.0, atol=1e-14)

    def test_symmetric(self):
        a, b = random_overlapping_rows(np.random.default_rng(12), 500)
        assert np.abs(exact_bev_iou(a, b) - exact_bev_iou(b, a)).max() <= 1e-13


class TestWrapAngle:
    def test_cases(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(4.0) == pytest.approx(4.0 - 2.0 * math.pi)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_array_wraps_to_nan_without_a_warning(self):
        assert np.isnan(wrap_angle(np.array([np.inf, -np.inf, np.nan]))).all()
        assert math.isnan(wrap_angle(math.inf)) and math.isnan(wrap_angle(-math.inf))


def pinhole(cam, p):
    """Independent per-point projection oracle: (x_p, y_p) of K @ [x, y, z, 1]."""
    h = cam.K @ np.array([*p, 1.0])
    return h[:2] / h[2]


def random_points(rng, n):
    return np.column_stack([rng.uniform(-20, 20, n), rng.uniform(-5, 5, n), rng.uniform(1.0, 80.0, n)])


class TestProjection:
    def test_principal_ray(self):
        np.testing.assert_allclose(project(CAM, np.array([[0.0, 0.0, 10.0]])), [[600.0, 180.0, 10.0]])

    def test_off_axis_point(self):
        # x = 2 at z = 10 with f = 700 lands 140 px right of the principal point
        np.testing.assert_allclose(project(CAM, np.array([[2.0, 0.0, 10.0]])), [[740.0, 180.0, 10.0]])

    def test_roundtrip(self):
        pts = random_points(np.random.default_rng(0), 300)
        np.testing.assert_allclose(backproject(CAM, project(CAM, pts)), pts, atol=1e-9)

    def test_roundtrip_with_translation_column(self):
        K = CAM.K.copy()
        K[:, 3] = [44.8, 0.2, 0.003]  # stereo-style baseline offsets
        cam = CameraIntrinsics(K)
        p = np.array([[3.0, 1.2, 25.0]])
        np.testing.assert_allclose(backproject(cam, project(cam, p)), p, atol=1e-9)

    def test_behind_camera_errors(self):
        with pytest.raises(ValueError, match="behind"):
            project(CAM, np.array([[0.0, 0.0, 10.0], [0.0, 0.0, -1.0]]))
        with pytest.raises(ValueError, match="depth"):
            backproject(CAM, np.array([[600.0, 180.0, 0.0]]))

    def test_row_form_matches_per_row_calls(self):
        rng = np.random.default_rng(5)
        K = CAM.K.copy()
        K[:, 3] = [44.8, 0.2, 0.003]
        cam = CameraIntrinsics(K)
        pixels = project(cam, random_points(rng, 200))
        got = backproject(cam, pixels)
        assert got.shape == (200, 3)
        np.testing.assert_allclose(got, [backproject(cam, p[None])[0] for p in pixels],
                                   rtol=0, atol=1e-12)
        assert backproject(cam, pixels[:0]).shape == (0, 3)

    def test_row_form_rejects_non_positive_depth(self):
        pixels = np.array([[600.0, 180.0, 10.0], [600.0, 180.0, -2.0], [600.0, 180.0, 0.0]])
        with pytest.raises(ValueError, match=r"non-positive projected depth -2\.0"):
            backproject(CAM, pixels)
        with pytest.raises(ValueError, match=r"pixels must be \(n, 3\) rows, got shape \(2, 4\)"):
            backproject(CAM, np.ones((2, 4)))
        with pytest.raises(ValueError, match=r"pixels must be \(n, 3\) rows, got shape \(3,\)"):
            backproject(CAM, np.ones(3))
        with pytest.raises(ValueError, match=r"points must be \(n, 3\) rows, got shape \(3,\)"):
            project(CAM, np.ones(3))

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError, match="3x4"):
            CameraIntrinsics(np.eye(3))
        bad = CAM.K.copy()
        bad[0, 0] = -1.0
        with pytest.raises(ValueError, match="focal"):
            CameraIntrinsics(bad)


class TestAngles:
    def test_centerline_identity(self):
        # on the optical axis atan2(0, z) = 0, so alpha == yaw
        assert alpha_to_yaw(0.3, 0.0, 10.0) == pytest.approx(0.3)

    def test_diagonal_ray(self):
        assert alpha_to_yaw(0.0, 10.0, 10.0) == pytest.approx(math.pi / 4.0)

    def test_inverse_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            alpha = rng.uniform(-math.pi, math.pi)
            x, z = rng.uniform(-30, 30), rng.uniform(0.5, 80)
            yaw = alpha_to_yaw(alpha, x, z)
            assert abs(wrap_angle(yaw_to_alpha(yaw, x, z) - alpha)) < 1e-12

    def test_needs_positive_depth(self):
        with pytest.raises(ValueError, match="z > 0"):
            alpha_to_yaw(0.0, 1.0, 0.0)


class TestBox3dCorners:
    def test_unit_cube_axis_aligned(self):
        box = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        pts = box3d_corners(box)
        assert sorted(pts[:, 0]) == [-0.5] * 4 + [0.5] * 4  # length axis
        assert sorted(pts[:, 1]) == [-1.0] * 4 + [0.0] * 4  # bottom at y, top at y-h
        assert sorted(pts[:, 2]) == [-0.5] * 4 + [0.5] * 4

    def test_half_turn_symmetry(self):
        rng = np.random.default_rng(2)
        box = random_box3d(rng)
        a = box3d_corners(box)
        import dataclasses
        b = box3d_corners(dataclasses.replace(box, yaw=wrap_angle(box.yaw + math.pi)))
        # rotating a cuboid by pi permutes its corner set
        sa = np.array(sorted(map(tuple, np.round(a, 9))))
        sb = np.array(sorted(map(tuple, np.round(b, 9))))
        np.testing.assert_allclose(sa, sb, atol=1e-8)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="dimensions"):
            Box3D(0, 0, 10, 0.0, 1, 1, 0)

    @pytest.mark.parametrize("field", ["x", "y", "z", "yaw", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_field_by_name(self, field, value):
        fields = dict(x=1.0, y=1.5, z=20.0, w=1.7, h=1.5, l=4.2, yaw=0.2, alpha=0.1)
        with pytest.raises(ValueError, match=rf"^3D box {field} must be finite"):
            Box3D(**{**fields, field: value})

    def test_huge_finite_fields_pass(self):
        box = Box3D(1e308, 1e308, 1e308, 1.0, 1.0, 1.0, 1e308, alpha=1e308)
        assert box.x + box.y == math.inf   # the sum overflows; no field is non-finite

    def test_envelope_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = random_box3d(rng)
            env = project_box(box, CAM)
            proj = np.array([pinhole(CAM, p) for p in box3d_corners(box)])
            np.testing.assert_allclose(env.as_array(),
                                       [proj[:, 0].min(), proj[:, 1].min(),
                                        proj[:, 0].max(), proj[:, 1].max()], atol=1e-12)

    def test_envelope_oracle_with_translation_column(self):
        K = CAM.K.copy()
        K[:, 3] = [44.8, 0.2, 0.003]
        cam = CameraIntrinsics(K)
        rng = np.random.default_rng(6)
        for _ in range(50):
            box = random_box3d(rng)
            proj = np.array([pinhole(cam, p) for p in box3d_corners(box)])
            np.testing.assert_allclose(project_box(box, cam).as_array(),
                                       [*proj.min(axis=0), *proj.max(axis=0)], rtol=0, atol=1e-12)

    def test_row_form_bit_identical(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            box = random_box3d(rng)
            row = (box.x, box.y, box.z, box.w, box.h, box.l, box.yaw)
            assert box3d_corners(row).tobytes() == box3d_corners(box).tobytes()
            assert box3d_corners(box.as_array()).tobytes() == box3d_corners(box).tobytes()
            assert project_box(row, CAM) == project_box(box, CAM)

    def test_envelope_behind_camera(self):
        with pytest.raises(ValueError, match="box extends behind the camera"):
            project_box(Box3D(0, 0, 1.0, 2, 2, 10, 0.0), CAM)

    def test_envelope_projected_depth_behind_camera(self):
        # every corner has z > 0, but the translation column moves the
        # projected depth of each below zero
        K = CAM.K.copy()
        K[2, 3] = -30.0
        with pytest.raises(ValueError, match="point behind camera: projected depth -"):
            project_box(Box3D(0.0, 1.0, 20.0, 2.0, 2.0, 4.0, 0.0), CameraIntrinsics(K))

    def test_projected_depth_behind_camera_beside_an_overflowed_corner(self):
        # the +l/2 corners' x overflows to inf, and 0 * inf makes their
        # projected depth NaN; a NaN-propagating min would miss the -l/2
        # corners at z = 0.4, whose depth the translation column makes -0.1
        K = CAM.K.copy()
        K[2, 3] = -0.5
        with pytest.raises(ValueError, match="point behind camera: projected depth -0.09"):
            project_box((1.7e308, 1.0, 1.0, 1.2, 1.5, 1.7e308, 0.0), CameraIntrinsics(K))

    # finite rows whose corners (the first) or projections (the others)
    # overflow; the second's envelope was once (inf, inf, inf, inf), and the
    # third's entries sum to a finite 3e306, above the 1e150 that turns
    # numpy's overflow warnings off
    OVERFLOWING = [(1.7e308, 1.0, 1.0, 1.2, 1.5, 1.7e308, 0.0),
                   (1e308, 1e308, 1e308, 1.0, 1.0, 1.0, 0.3),
                   (1e306, 1e306, 1e306, 1.0, 1.0, 1.0, 0.3)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", OVERFLOWING)
    def test_overflowing_row_is_a_value_error_without_a_warning(self, row):
        assert box3d_corners(row).shape == (8, 3)
        for box in (row, np.array(row), Box3D(*row)):
            with pytest.raises(ValueError, match="^projected envelope must be finite, got "):
                project_box(box, CAM)
        assert optimize_rotation(row, [500.0, 150.0, 700.0, 210.0], CAM) == (row[6], False)

    @pytest.mark.parametrize("name", ["simple", "kitti_p2", "shifted_p2"])
    def test_bitwise_numpy_oracle(self, name):
        # corners and envelopes bitwise, each row given as a tuple, a numpy
        # row and a Box3D; every fifth row has integer entries (an int64 row,
        # a Box3D of ints) and every third Box3D holds np.float64 fields. Near
        # rows put corners behind the camera, and the shifted camera moves
        # projected depths behind it.
        cam = {"simple": CAM, "kitti_p2": KITTI_P2, "shifted_p2": SHIFTED_P2}[name]
        rng = np.random.default_rng(41)
        errors = collections.Counter()
        for i in range(2000):
            z = rng.uniform(0.3, 4.0) if i % 3 == 0 else rng.uniform(4.0, 60.0)
            row = (z * rng.uniform(-0.6, 0.6), rng.uniform(-1.0, 2.5), z, rng.uniform(0.5, 2.2),
                   rng.uniform(1.0, 2.0), rng.uniform(0.8, 5.0), rng.uniform(-math.pi, math.pi))
            if i % 5 == 0:
                row = tuple(int(v) for v in rng.integers([-9, 0, 1, 1, 1, 1, -3],
                                                         [10, 3, 40, 3, 3, 6, 4]))
            fields = map(np.float64, row) if i % 3 == 1 else row
            try:
                want = tuple(v.hex() for v in oracles.numpy_project_box(row, cam).as_array())
            except ValueError as err:
                want = str(err)
                errors[want.split(":")[0]] += 1
            corners = oracles.numpy_box3d_corners(row).tobytes()
            for box in (row, np.array(row), Box3D(*fields)):
                assert box3d_corners(box).tobytes() == corners, (i, box)
                try:
                    env = project_box(box, cam)
                    got = tuple(float.hex(v) for v in (env.x1, env.y1, env.x2, env.y2))
                except ValueError as err:
                    got = str(err)
                assert got == want, (i, box)
        assert errors["box extends behind the camera"] > 100
        if name == "shifted_p2":
            assert errors["point behind camera"] > 10


class TestIou2d:
    def test_identical(self):
        b = Box2D(0, 0, 10, 10)
        assert iou_2d(b, b) == 1.0

    def test_disjoint(self):
        assert iou_2d(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert iou_2d(Box2D(0, 0, 10, 10), Box2D(5, 0, 15, 10)) == pytest.approx(1.0 / 3.0)


class TestPolygonOps:
    def test_shoelace_unit_square(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0

    def test_clip_square_by_itself(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_area(clip_polygon(sq, sq)) == pytest.approx(1.0)

    def test_clip_disjoint_is_empty(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        far = [(5, 5), (6, 5), (6, 6), (5, 6)]
        assert polygon_area(clip_polygon(sq, far)) == 0.0

    @staticmethod
    def assert_bitwise_oracle(subject, clip):
        got, want = clip_polygon(subject, clip), oracles.clip_polygon(subject, clip)
        assert all(type(v) is float for p in got for v in p)
        bits = lambda poly: np.array(poly, dtype=np.float64).reshape(-1, 2).view(np.uint64)
        assert np.array_equal(bits(got), bits(want)), (subject, clip)
        return len(got)

    def test_bitwise_scalar_loop_on_every_degenerate_kind(self):
        pairs = degenerate_pairs(np.random.default_rng(12), 100)
        polys = [[_ccw_poly(bev_footprint(box)) for box in pair] for pair in pairs]
        counts = np.array([self.assert_bitwise_oracle(*pair) for pair in polys])
        # disc-rejected far pairs clip to nothing; rounding on shared and
        # collinear edges leaves 3 to 8 vertices
        assert np.all(counts.reshape(-1, 9)[:, 7] == 0)
        assert {0, 3, 4, 5, 6, 7, 8}.issubset(counts.tolist())

    def test_bitwise_scalar_loop_on_convex_polygons(self):
        # triangles, pentagons and hexagons on a random ellipse about a random
        # rectangle's centre, each clipping the rectangle and clipped by it
        rng = np.random.default_rng(13)
        counts = set()
        for m in (3, 5, 6):
            for _ in range(60):
                box = random_box3d(rng)
                rect = _ccw_poly(bev_footprint(box))
                angle = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
                radius = rng.uniform(0.5, 4.0, 2)
                centre = np.array([box.x, box.z]) + rng.uniform(-2.0, 2.0, 2)
                poly = centre + radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
                counts.add(self.assert_bitwise_oracle(poly, rect))
                counts.add(self.assert_bitwise_oracle(rect, poly))
        assert {0, 3, 5, 6, 7}.issubset(counts)

    def test_empty_subject(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert clip_polygon([], sq) == [] == oracles.clip_polygon([], sq)


class TestIouBev:
    def test_identical(self):
        rng = np.random.default_rng(4)
        box = random_box3d(rng)
        assert iou_bev(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = Box3D(0, 1, 10, 2, 1.5, 4, 0.3)
        b = Box3D(50, 1, 10, 2, 1.5, 4, -0.7)
        assert iou_bev(a, b) == 0.0

    def test_unit_squares_rotated_45(self):
        a = Box3D(0, 1, 10, 1.0, 1.0, 1.0, 0.0)
        b = Box3D(0, 1, 10, 1.0, 1.0, 1.0, math.pi / 4.0)
        # octagon intersection: area 8*(sqrt(2)-1), union 2 - that
        inter = 8.0 * (math.sqrt(2.0) - 1.0) * 0.25
        want = inter / (2.0 - inter)
        assert want == pytest.approx(0.7071, abs=1e-3)
        assert iou_bev(a, b) == pytest.approx(want, abs=1e-3)

    def test_monte_carlo_oracle(self):
        # a few pairs: the acceptance suite checks `iou_bev_pairs` against the
        # exact oracle `exact_bev_iou` on 10^4 pairs to 1e-12
        rng = np.random.default_rng(5)
        for k in range(5):
            a = random_box3d(rng)
            import dataclasses
            b = dataclasses.replace(
                random_box3d(rng),
                x=a.x + rng.uniform(-3.0, 3.0), z=a.z + rng.uniform(-3.0, 3.0))
            got = iou_bev(a, b)
            want = mc_bev_iou(a, b, rng, samples=200_000)
            assert abs(got - want) < 4e-3, f"pair {k}: {got} vs MC {want}"

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(6)
        import dataclasses
        for _ in range(20):
            a, b = random_box3d(rng), random_box3d(rng)
            b = dataclasses.replace(b, x=a.x + rng.uniform(-2, 2), z=a.z + rng.uniform(-2, 2))
            base = iou_bev(a, b)
            dx, dz, rot = rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-math.pi, math.pi)
            c, s = math.cos(rot), math.sin(rot)

            def moved(box):
                x = box.x * c + box.z * s + dx
                z = -box.x * s + box.z * c + dz
                return dataclasses.replace(box, x=x, z=z, yaw=wrap_angle(box.yaw + rot))

            assert iou_bev(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


class TestIou3d:
    def test_identical(self):
        rng = np.random.default_rng(7)
        box = random_box3d(rng)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_no_vertical_overlap(self):
        a = Box3D(0, 0.0, 10, 2, 1.5, 4, 0.0)
        b = Box3D(0, 5.0, 10, 2, 1.5, 4, 0.0)  # floors 5 apart, heights 1.5
        assert iou_3d(a, b) == 0.0

    def test_axis_aligned_half_height(self):
        a = Box3D(0, 1.0, 10, 2, 2.0, 4, 0.0)
        b = Box3D(0, 2.0, 10, 2, 2.0, 4, 0.0)  # shifted down by half the height
        # overlap volume = full footprint x 1.0; union = 2*16 - 8
        assert iou_3d(a, b) == pytest.approx(8.0 / 24.0, abs=1e-12)

    def test_consistent_with_bev_at_full_overlap(self):
        rng = np.random.default_rng(8)
        import dataclasses
        a = random_box3d(rng)
        b = dataclasses.replace(a, yaw=a.yaw + 0.3)  # same y span, same dims
        bev = iou_bev(a, b)
        assert iou_3d(a, b) == pytest.approx(bev, abs=1e-12)


def reference_ious(a, b):
    """(BEV, 3D) IoU of two Box3D by the scalar oracles.clip_polygon + polygon_area."""
    inter = polygon_area(oracles.clip_polygon(*(_ccw_poly(bev_footprint(box)) for box in (a, b))))
    if inter < 1e-12:
        inter = 0.0
    bev = inter / (a.w * a.l + b.w * b.l - inter)
    vol = inter * max(0.0, min(a.y, b.y) - max(a.y - a.h, b.y - b.h))
    return bev, vol / (a.w * a.h * a.l + b.w * b.h * b.l - vol)


def degenerate_pairs(rng, n):
    """n pairs per kind: identical, shared edge, collinear edges, containment,
    90-degree turn, corner touch, disc-rejected far pair, and random near pairs."""
    pairs = []
    for _ in range(n):
        a = random_box3d(rng)
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        along = lambda d: dataclasses.replace(a, x=a.x + d * c, z=a.z - d * s)
        b = random_box3d(rng)
        half_diag = math.hypot(a.w, a.l) / 2.0 + math.hypot(b.w, b.l) / 2.0
        square = dataclasses.replace(a, w=a.l)
        axis = dataclasses.replace(a, yaw=0.0)
        pairs += [
            (a, a),
            (a, along(a.l)),
            (a, along(rng.uniform(-0.9, 0.9) * a.l)),
            (a, dataclasses.replace(a, w=0.2 * a.w, l=0.2 * a.l, yaw=rng.uniform(-math.pi, math.pi))),
            (a, dataclasses.replace(a, yaw=a.yaw + math.pi / 2.0)),
            (square, dataclasses.replace(square, yaw=square.yaw + math.pi / 2.0)),
            (axis, dataclasses.replace(b, yaw=0.0, x=a.x + (a.l + b.l) / 2.0,
                                       z=a.z + (a.w + b.w) / 2.0)),
            (a, dataclasses.replace(b, x=a.x + 1.001 * half_diag, z=a.z)),
            (a, dataclasses.replace(b, x=a.x + rng.uniform(-3.0, 3.0),
                                    z=a.z + rng.uniform(-3.0, 3.0))),
        ]
    return pairs


class TestPairKernels:
    def test_matches_scalar_clip_reference(self):
        rng = np.random.default_rng(9)
        pairs = degenerate_pairs(rng, 1200)
        assert len(pairs) >= 10_000
        a = np.array([p.as_array() for p, _ in pairs])
        b = np.array([q.as_array() for _, q in pairs])
        want = np.array([reference_ious(p, q) for p, q in pairs])
        assert np.abs(iou_bev_pairs(a, b) - want[:, 0]).max() <= 1e-9
        assert np.abs(iou_3d_pairs(a, b) - want[:, 1]).max() <= 1e-9
        # closed forms per kind, on the reference itself
        kinds = want[:, 0].reshape(-1, 9)
        box = a[::9]
        w, l = box[:, 3], box[:, 5]
        shift = np.abs(b[2::9, 0] - box[:, 0]) / np.abs(np.cos(box[:, 6]))
        short = np.minimum(w, l)
        assert np.abs(kinds[:, 0] - 1.0).max() <= 1e-9                         # identical
        assert np.abs(kinds[:, 1]).max() <= 1e-9                               # shared edge
        assert np.abs(kinds[:, 2] - (l - shift) / (l + shift)).max() <= 1e-9   # collinear edges
        assert np.abs(kinds[:, 3] - 0.04).max() <= 1e-9                        # containment
        assert np.abs(kinds[:, 4] - short ** 2 / (2 * w * l - short ** 2)).max() <= 1e-9
        assert np.abs(kinds[:, 5] - 1.0).max() <= 1e-9                         # square, 90 deg
        assert np.abs(kinds[:, 6]).max() <= 1e-9                               # corner touch
        assert np.all(kinds[:, 7] == 0.0)                                      # disc-rejected

    def test_empty_and_single(self):
        empty = np.zeros((0, 7))
        assert iou_bev_pairs(empty, empty).shape == (0,)
        assert iou_3d_pairs(empty, empty).shape == (0,)
        assert iou_2d_pairs(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)
        rng = np.random.default_rng(10)
        a = random_box3d(rng)
        b = dataclasses.replace(random_box3d(rng), x=a.x + 0.5, z=a.z - 0.3)
        for kernel, k in ((iou_bev_pairs, 0), (iou_3d_pairs, 1)):
            got = kernel(a.as_array()[None], b.as_array()[None])
            assert got.shape == (1,) and abs(got[0] - reference_ious(a, b)[k]) <= 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            iou_bev_pairs(np.zeros((2, 7)), np.zeros((3, 7)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("column", range(7))
    def test_non_finite_row_rejected(self, column, side, poison):
        rng = np.random.default_rng(12)
        rows = {"a": np.array([random_box3d(rng).as_array() for _ in range(3)]),
                "b": np.array([random_box3d(rng).as_array() for _ in range(3)])}
        rows[side][1, column] = poison
        bad = re.escape(f"{side} must be finite: row 1 is ") + r"\[.*" + \
            ("nan" if np.isnan(poison) else "-?inf")
        for kernel, width in ((iou_bev_pairs, 7), (iou_3d_pairs, 7), (iou_2d_pairs, 4)):
            if column < width:   # the 2D kernel reads the first 4 columns as [x1, y1, x2, y2]
                with pytest.raises(ValueError, match=bad):
                    kernel(rows["a"][:, :width], rows["b"][:, :width])
        if column in (3, 4, 5) and poison == np.inf:   # an infinite size reaches the kernels
            boxes = {k: Box3D(*v[1]) for k, v in rows.items()}
            for scalar in (iou_bev, iou_3d):
                with pytest.raises(ValueError,
                                   match=re.escape(f"{side} must be finite: row 0 is [")):
                    scalar(boxes["a"], boxes["b"])
            return
        # Box3D itself refuses the size, and names a non-finite center or yaw
        field = ("x", "y", "z", "w", "h", "l", "yaw")[column]
        with pytest.raises(ValueError, match="non-positive 3D dimensions" if column in (3, 4, 5)
                           else f"^3D box {field} must be finite"):
            Box3D(*rows[side][1])

    def test_2d_pairs_bitwise_scalar(self):
        rng = np.random.default_rng(11)
        lo = rng.uniform(0.0, 50.0, size=(500, 2, 2))
        boxes = np.concatenate([lo, lo + rng.uniform(0.0, 30.0, size=lo.shape)], axis=2)
        boxes[:50, 1] = boxes[:50, 0]   # identical
        boxes[50:60, :, 2] = boxes[50:60, :, 0]   # zero width: empty union
        got = iou_2d_pairs(boxes[:, 0], boxes[:, 1])
        want = [iou_2d(Box2D(*p), Box2D(*q)) for p, q in boxes]
        assert got.tolist() == want
        rows, cols = boxes[::10, 0], boxes[:60:6, 1]   # (N, 1, 4) x (1, G, 4) matrix
        got = iou_2d_pairs(rows[:, None], cols[None])
        assert got.tolist() == [[iou_2d(Box2D(*p), Box2D(*q)) for q in cols] for p in rows]
