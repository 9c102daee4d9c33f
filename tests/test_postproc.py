import collections
import dataclasses
import math

import numpy as np
import pytest

import mono3d.postproc as postproc
from mono3d.geometry import Box2D, Box3D, CameraIntrinsics, iou_2d, project_box
from mono3d.postproc import Detection, confidence_filter, nms, optimize_rotation
from oracles import numpy_optimize_rotation, numpy_project_box

CAM = CameraIntrinsics.simple(700.0, 600.0, 180.0)
KITTI_P2 = CameraIntrinsics(np.array([
    [721.5377, 0.0, 609.5593, 44.85728],
    [0.0, 721.5377, 172.854, 0.2163791],
    [0.0, 0.0, 1.0, 0.002745884],
]))
# KITTI's P2 with its translation column's depth term lowered by 0.5: a box
# whose corners all have z > 0 can still project to z_p <= 0
SHIFTED_P2 = CameraIntrinsics(KITTI_P2.K - np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.5]))


def table(*dets):
    """(boxes, scores, classes) arrays of (score, x1, y1, x2, y2[, class_id])
    rows; the class defaults to 1."""
    boxes = np.array([d[1:5] for d in dets], dtype=np.float64).reshape(-1, 4)
    scores = np.array([d[0] for d in dets], dtype=np.float64)
    classes = np.array([d[5] if len(d) > 5 else 1 for d in dets], dtype=np.int64)
    return boxes, scores, classes


def unimodal_objective(box3d, env, lo, hi, n=81):
    """True when the envelope L1 objective has a single basin on [lo, hi]."""
    ys = np.linspace(lo, hi, n)
    obj = [np.abs(project_box(dataclasses.replace(box3d, yaw=y), CAM).as_array()
                  - env.as_array()).sum() for y in ys]
    i = int(np.argmin(obj))
    return (all(obj[k] > obj[k + 1] for k in range(i))
            and all(obj[k] < obj[k + 1] for k in range(i, n - 1)))


def naive_nms(boxes, scores, classes, thresh):
    """Quadratic reference: repeatedly take the best-scoring survivor."""
    remaining = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    while remaining:
        i = remaining.pop(0)
        kept.append(i)
        remaining = [j for j in remaining
                     if classes[j] != classes[i]
                     or iou_2d(Box2D(*boxes[j]), Box2D(*boxes[i])) <= thresh]
    return kept


class TestNms:
    def test_single_survives(self):
        assert nms(*table((0.9, 0, 0, 10, 10)), 0.4).tolist() == [0]

    def test_duplicate_suppressed(self):
        dets = table((0.9, 0, 0, 10, 10), (0.8, 1, 0, 11, 10))
        assert nms(*dets, 0.4).tolist() == [0]

    def test_classes_do_not_interact(self):
        dets = table((0.9, 0, 0, 10, 10, 1), (0.8, 0, 0, 10, 10, 2))
        assert len(nms(*dets, 0.4)) == 2

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        dets = []
        for _ in range(50):
            x, y = rng.uniform(0, 80, size=2)
            w, h = rng.uniform(5, 30, size=2)
            dets.append((float(np.round(rng.uniform(0.05, 1.0), 3)),
                         x, y, x + w, y + h, int(rng.integers(1, 3))))
        dets = table(*dets)
        for thresh in (0.2, 0.4, 0.7):
            assert nms(*dets, thresh).tolist() == naive_nms(*dets, thresh)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(1)
        dets = []
        for _ in range(30):
            x1, x2 = sorted(rng.uniform(0, 50, 2))
            y1, y2 = sorted(rng.uniform(0, 50, 2))
            dets.append((rng.uniform(0, 1), x1, y1, x2 + 5, y2 + 5))
        boxes, scores, classes = table(*dets)
        kept = scores[nms(boxes, scores, classes, 0.4)].tolist()
        assert kept == sorted(kept, reverse=True)

    def test_survivors_pairwise_below_threshold(self):
        rng = np.random.default_rng(2)
        dets = []
        for _ in range(40):
            x, y = rng.uniform(0, 60, size=2)
            dets.append((rng.uniform(0, 1), x, y,
                         x + rng.uniform(5, 25), y + rng.uniform(5, 25)))
        boxes, scores, classes = table(*dets)
        kept = [Box2D(*b) for b in boxes[nms(boxes, scores, classes, 0.4)]]
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou_2d(a, b) <= 0.4

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        dets = []
        for _ in range(25):
            x, y = rng.uniform(0, 50, size=2)
            dets.append((rng.uniform(0, 1), x, y, x + 15, y + 15))
        boxes, scores, classes = table(*dets)
        once = nms(boxes, scores, classes, 0.4)
        again = nms(boxes[once], scores[once], classes[once], 0.4)
        assert once[again].tolist() == once.tolist()

    def test_overlap_at_threshold_kept(self):
        # IoU of the two boxes is 40 / 100, exactly the threshold
        dets = table((0.9, 0, 0, 10, 10), (0.8, 0, 0, 10, 4))
        assert iou_2d(Box2D(*dets[0][0]), Box2D(*dets[0][1])) == 0.4
        assert nms(*dets, 0.4).tolist() == [0, 1]

    def test_empty(self):
        assert nms(*table(), 0.4).tolist() == []

    def test_score_ties_keep_lower_index(self):
        dets = table((0.5, 0, 0, 10, 10), (0.5, 1, 1, 11, 11))
        assert nms(*dets, 0.3).tolist() == [0]


class TestConfidenceFilter:
    def test_boundary_kept(self):
        assert confidence_filter(np.array([0.75]), 0.75).tolist() == [0]

    def test_below_dropped(self):
        assert confidence_filter(np.array([0.7499]), 0.75).tolist() == []

    def test_empty(self):
        assert confidence_filter(np.array([]), 0.75).tolist() == []

    def test_indices_in_input_order(self):
        # `detect` indexes its NMS order with these, so they must keep it
        scores = np.array([0.9, 0.2, 0.8, 0.75])
        assert confidence_filter(scores, 0.75).tolist() == [0, 2, 3]

    def test_score_validation(self):
        with pytest.raises(ValueError, match="score"):
            Detection(1, 1.5, Box2D(0, 0, 10, 10), Box3D(0.0, 1.5, 20.0, 1.6, 1.5, 4.0, 0.2), 0.1)


class TestOptimizeRotation:
    def _scene(self, yaw, z=20.0, x=2.0):
        box3d = Box3D(x, 1.5, z, 1.7, 1.5, 4.2, yaw)
        env = project_box(box3d, CAM)
        return box3d, env

    def test_local_optimum_unchanged(self):
        box3d, env = self._scene(0.35)
        yaw, ok = optimize_rotation(box3d.as_array(), env.as_array(), CAM)
        assert ok
        assert abs(yaw - 0.35) < 1e-3

    def test_recovers_perturbed_yaw(self):
        # the envelope only determines yaw locally: some geometries have a
        # mirror yaw with the same envelope, so sample scenes whose objective
        # is unimodal on the perturbation interval
        rng = np.random.default_rng(4)
        count = 0
        while count < 20:
            true_yaw = rng.uniform(-1.2, 1.2)
            box3d, env = self._scene(true_yaw, z=rng.uniform(12, 40), x=rng.uniform(-4, 4))
            if not unimodal_objective(box3d, env, true_yaw - 0.35, true_yaw + 0.35):
                continue
            count += 1
            start = dataclasses.replace(box3d, yaw=true_yaw + 0.2)
            yaw, ok = optimize_rotation(start.as_array(), env.as_array(), CAM)
            assert ok
            assert abs(yaw - true_yaw) < math.radians(1.0)

    def test_objective_never_increases(self):
        box3d, env = self._scene(0.5)
        start = dataclasses.replace(box3d, yaw=0.7)

        def objective(yaw):
            e = project_box(dataclasses.replace(box3d, yaw=yaw), CAM)
            return np.abs(e.as_array() - env.as_array()).sum()

        yaw, ok = optimize_rotation(start.as_array(), env.as_array(), CAM)
        assert ok
        assert objective(yaw) <= objective(0.7) + 1e-12

    def test_behind_camera_flagged(self):
        box3d = Box3D(0.0, 1.5, 1.0, 2.0, 1.5, 10.0, 0.0)  # corners reach z < 0
        yaw, ok = optimize_rotation(box3d.as_array(), Box2D(0, 0, 10, 10).as_array(), CAM)
        assert not ok
        assert yaw == box3d.yaw

    def test_candidate_yaw_behind_camera_not_improving(self):
        # a car 2.4 m away whose half-diagonal (2.49 m) exceeds its depth: the
        # start yaw keeps every corner in front, the first candidate (+YAW_STEP)
        # turns one behind the camera
        box3d = Box3D(0.0, 1.5, 2.4, 1.9, 1.5, 4.6, 0.7)
        assert math.hypot(box3d.l / 2.0, box3d.w / 2.0) > box3d.z
        with pytest.raises(ValueError, match="behind the camera"):
            project_box(dataclasses.replace(box3d, yaw=0.7 + 0.3), CAM)
        env = project_box(dataclasses.replace(box3d, yaw=0.2), CAM)
        yaw, ok = optimize_rotation(box3d.as_array(), env.as_array(), CAM)
        assert ok
        assert abs(yaw - 0.2) < 1e-2


def seeded_rows(rng, n, cam):
    """n ((7,) box row, (4,) target) pairs with the box center at z > 0. Every
    third box is near the camera (z in [0.3, 4] m), where corners straddle
    z = 0 and candidate yaws turn them behind it. A target is the envelope of
    the box at a yaw up to 0.6 rad away, plus up to 3 px of noise per side, or
    a 100 x 60 px box when that envelope does not exist."""
    rows = []
    for i in range(n):
        z = rng.uniform(0.3, 4.0) if i % 3 == 0 else rng.uniform(4.0, 60.0)
        box = np.array([z * rng.uniform(-0.6, 0.6), rng.uniform(1.0, 2.0), z,
                        rng.uniform(0.5, 2.2), rng.uniform(1.0, 2.0), rng.uniform(0.8, 5.0),
                        rng.uniform(-math.pi, math.pi)])
        true = box.copy()
        true[6] += rng.uniform(-0.6, 0.6)
        try:
            target = numpy_project_box(true, cam).as_array()
        except ValueError:
            target = np.array([550.0, 150.0, 650.0, 210.0])
        rows.append((box, target + rng.uniform(-3.0, 3.0, size=4)))
    return rows


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestScalarPathsAgainstNumpyOracles:
    """`project_box`, the yaw objective and `optimize_rotation` on Python
    floats against the numpy forms in `oracles.py`: bit for bit, error text
    included, and the same number of `project_box` calls per search."""

    CAMERAS = {"simple": CAM, "kitti_p2": KITTI_P2, "shifted_p2": SHIFTED_P2}

    @pytest.mark.parametrize("name", list(CAMERAS))
    def test_envelopes_and_searches_bit_identical(self, name):
        cam = self.CAMERAS[name]
        errors = collections.Counter()
        for box, target in seeded_rows(np.random.default_rng(17), 512, cam):
            try:
                want = numpy_project_box(box, cam).as_array()
            except ValueError as err:
                want = str(err)
            try:
                env = project_box(box, cam)
                assert all(type(v) is float for v in (env.x1, env.y1, env.x2, env.y2))
                got = env.as_array()
            except ValueError as err:
                got = str(err)
            if isinstance(want, str):
                assert got == want
                errors[want.split(":")[0]] += 1
            else:
                assert bits(got) == bits(want)
            yaw, refined, _ = numpy_optimize_rotation(box, target, cam)
            got_yaw, got_refined = optimize_rotation(box, target, cam)
            assert (bits(got_yaw), got_refined) == (bits(yaw), refined)
        # both ways of being behind the camera are exercised where they can arise
        assert errors["box extends behind the camera"] > 10
        if name == "shifted_p2":
            assert errors["point behind camera"] > 10

    @pytest.mark.parametrize("name", list(CAMERAS))
    def test_one_project_box_call_per_objective_evaluation(self, name, monkeypatch):
        # the benchmark's `objective_evals` counts the `project_box` calls made
        # through postproc's binding under `optimize_rotation`
        cam, calls = self.CAMERAS[name], []
        original = postproc.project_box

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(postproc, "project_box", counting)
        total = 0
        for box, target in seeded_rows(np.random.default_rng(23), 128, cam):
            calls.clear()
            optimize_rotation(box, target, cam)
            _, _, evals = numpy_optimize_rotation(box, target, cam)
            assert len(calls) == evals
            total += evals
        assert total > 128 * 10


class TestOptimizeRotationRejects:
    """A row the search cannot mean raises a ValueError naming it, instead of
    coming back as a refinement that never happened."""

    BOX = (2.0, 1.5, 20.0, 1.7, 1.5, 4.2, 0.2)
    TARGET = (600.0, 150.0, 700.0, 220.0)

    @pytest.mark.parametrize("box, match", [
        ((math.nan, 1.5, 20.0, 1.7, 1.5, 4.2, 0.2), r"box must be finite.*nan"),
        ((2.0, 1.5, math.inf, 1.7, 1.5, 4.2, 0.2), r"box must be finite.*inf"),
        ((2.0, 1.5, 20.0, 1.7, 1.5, 4.2, math.nan), r"box must be finite"),
        ((2.0, 1.5, 20.0, 1.7, 1.5, 4.2), r"box must be \(n, 7\) rows, got shape \(1, 6\)"),
        ((2.0, 1.5, 20.0, -1.7, 1.5, 4.2, 0.2), r"box 3D size \(w, h, l\) must be positive.*-1.7"),
        ((2.0, 1.5, 20.0, 1.7, 0.0, 4.2, 0.2), r"box 3D size \(w, h, l\) must be positive"),
    ])
    def test_bad_box(self, box, match):
        with pytest.raises(ValueError, match=match):
            optimize_rotation(box, self.TARGET, CAM)

    @pytest.mark.parametrize("target, match", [
        ((math.nan, 150.0, 700.0, 220.0), r"target must be finite.*nan"),
        ((600.0, 150.0, 700.0, -math.inf), r"target must be finite.*inf"),
        ((600.0, 150.0, 700.0), r"target must be \(n, 4\) rows, got shape \(1, 3\)"),
    ])
    def test_bad_target(self, target, match):
        with pytest.raises(ValueError, match=match):
            optimize_rotation(self.BOX, target, CAM)

    def test_nan_target_is_not_reported_as_refined(self):
        # a NaN objective never improves, so the search used to halve its step
        # to the end and report the start yaw, through a wrap, as refined
        with pytest.raises(ValueError, match="target"):
            optimize_rotation(np.array(self.BOX), np.array([600.0, math.nan, 700.0, 220.0]), CAM)
