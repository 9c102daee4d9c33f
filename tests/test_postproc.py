import dataclasses
import math

import numpy as np
import pytest

from mono3d.geometry import Box2D, Box3D, CameraIntrinsics, iou_2d, project_box
from mono3d.postproc import Detection, confidence_filter, nms, optimize_rotation

CAM = CameraIntrinsics.simple(700.0, 600.0, 180.0)


def make_det(score, x1, y1, x2, y2, class_id=1):
    box3d = Box3D(0.0, 1.5, 20.0, 1.6, 1.5, 4.0, 0.2)
    return Detection(class_id, score, Box2D(x1, y1, x2, y2), box3d, 0.1)


def unimodal_objective(box3d, env, lo, hi, n=81):
    """True when the envelope L1 objective has a single basin on [lo, hi]."""
    ys = np.linspace(lo, hi, n)
    obj = [np.abs(project_box(dataclasses.replace(box3d, yaw=y), CAM).as_array()
                  - env.as_array()).sum() for y in ys]
    i = int(np.argmin(obj))
    return (all(obj[k] > obj[k + 1] for k in range(i))
            and all(obj[k] < obj[k + 1] for k in range(i, n - 1)))


def naive_nms(dets, thresh):
    """Quadratic reference: repeatedly take the best-scoring survivor."""
    remaining = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    while remaining:
        i = remaining.pop(0)
        kept.append(dets[i])
        remaining = [j for j in remaining
                     if dets[j].class_id != dets[i].class_id
                     or iou_2d(dets[j].box2d, dets[i].box2d) <= thresh]
    return kept


class TestNms:
    def test_single_survives(self):
        dets = [make_det(0.9, 0, 0, 10, 10)]
        assert nms(dets) == dets

    def test_duplicate_suppressed(self):
        dets = [make_det(0.9, 0, 0, 10, 10), make_det(0.8, 1, 0, 11, 10)]
        assert nms(dets, 0.4) == [dets[0]]

    def test_classes_do_not_interact(self):
        dets = [make_det(0.9, 0, 0, 10, 10, class_id=1),
                make_det(0.8, 0, 0, 10, 10, class_id=2)]
        assert len(nms(dets, 0.4)) == 2

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        dets = []
        for _ in range(50):
            x, y = rng.uniform(0, 80, size=2)
            w, h = rng.uniform(5, 30, size=2)
            dets.append(make_det(float(np.round(rng.uniform(0.05, 1.0), 3)),
                                 x, y, x + w, y + h,
                                 class_id=int(rng.integers(1, 3))))
        for thresh in (0.2, 0.4, 0.7):
            assert nms(dets, thresh) == naive_nms(dets, thresh)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(1)
        dets = []
        for _ in range(30):
            x1, x2 = sorted(rng.uniform(0, 50, 2))
            y1, y2 = sorted(rng.uniform(0, 50, 2))
            dets.append(make_det(rng.uniform(0, 1), x1, y1, x2 + 5, y2 + 5))
        kept = nms(dets, 0.4)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)

    def test_survivors_pairwise_below_threshold(self):
        rng = np.random.default_rng(2)
        dets = []
        for _ in range(40):
            x, y = rng.uniform(0, 60, size=2)
            dets.append(make_det(rng.uniform(0, 1), x, y,
                                 x + rng.uniform(5, 25), y + rng.uniform(5, 25)))
        kept = nms(dets, 0.4)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou_2d(a.box2d, b.box2d) <= 0.4

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        dets = []
        for _ in range(25):
            x, y = rng.uniform(0, 50, size=2)
            dets.append(make_det(rng.uniform(0, 1), x, y, x + 15, y + 15))
        once = nms(dets, 0.4)
        assert nms(once, 0.4) == once

    def test_overlap_at_threshold_kept(self):
        # IoU of the two boxes is 40 / 100, exactly the threshold
        dets = [make_det(0.9, 0, 0, 10, 10), make_det(0.8, 0, 0, 10, 4)]
        assert iou_2d(dets[0].box2d, dets[1].box2d) == 0.4
        assert nms(dets, 0.4) == dets

    def test_empty(self):
        assert nms([], 0.4) == []

    def test_score_ties_keep_lower_index(self):
        dets = [make_det(0.5, 0, 0, 10, 10), make_det(0.5, 1, 1, 11, 11)]
        assert nms(dets, 0.3) == [dets[0]]


class TestConfidenceFilter:
    def test_boundary_kept(self):
        dets = [make_det(0.75, 0, 0, 10, 10)]
        assert confidence_filter(dets, 0.75) == dets

    def test_below_dropped(self):
        dets = [make_det(0.7499, 0, 0, 10, 10)]
        assert confidence_filter(dets, 0.75) == []

    def test_empty(self):
        assert confidence_filter([], 0.75) == []

    def test_score_validation(self):
        with pytest.raises(ValueError, match="score"):
            make_det(1.5, 0, 0, 10, 10)


class TestOptimizeRotation:
    def _scene(self, yaw, z=20.0, x=2.0):
        box3d = Box3D(x, 1.5, z, 1.7, 1.5, 4.2, yaw)
        env = project_box(box3d, CAM)
        return box3d, env

    def test_local_optimum_unchanged(self):
        box3d, env = self._scene(0.35)
        det = Detection(1, 0.9, env, box3d, 0.0)
        refined, ok = optimize_rotation(det, CAM)
        assert ok
        assert abs(refined.box3d.yaw - 0.35) < 1e-3

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
            det = Detection(1, 0.9, env, start, 0.0)
            refined, ok = optimize_rotation(det, CAM)
            assert ok
            assert abs(refined.box3d.yaw - true_yaw) < math.radians(1.0)

    def test_objective_never_increases(self):
        box3d, env = self._scene(0.5)
        start = dataclasses.replace(box3d, yaw=0.7)
        det = Detection(1, 0.9, env, start, 0.0)

        def objective(yaw):
            e = project_box(dataclasses.replace(box3d, yaw=yaw), CAM)
            return np.abs(e.as_array() - env.as_array()).sum()

        refined, ok = optimize_rotation(det, CAM)
        assert ok
        assert objective(refined.box3d.yaw) <= objective(0.7) + 1e-12

    def test_behind_camera_flagged(self):
        box3d = Box3D(0.0, 1.5, 1.0, 2.0, 1.5, 10.0, 0.0)  # corners reach z < 0
        det = Detection(1, 0.9, Box2D(0, 0, 10, 10), box3d, 0.0)
        refined, ok = optimize_rotation(det, CAM)
        assert not ok
        assert refined == det

    def test_candidate_yaw_behind_camera_not_improving(self):
        # a car 2.4 m away whose half-diagonal (2.49 m) exceeds its depth: the
        # start yaw keeps every corner in front, the first candidate (+YAW_STEP)
        # turns one behind the camera
        box3d = Box3D(0.0, 1.5, 2.4, 1.9, 1.5, 4.6, 0.7)
        assert math.hypot(box3d.l / 2.0, box3d.w / 2.0) > box3d.z
        with pytest.raises(ValueError, match="behind the camera"):
            project_box(dataclasses.replace(box3d, yaw=0.7 + 0.3), CAM)
        env = project_box(dataclasses.replace(box3d, yaw=0.2), CAM)
        refined, ok = optimize_rotation(Detection(1, 0.9, env, box3d, 0.0), CAM)
        assert ok
        assert abs(refined.box3d.yaw - 0.2) < 1e-2
