import copy
import itertools
import math
import re

import numpy as np
import pytest

from mono3d import evaluate
from mono3d.evaluate import (DIFFICULTIES, DIFFICULTY_TABLE, EvalConfig, average_precision,
                             depth_error_report, evaluate_class, match_detections,
                             passes_difficulty)
from mono3d.geometry import (Box2D, Box3D, iou_2d, iou_2d_pairs, iou_3d, iou_3d_pairs, iou_bev,
                             iou_bev_pairs)
from mono3d.kitti import LabelRecord
from mono3d.postproc import Detection


def det_at(score, x1, y1, x2, y2, z=20.0, class_id=1):
    return Detection(class_id, score, Box2D(x1, y1, x2, y2),
                     Box3D(0.0, 1.5, z, 1.6, 1.5, 4.0, 0.0), 0.0)


def gt_at(x1, y1, x2, y2, cls="Car", occ=0, trunc=0.0, z=20.0):
    return LabelRecord(cls, trunc, occ, 0.0, (x1, y1, x2, y2),
                       (1.5, 1.6, 4.0), (0.0, 1.5, z), 0.0)


def iou2d_fn(det, gt):
    return iou_2d(det.box2d, gt.as_box2d())


def iou2d_matrix(dets, boxes):
    return np.array([[iou_2d(d.box2d, b) for b in boxes] for d in dets]).reshape(len(dets), len(boxes))


def match(dets, gts, thresh, ignored=(), dontcare=()):
    """match_detections on the 2D IoU matrices of detection and label lists,
    as a stack of one frame."""
    scores, tp, drop, _ = match_detections(
        [[d.score for d in dets]], iou2d_matrix(dets, [g.as_box2d() for g in gts])[None], thresh,
        iou2d_matrix(dets, [g.as_box2d() for g in ignored])[None],
        iou2d_matrix(dets, dontcare)[None])
    return scores[0], tp[0], drop[0]


def brute_force_ap(scores, tp, num_gt, mode):
    """Direct PR construction: walk the score-sorted list, interpolate max
    precision at each fixed recall point."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    tp = np.asarray(tp, dtype=bool)[order]
    ops = []
    n_tp = n_fp = 0
    for flag in tp:
        n_tp += flag
        n_fp += not flag
        ops.append((n_tp / num_gt, n_tp / (n_tp + n_fp)))
    points = [i / 10.0 for i in range(11)] if mode == "r11" else [i / 40.0 for i in range(1, 41)]
    total = 0.0
    for r in points:
        best = 0.0
        for rec, prec in ops:
            if rec >= r - 1e-12:
                best = max(best, prec)
        total += best
    return total / len(points)


class TestDifficulty:
    def test_bucket_table_cases(self):
        # (height, occlusion, truncation) -> passes (easy, moderate, hard)
        cases = {
            (50.0, 0, 0.0): (True, True, True),
            (30.0, 1, 0.2): (False, True, True),
            (30.0, 2, 0.4): (False, False, True),
            (20.0, 0, 0.0): (False, False, False),
            (50.0, 3, 0.0): (False, False, False),
        }
        for gt, want in cases.items():
            assert tuple(passes_difficulty(*gt, d) for d in DIFFICULTIES) == want, gt

    def test_boundaries_inclusive(self):
        assert passes_difficulty(40.0, 0, 0.15, "easy")
        assert not passes_difficulty(39.999, 0, 0.15, "easy")
        assert passes_difficulty(25.0, 1, 0.30, "moderate")

    def test_bucket_monotone(self):
        # anything passing easy also passes moderate and hard
        rng = np.random.default_rng(0)
        for _ in range(100):
            h = rng.uniform(10.0, 80.0)
            occ = int(rng.integers(0, 4))
            tr = rng.uniform(0.0, 0.7)
            if passes_difficulty(h, occ, tr, "easy"):
                assert passes_difficulty(h, occ, tr, "moderate")
            if passes_difficulty(h, occ, tr, "moderate"):
                assert passes_difficulty(h, occ, tr, "hard")

    def test_array_form_agrees_with_scalar_on_boundaries(self):
        heights, occlusions, truncations = set(), set(), set()
        for min_h, max_occ, max_trunc in DIFFICULTY_TABLE.values():
            heights |= {np.nextafter(min_h, 0.0), min_h, np.nextafter(min_h, np.inf)}
            occlusions |= {max_occ - 1, max_occ, max_occ + 1}
            truncations |= {np.nextafter(max_trunc, 0.0), max_trunc,
                            np.nextafter(max_trunc, np.inf)}
        grid = list(itertools.product(sorted(heights), sorted(occlusions), sorted(truncations)))
        h, occ, trunc = (np.array(v) for v in zip(*grid))
        for d in DIFFICULTIES:
            want = [passes_difficulty(float(a), int(b), float(c), d) for a, b, c in grid]
            assert all(type(w) is bool for w in want)
            got = passes_difficulty(h, occ, trunc, d)
            assert got.dtype == bool and got.tolist() == want
            assert 0 < sum(want) < len(grid)

    @pytest.mark.parametrize("difficulty", ["Moderate", "medium", ""])
    def test_unknown_difficulty_named(self, difficulty):
        with pytest.raises(ValueError, match=rf"easy, moderate or hard, got '{difficulty}'"):
            passes_difficulty(50.0, 0, 0.0, difficulty)

    def test_table_pinned(self):
        assert DIFFICULTY_TABLE["easy"] == (40.0, 0, 0.15)
        assert DIFFICULTY_TABLE["moderate"] == (25.0, 1, 0.30)
        assert DIFFICULTY_TABLE["hard"] == (25.0, 2, 0.50)


class TestMatching:
    def test_perfect_match(self):
        dets = [det_at(0.9, 0, 0, 10, 40)]
        gts = [gt_at(0, 0, 10, 40)]
        scores, tp, drop = match(dets, gts, 0.7)
        assert tp.tolist() == [True] and drop.tolist() == [False]

    def test_one_gt_two_dets(self):
        dets = [det_at(0.9, 0, 0, 10, 40), det_at(0.8, 1, 0, 11, 40)]
        gts = [gt_at(0, 0, 10, 40)]
        scores, tp, drop = match(dets, gts, 0.5)
        assert tp.tolist() == [True, False]  # second one is a duplicate FP

    def test_higher_score_matches_first(self):
        dets = [det_at(0.6, 0, 0, 10, 40), det_at(0.9, 0, 0, 10, 40)]
        gts = [gt_at(0, 0, 10, 40)]
        scores, tp, drop = match(dets, gts, 0.5)
        # flags are in score order: the 0.9 det wins the gt
        assert scores.tolist() == [0.9, 0.6]
        assert tp.tolist() == [True, False]

    def test_ignored_gt_absorbs(self):
        dets = [det_at(0.9, 0, 0, 10, 20)]
        gts = []
        ignored = [gt_at(0, 0, 10, 20)]  # too small for the difficulty
        scores, tp, drop = match(dets, gts, 0.5, ignored=ignored)
        assert drop.tolist() == [True] and tp.tolist() == [False]

    def test_dontcare_absorbs(self):
        dets = [det_at(0.9, 0, 0, 10, 20)]
        scores, tp, drop = match(dets, [], 0.5, dontcare=[Box2D(0, 0, 10, 20)])
        assert drop.tolist() == [True]


def brute_force_match(scores, iou, thresh, iou_ignored, iou_dontcare):
    """The per-pair greedy loop `match_detections` replaced, reading IoUs from
    the matrices instead of computing them pair by pair."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    taken = [False] * iou.shape[1]
    tp = np.zeros(len(scores), dtype=bool)
    drop = np.zeros(len(scores), dtype=bool)
    matched = np.full(len(scores), -1)
    for rank, i in enumerate(order):
        best, best_j = thresh, -1
        for j in range(iou.shape[1]):
            if taken[j]:
                continue
            if iou[i, j] >= best:
                best, best_j = iou[i, j], j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
            matched[rank] = best_j
            continue
        for j in range(iou_ignored.shape[1]):
            if iou_ignored[i, j] >= thresh:
                drop[rank] = True
                break
        if not drop[rank]:
            for j in range(iou_dontcare.shape[1]):
                if iou_dontcare[i, j] >= thresh:
                    drop[rank] = True
                    break
    return np.array([scores[i] for i in order]), tp, drop, matched


class TestMatchingOracle:
    def test_matches_per_pair_loop_with_ties(self):
        rng = np.random.default_rng(12)
        levels = np.array([0.0, 0.3, 0.5, 0.6, 0.7, 0.7, 0.9, 1.0])
        for _ in range(2000):
            D, G, I, C = (int(rng.integers(0, n)) for n in (12, 7, 3, 3))
            scores = rng.choice([0.2, 0.5, 0.5, 0.8, 0.9], size=D)
            iou, ign, dc = (rng.choice(levels, size=(D, n)) for n in (G, I, C))
            thresh = float(rng.choice([0.5, 0.7]))
            got = match_detections(scores[None], iou[None], thresh, ign[None], dc[None])
            want = brute_force_match(scores, iou, thresh, ign, dc)
            for g, w in zip(got, want):
                assert g[0].tolist() == w.tolist()

    def test_stack_matches_per_frame_loop(self):
        # padded multi-frame stacks, one call each, against the per-frame loop;
        # frames may hold no detections, no ground truths, or DontCare only
        rng = np.random.default_rng(21)
        levels = np.array([0.0, 0.3, 0.5, 0.6, 0.7, 0.7, 0.9, 1.0])
        score_levels = np.array([0.2, 0.5, 0.5, 0.8, 0.9])
        for _ in range(2000):
            frames = []
            for kind in rng.integers(0, 4, size=int(rng.integers(1, 5))):
                # 0: any, 1: no detections, 2: no ground truths, 3: DontCare only
                D, G, I, C = rng.integers([0 if kind == 1 else 1, 0 if kind >= 2 else 1,
                                           0, 1 if kind == 3 else 0],
                                          [1 if kind == 1 else 10, 1 if kind >= 2 else 6,
                                           1 if kind == 3 else 3, 3])
                iou = levels[rng.integers(0, 8, size=(D, G + I + C))]
                frames.append((score_levels[rng.integers(0, 5, size=D)],
                               iou[:, :G], iou[:, G:G + I], iou[:, G + I:]))
            thresh = float(rng.choice([0.5, 0.7]))
            n_det = [len(f[0]) for f in frames]
            D = max(n_det)
            scores = np.full((len(frames), D), np.nan)
            stacks = [np.full((len(frames), D, max(f[k].shape[1] for f in frames)), np.nan)
                      for k in (1, 2, 3)]
            for f, frame in enumerate(frames):
                scores[f, :n_det[f]] = frame[0]
                for stack, m in zip(stacks, frame[1:]):
                    stack[f, :m.shape[0], :m.shape[1]] = m
            got = match_detections(scores, stacks[0], thresh, *stacks[1:])
            for f, (frame, n) in enumerate(zip(frames, n_det)):
                want = brute_force_match(*frame[:2], thresh, *frame[2:])
                for g, w in zip(got, want):
                    assert g[f, :n].tolist() == w.tolist()
                s, tp, drop, matched = (g[f, n:] for g in got)
                assert drop.all() and not tp.any() and (matched == -1).all()

    def test_equal_iou_goes_to_last_index(self):
        scores, tp, drop, matched = match_detections([[0.9, 0.8]], [[[0.8, 0.8], [0.8, 0.8]]], 0.7)
        assert matched.tolist() == [[1, 0]] and tp.tolist() == [[True, True]]

    def test_empty(self):
        scores, tp, drop, matched = match_detections(np.zeros((1, 0)), np.zeros((1, 0, 3)), 0.5)
        assert scores.shape == tp.shape == drop.shape == matched.shape == (1, 0)

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="one row per detection"):
            match_detections([[0.9, 0.8]], np.zeros((1, 3, 2)), 0.5)


class TestAveragePrecision:
    @pytest.mark.parametrize("mode", ["r11", "r40"])
    def test_perfect_detector(self, mode):
        scores = [0.9, 0.8, 0.7]
        tp = [True, True, True]
        assert average_precision(scores, tp, 3, mode) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["r11", "r40"])
    def test_empty_detector(self, mode):
        assert average_precision([], [], 5, mode) == 0.0

    def test_r11_includes_recall_zero(self):
        # one TP out of many gts: recall 0.1 never reached, but the recall-0
        # point still collects the precision
        ap = average_precision([0.9], [True], 100, "r11")
        assert ap == pytest.approx(1.0 / 11.0)

    def test_needs_ground_truth(self):
        with pytest.raises(ValueError, match="ground truth"):
            average_precision([0.9], [True], 0)

    @pytest.mark.parametrize("mode", ["R11", "r25", "11"])
    def test_unknown_mode_named(self, mode):
        # one TP then one FP of two ground truths: r11 reads 6/11, r40 0.5
        with pytest.raises(ValueError, match=rf"r11 or r40, got '{mode}'"):
            average_precision([0.9, 0.8], [True, False], 2, mode)

    @pytest.mark.parametrize("mode", ["r11", "r40"])
    def test_matches_brute_force_on_small_fixtures(self, mode):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            scores = np.round(rng.uniform(0.0, 1.0, size=n), 3)
            tp = rng.uniform(size=n) < 0.6
            num_gt = int(tp.sum() + rng.integers(0, 4))
            if num_gt == 0:
                num_gt = 1
            got = average_precision(scores, tp, num_gt, mode)
            want = brute_force_ap(scores, tp, num_gt, mode)
            assert got == want, f"{mode}: {scores} {tp} {num_gt}"

    def test_fp_only_hurts(self):
        # adding a false positive anywhere never raises AP
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            scores = rng.uniform(size=n)
            tp = rng.uniform(size=n) < 0.7
            num_gt = max(1, int(tp.sum()))
            base = average_precision(scores, tp, num_gt, "r40")
            more = average_precision(np.append(scores, rng.uniform()),
                                     np.append(tp, False), num_gt, "r40")
            assert more <= base + 1e-12

    def test_order_independence(self):
        scores = [0.3, 0.9, 0.5, 0.7]
        tp = [False, True, True, False]
        perm = [2, 0, 3, 1]
        a = average_precision(scores, tp, 2, "r40")
        b = average_precision([scores[i] for i in perm], [tp[i] for i in perm], 2, "r40")
        assert a == b

    @pytest.mark.parametrize("scores,tp", [([0.9, 0.5], [1]), ([0.9, 0.5], [1, 0, 1])])
    def test_lengths_must_match(self, scores, tp):
        # once a bare IndexError, or an AP from the first two flags
        with pytest.raises(ValueError, match=f"differ in length: 2 vs {len(tp)}"):
            average_precision(scores, tp, 2)

    def test_nan_score_rejected(self):
        # once ranked last, for an AP of 0.25
        with pytest.raises(ValueError, match=r"scores\[0\] is NaN"):
            average_precision([math.nan, 0.5], [1, 0], 2)

    def test_infinite_scores_rank(self):
        assert average_precision([-math.inf, math.inf], [0, 1], 1) == 1.0
        assert average_precision([math.inf, 0.5], [0, 1], 1) == 0.5


CLASSES = ("Car", "Pedestrian", "Cyclist")
DIMS = {"Car": (1.52, 1.63, 3.88), "Pedestrian": (1.76, 0.66, 0.84),
        "Cyclist": (1.74, 0.60, 1.76)}  # h, w, l


def kitti_shaped_frames(rng, n_frames=100):
    """Frames shaped like KITTI labels: 8 ground truths of the three classes
    (mostly Car) spread over the difficulties, 1 or 2 DontCare regions, and 24
    detections: a close and a loose one per ground truth (a few of the wrong
    class) and 8 false positives, the last ones inside the DontCare regions.
    Some frames have no detections or only DontCare labels. Scores take few
    values and 2D boxes whole pixels, so that ties occur."""
    frames = []

    def label(cls, x, z, dims, yaw, occlusion=0, truncation=0.0):
        h, w, l = dims
        u, bottom, px = 610.0 + 720.0 * x / z, 173.0 + 720.0 * 1.65 / z, 720.0 / z
        box2d = tuple(np.round([u - px * (w + l) / 2, bottom - px * h,
                                u + px * (w + l) / 2, bottom]).tolist())
        return LabelRecord(cls, truncation, occlusion, 0.0, box2d, dims, (x, 1.65, z), yaw)

    def detection(rec, cls, score):
        return Detection(CLASSES.index(cls), score, rec.as_box2d(), rec.as_box3d(), 0.0)

    for f in range(n_frames):
        gts, dets = [], []
        for _ in range(8):
            cls = CLASSES[rng.choice(3, p=[0.82, 0.13, 0.05])]
            z, dims, yaw = rng.uniform(5.0, 55.0), DIMS[cls], rng.uniform(-np.pi, np.pi)
            x = z * rng.uniform(-0.6, 0.6)
            gts.append(label(cls, x, z, dims, yaw, int(rng.integers(0, 4)),
                             float(rng.choice([0.0, 0.0, 0.1, 0.25, 0.45, 0.6]))))
            for spread in (0.1, 0.8):
                wrong = spread > 0.5 and rng.uniform() < 0.1
                rec = label(CLASSES[(CLASSES.index(cls) + wrong) % 3],
                            x + rng.normal(0.0, spread), z + rng.normal(0.0, spread),
                            tuple(d * rng.uniform(0.9, 1.1) for d in dims),
                            yaw + rng.normal(0.0, spread))
                dets.append(detection(rec, rec.type, round(rng.uniform(0.3, 1.0), 1)))
        for _ in range(8):
            cls = CLASSES[rng.integers(0, 3)]
            z = rng.uniform(5.0, 55.0)
            rec = label(cls, z * rng.uniform(-0.6, 0.6), z, DIMS[cls], rng.uniform(-np.pi, np.pi))
            dets.append(detection(rec, cls, round(rng.uniform(0.0, 0.6), 1)))
        for det in dets[-(1 + f % 2):]:
            b = det.box2d
            gts.append(LabelRecord("DontCare", -1.0, -1, -10.0,
                                   (b.x1 - 4, b.y1 - 4, b.x2 + 4, b.y2 + 4),
                                   (-1.0, -1.0, -1.0), (-1000.0, -1000.0, -1000.0), -10.0))
        if f % 25 == 3:
            dets = []
        if f % 25 == 7:
            gts = [g for g in gts if g.type == "DontCare"]
        frames.append((dets, gts))
    return frames


def per_frame_evaluate(frames, class_name, config, difficulties):
    """`evaluate_class` as it was before frames were batched: scalar
    difficulty tests, per-frame IoU matrices cut from one pair-kernel call,
    and `brute_force_match` frame by frame. One AP per difficulty."""
    kernel, width, det_row, gt_row = {
        "2d": (iou_2d_pairs, 4, lambda d: d.box2d.as_array(), lambda g: g.as_box2d().as_array()),
        "bev": (iou_bev_pairs, 7, lambda d: d.box3d.as_array(), lambda g: g.as_box3d().as_array()),
        "3d": (iou_3d_pairs, 7, lambda d: d.box3d.as_array(), lambda g: g.as_box3d().as_array()),
    }[config.task]

    def matrices(kernel, pairs, width):
        """Per-frame (D, G) matrices of (detection rows, column rows) pairs."""
        rows, cols = zip(*[(np.repeat(np.reshape(a, (-1, width)), len(b), axis=0),
                            np.tile(np.reshape(b, (-1, width)), (len(a), 1))) for a, b in pairs])
        flat = kernel(np.concatenate(rows), np.concatenate(cols))
        sizes = [len(a) * len(b) for a, b in pairs]
        return [m.reshape(len(a), len(b)) for m, (a, b)
                in zip(np.split(flat, np.cumsum(sizes)[:-1]), pairs)]

    own = [[g for g in gts if g.type == class_name] for _, gts in frames]
    ious = matrices(kernel, [([det_row(d) for d in dets], [gt_row(g) for g in gs])
                             for (dets, _), gs in zip(frames, own)], width)
    dc_ious = matrices(iou_2d_pairs, [([d.box2d.as_array() for d in dets],
                                       [g.as_box2d().as_array() for g in gts
                                        if g.type == "DontCare"])
                                      for dets, gts in frames], 4)
    per_frame = [([d.score for d in dets], gs, iou, iou_dc)
                 for (dets, _), gs, iou, iou_dc in zip(frames, own, ious, dc_ious)]
    aps = []
    for difficulty in difficulties:
        all_scores, all_tp, num_gt = [np.zeros(0)], [np.zeros(0, dtype=bool)], 0
        for scores, gs, iou, iou_dc in per_frame:
            valid = np.array([passes_difficulty(g.box2d[3] - g.box2d[1], g.occlusion,
                                                g.truncation, difficulty) for g in gs], dtype=bool)
            num_gt += int(valid.sum())
            s, tp, drop, _ = brute_force_match(scores, iou[:, valid],
                                               config.threshold_for(class_name),
                                               iou[:, ~valid], iou_dc)
            all_scores.append(s[~drop])
            all_tp.append(tp[~drop])
        aps.append(float("nan") if num_gt == 0 else average_precision(
            np.concatenate(all_scores), np.concatenate(all_tp), num_gt, config.mode))
    return aps


class TestEvaluateClass:
    def frames_perfect(self):
        frames = []
        for k in range(3):
            gts = [gt_at(10 * k, 0, 10 * k + 20, 45)]
            dets = [det_at(0.9 - 0.1 * k, 10 * k, 0, 10 * k + 20, 45)]
            frames.append((dets, gts))
        return frames

    def test_perfect_is_one(self):
        cfg = EvalConfig(task="2d", mode="r40")
        assert evaluate_class(self.frames_perfect(), "Car", cfg, "easy") == pytest.approx(1.0)

    def test_no_gt_is_nan(self):
        cfg = EvalConfig(task="2d")
        ap = evaluate_class([([], [])], "Car", cfg, "easy")
        assert ap != ap

    @pytest.mark.parametrize("frames", ["perfect", "empty"])
    def test_unknown_difficulty_named(self, frames):
        frames = self.frames_perfect() if frames == "perfect" else [([], [])]
        with pytest.raises(ValueError, match="easy, moderate or hard, got 'Moderate'"):
            evaluate_class(frames, "Car", EvalConfig(task="2d"), "Moderate")

    def test_ignored_gt_not_counted_as_fn(self):
        cfg = EvalConfig(task="2d", mode="r40")
        frames = self.frames_perfect()
        # add an easy-failing (small) gt plus a det on it: both must vanish
        frames.append(([det_at(0.95, 0, 0, 10, 20)], [gt_at(0, 0, 10, 20)]))
        assert evaluate_class(frames, "Car", cfg, "easy") == pytest.approx(1.0)

    def test_dontcare_regions(self):
        cfg = EvalConfig(task="2d", mode="r40")
        frames = self.frames_perfect()
        dc = LabelRecord("DontCare", -1, -1, -10, (100, 0, 140, 40),
                         (-1, -1, -1), (-1000, -1000, -1000), -10)
        frames.append(([det_at(0.99, 100, 0, 140, 40)], [dc]))
        assert evaluate_class(frames, "Car", cfg, "easy") == pytest.approx(1.0)

    def test_other_class_is_fp(self):
        cfg = EvalConfig(task="2d", mode="r40")
        frames = self.frames_perfect()
        frames.append(([det_at(0.99, 200, 0, 230, 45)], [gt_at(200, 0, 230, 45, cls="Van")]))
        assert evaluate_class(frames, "Car", cfg, "easy") < 1.0

    @pytest.mark.parametrize("task", ["2d", "bev", "3d"])
    def test_matches_per_pair_reference(self, task):
        iou = {"2d": lambda d, g: iou_2d(d.box2d, g.as_box2d()),
               "bev": lambda d, g: iou_bev(d.box3d, g.as_box3d()),
               "3d": lambda d, g: iou_3d(d.box3d, g.as_box3d())}[task]
        rng = np.random.default_rng(13)
        frames = []
        for _ in range(30):
            gts = []
            for _ in range(int(rng.integers(0, 6))):
                x, z = rng.uniform(0, 100), rng.uniform(15, 25)
                gts.append(gt_at(x, 0, x + 20, rng.choice([20, 30, 45]), z=z,
                                 cls=rng.choice(["Pedestrian", "Van", "DontCare"])))
            dets = [det_at(float(rng.choice([0.5, 0.7, 0.9])), g.box2d[0] + rng.uniform(-4, 4), 0,
                           g.box2d[2] + rng.uniform(-4, 4), g.box2d[3], z=g.location[2] + rng.uniform(-2, 2))
                    for g in gts for _ in range(int(rng.integers(0, 3)))]
            frames.append((dets, gts))
        cfg = EvalConfig(task=task, mode="r40")   # Pedestrian: IoU 0.5

        def matrix(dets, group, f):
            return np.array([[f(d, g) for g in group] for d in dets]).reshape(len(dets), len(group))

        for difficulty in ("easy", "hard"):
            all_scores, all_tp, num_gt = [], [], 0
            for dets, gts in frames:
                valid, ignored = [], []
                for g in gts:
                    if g.type == "Pedestrian":
                        h = g.box2d[3] - g.box2d[1]
                        (valid if passes_difficulty(h, 0, 0.0, difficulty) else ignored).append(g)
                dc = [g for g in gts if g.type == "DontCare"]
                num_gt += len(valid)
                scores, tp, drop, _ = brute_force_match(
                    [d.score for d in dets], matrix(dets, valid, iou), 0.5,
                    matrix(dets, ignored, iou), matrix(dets, dc, iou2d_fn))
                all_scores += list(scores[~drop])
                all_tp += list(tp[~drop])
            want = average_precision(np.array(all_scores), np.array(all_tp), num_gt, "r40")
            assert evaluate_class(frames, "Pedestrian", cfg, difficulty) == want

    def test_kitti_shaped_table_matches_per_frame_path(self):
        # all 27 cells (3 tasks x 3 classes x 3 difficulties), bitwise
        frames = kitti_shaped_frames(np.random.default_rng(31))
        positive = 0
        for task in ("2d", "bev", "3d"):
            cfg = EvalConfig(mode="r40", task=task)
            for k, cls in enumerate(CLASSES):
                own = [([d for d in dets if d.class_id == k], gts) for dets, gts in frames]
                want = per_frame_evaluate(own, cls, cfg, DIFFICULTIES)
                for d, w in zip(DIFFICULTIES, want):
                    got = evaluate_class(own, cls, cfg, difficulty=d)
                    assert np.float64(got).tobytes() == np.float64(w).tobytes(), (task, cls, d)
                    positive += got > 0.0
        assert positive >= 20

    def test_equal_ious_go_to_the_last_valid_label(self):
        # det 0.9 overlaps A and B equally and takes B, the later valid label
        # (an ignored label lies between them); det 0.8 reaches only A at
        # Pedestrian's IoU 0.5
        cfg = EvalConfig(task="2d", mode="r40")
        a, small, b = (gt_at(*box, cls="Pedestrian")
                       for box in ((0, 0, 100, 50), (200, 0, 230, 20), (20, 0, 120, 50)))
        dets = [det_at(0.9, 10, 0, 110, 50), det_at(0.8, -30, 0, 70, 50)]
        assert evaluate_class([(dets, [a, small, b])], "Pedestrian", cfg, "easy") == 1.0
        assert evaluate_class([(dets, [b, small, a])], "Pedestrian", cfg, "easy") < 1.0

    def test_bad_label_boxes_rejected(self):
        frames = self.frames_perfect()
        dc = LabelRecord("DontCare", -1, -1, -10, (140, 0, 100, 40),
                         (-1, -1, -1), (-1000, -1000, -1000), -10)
        with pytest.raises(ValueError, match="degenerate 2D box"):
            evaluate_class(frames + [([], [dc])], "Car", EvalConfig(task="3d"), "easy")
        flat = LabelRecord("Car", 0.0, 0, 0.0, (0, 0, 10, 45), (1.5, 0.0, 4.0),
                           (0.0, 1.5, 20.0), 0.0)
        with pytest.raises(ValueError, match="non-positive 3D dimensions"):
            evaluate_class(frames + [([], [flat])], "Car", EvalConfig(task="bev"), "easy")
        # named in the label's (h, w, l) order
        flat = LabelRecord("Car", 0.0, 0, 0.0, (0, 0, 10, 45), (1.6, 0.0, 3.9),
                           (0.0, 1.5, 20.0), 0.0)
        with pytest.raises(ValueError,
                           match=re.escape("non-positive 3D dimensions (1.6, 0.0, 3.9)")):
            evaluate_class(frames + [([], [flat])], "Car", EvalConfig(task="3d"), "easy")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            EvalConfig(mode="r25")
        with pytest.raises(ValueError, match="task"):
            EvalConfig(task="4d")


class TestStackMemo:
    """The IoU stacks are computed once per (task, class) and reused across
    the difficulties, keyed on the content of the rows, never on identity."""

    @staticmethod
    def car_frames(seed):
        frames = kitti_shaped_frames(np.random.default_rng(seed), n_frames=30)
        return [([d for d in dets if d.class_id == 0], gts) for dets, gts in frames]

    @staticmethod
    def counting(monkeypatch):
        """Count the pair-kernel passes `evaluate_class` makes through evaluate's
        namespace, from an empty memo."""
        monkeypatch.setattr(evaluate, "_memo", {})
        calls = {"_footprint_ious": 0, "iou_2d_pairs": 0}
        for name in calls:
            def counted(a, b, _kernel=getattr(evaluate, name), _name=name):
                calls[_name] += 1
                return _kernel(a, b)
            monkeypatch.setattr(evaluate, name, counted)
        return calls

    @pytest.mark.parametrize("tasks", [("bev", "3d"), ("3d", "bev")], ids="-".join)
    def test_three_difficulties_one_kernel_call(self, monkeypatch, tasks):
        frames = self.car_frames(41)
        calls = self.counting(monkeypatch)
        evaluate_class(self.car_frames(42), "Car", EvalConfig(task="bev"), "easy")   # other rows
        calls.update({name: 0 for name in calls})
        got = {t: [evaluate_class(frames, "Car", EvalConfig(task=t), d) for d in DIFFICULTIES]
               for t in tasks}
        assert calls == {"_footprint_ious": 1, "iou_2d_pairs": 1}   # the footprint and DontCare passes
        for t in tasks:
            assert got[t] == per_frame_evaluate(frames, "Car", EvalConfig(task=t), DIFFICULTIES)

    def test_task_major_order_one_footprint_pass_per_class(self, monkeypatch):
        frames = kitti_shaped_frames(np.random.default_rng(44), n_frames=30)
        by_class = {cls: [([d for d in dets if d.class_id == k], gts) for dets, gts in frames]
                    for k, cls in enumerate(CLASSES)}
        calls = self.counting(monkeypatch)
        aps = [evaluate_class(by_class[cls], cls, EvalConfig(task=task), d)
               for task in ("2d", "bev", "3d") for cls in CLASSES for d in DIFFICULTIES]
        assert not any(math.isnan(v) for v in aps[1::3])   # every class has moderate ground truth
        # per class: a 2d pass, a footprint pass and a DontCare pass
        assert calls == {"_footprint_ious": 3, "iou_2d_pairs": 6}

    @pytest.mark.parametrize("field", ["y", "h"])
    def test_moving_only_y_or_h_between_bev_and_3d(self, monkeypatch, field):
        frames = self.car_frames(45)
        bev, three_d = EvalConfig(task="bev"), EvalConfig(task="3d")
        before = [evaluate_class(frames, "Car", three_d, d) for d in DIFFICULTIES]
        bev_before = [evaluate_class(frames, "Car", bev, d) for d in DIFFICULTIES]
        for d in [d for ds, _ in frames for d in ds][::2]:   # the footprints stay where they are
            setattr(d.box3d, field, getattr(d.box3d, field) + 0.8)
        got = [evaluate_class(frames, "Car", three_d, d) for d in DIFFICULTIES]
        assert [evaluate_class(frames, "Car", bev, d) for d in DIFFICULTIES] == bev_before
        fresh = copy.deepcopy(frames)
        monkeypatch.setattr(evaluate, "_memo", {})
        assert got == [evaluate_class(fresh, "Car", three_d, d) for d in DIFFICULTIES]
        assert got != before   # the move matters

    def test_memo_stacks_are_the_pair_kernels_bits(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_memo", {})
        frames = self.car_frames(46)
        evaluate_class(frames, "Car", EvalConfig(task="bev"), "moderate")
        _, stacks = evaluate._memo["Car", "class"]
        index, a, b = [], [], []
        for f, (dets, gts) in enumerate(frames):
            cars = [g.as_box3d().as_array() for g in gts if g.type == "Car"]
            for i, d in enumerate(dets):
                for j, row in enumerate(cars):
                    index.append((f, i, j))
                    a.append(d.box3d.as_array())
                    b.append(row)
        f, i, j = np.array(index).T
        for stack, kernel in zip(stacks, (iou_bev_pairs, iou_3d_pairs)):
            want = np.full(stack.shape, np.nan)
            want[f, i, j] = kernel(a, b)
            assert np.array_equal(stack.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("task", ["2d", "bev", "3d"])
    def test_in_place_mutation_never_reads_a_stale_stack(self, task):
        cfg = EvalConfig(task=task)
        frames = self.car_frames(43)
        dets = [d for ds, _ in frames for d in ds]
        cars = [g for _, gts in frames for g in gts if g.type == "Car"]

        def move_boxes():   # only the box the task reads, so no other key field changes
            for d in dets[:60]:
                if task == "2d":
                    d.box2d.x1, d.box2d.x2 = d.box2d.x1 + 30, d.box2d.x2 + 30
                else:
                    d.box3d.x += 3.0

        mutations = [
            move_boxes,
            lambda: [setattr(d, "score", 1.0 - d.score) for d in dets[:60]],
            lambda: [setattr(g, "occlusion", 3) for g in cars[:40]],
        ]
        for mutate in mutations:
            before = [evaluate_class(frames, "Car", cfg, d) for d in DIFFICULTIES]
            mutate()
            got = [evaluate_class(frames, "Car", cfg, d) for d in DIFFICULTIES]
            fresh = copy.deepcopy(frames)
            evaluate_class(fresh, "Car", EvalConfig(task="3d" if task == "2d" else "2d"), "hard")
            want = [evaluate_class(fresh, "Car", cfg, d) for d in DIFFICULTIES]
            assert got == want
            assert got != before   # the mutation matters


class TestDepthErrorReport:
    def test_singleton(self):
        dets = [det_at(0.9, 0, 0, 10, 40, z=22.0)]
        gts = [gt_at(0, 0, 10, 40, z=20.0)]
        report = depth_error_report(dets, gts, [0, 30, 60])
        assert report == {(0, 30): pytest.approx(2.0)}

    def test_grouping_oracle(self):
        rng = np.random.default_rng(3)
        dets, gts = [], []
        for k in range(12):
            x = 30.0 * k
            z = rng.uniform(5.0, 55.0)
            err = rng.uniform(-3.0, 3.0)
            gts.append(gt_at(x, 0, x + 20, 40, z=z))
            dets.append(det_at(0.9, x, 0, x + 20, 40, z=z + err))
        edges = [0.0, 20.0, 40.0, 60.0]
        report = depth_error_report(dets, gts, edges)
        # naive regrouping
        groups = {}
        for d, g in zip(dets, gts):
            z = g.location[2]
            for k in range(3):
                if edges[k] <= z < edges[k + 1]:
                    groups.setdefault((edges[k], edges[k + 1]), []).append(
                        abs(d.box3d.z - z))
        for key, errs in groups.items():
            assert report[key] == pytest.approx(np.mean(errs))
        assert set(report) == set(groups)

    def test_unmatched_excluded(self):
        dets = [det_at(0.9, 500, 0, 520, 40, z=25.0)]
        gts = [gt_at(0, 0, 10, 30, z=20.0)]
        assert depth_error_report(dets, gts, [0, 60]) == {}
