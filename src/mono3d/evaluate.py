"""KITTI-protocol evaluation: interpolated AP at 11/40 recall points,
difficulty buckets, and depth-error analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import iou_2d_pairs, iou_3d_pairs, iou_bev_pairs

__all__ = [
    "EvalConfig",
    "DIFFICULTY_TABLE",
    "passes_difficulty",
    "match_detections",
    "average_precision",
    "evaluate_class",
    "depth_error_report",
]


@dataclass
class EvalConfig:
    iou_thresholds: dict = field(default_factory=lambda: {
        "Car": 0.7, "Pedestrian": 0.5, "Cyclist": 0.5,
    })
    mode: str = "r40"          # "r11" or "r40"
    task: str = "3d"           # "2d", "bev", or "3d"

    def __post_init__(self):
        if self.mode not in ("r11", "r40"):
            raise ValueError(f"mode must be r11 or r40, got {self.mode}")
        if self.task not in ("2d", "bev", "3d"):
            raise ValueError(f"task must be 2d, bev or 3d, got {self.task}")
        for cls, t in self.iou_thresholds.items():
            if not 0.0 < t <= 1.0:
                raise ValueError(f"IoU threshold for {cls} out of (0, 1]: {t}")

    def threshold_for(self, class_name):
        return self.iou_thresholds.get(class_name, 0.5)


# min 2D box height (px), max occlusion, max truncation per difficulty
DIFFICULTY_TABLE = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}
DIFFICULTIES = ("easy", "moderate", "hard")


def passes_difficulty(height_px, occlusion, truncation, difficulty, table=None):
    min_h, max_occ, max_trunc = (table or DIFFICULTY_TABLE)[difficulty]
    return height_px >= min_h and occlusion <= max_occ and truncation <= max_trunc


def _matrix(m, n_rows):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or len(m) != n_rows:
        raise ValueError(f"IoU matrix needs one row per detection ({n_rows}), got shape {m.shape}")
    return m


def match_detections(scores, iou, thresh, iou_ignored=None, iou_dontcare=None):
    """Greedy score-ordered matching of one image's detections.

    `iou` is the (D, G) IoU matrix of detections against valid ground truths,
    `iou_ignored` (D, I) against ignored ground truths and `iou_dontcare`
    (D, C) against DontCare regions. Detections are taken by descending
    score, equal scores by index; each takes the highest-IoU still-unmatched
    ground truth with IoU >= thresh, equal IoUs going to the last index. An
    unmatched detection with IoU >= thresh on an ignored ground truth or a
    DontCare region is dropped from scoring (neither TP nor FP).

    Returns (scores, tp_flags, drop_flags, matched) in score-descending
    detection order; `matched` holds each detection's ground-truth column, or
    -1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    iou = _matrix(iou, len(scores))[order]
    hits = iou >= thresh
    taken = np.zeros(iou.shape[1], dtype=bool)
    matched = np.full(len(scores), -1)
    for rank in np.flatnonzero(hits.any(axis=1)):
        free = hits[rank] & ~taken
        if free.any():
            row = np.where(free, iou[rank], -np.inf)[::-1]
            matched[rank] = len(row) - 1 - int(np.argmax(row))
            taken[matched[rank]] = True
    tp = matched >= 0
    absorbed = np.zeros(len(scores), dtype=bool)
    for m in (iou_ignored, iou_dontcare):
        if m is not None:
            absorbed |= (_matrix(m, len(scores))[order] >= thresh).any(axis=1)
    return scores[order], tp, absorbed & ~tp, matched


def average_precision(scores, tp, num_gt, mode="r40"):
    """Interpolated AP over fixed recall points.

    R11 uses {0, 0.1, ..., 1.0}; R40 uses {1/40, ..., 40/40}. Precision at
    recall r is the maximum precision among operating points with recall >= r.
    """
    if num_gt <= 0:
        raise ValueError("average precision needs at least one ground truth")
    points = np.arange(11) / 10.0 if mode == "r11" else np.arange(1, 41) / 40.0
    if len(scores) == 0:
        return 0.0
    order = np.argsort(-np.asarray(scores), kind="stable")
    tp_sorted = np.asarray(tp, dtype=np.float64)[order]
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(1.0 - tp_sorted)
    recall = cum_tp / num_gt
    precision = cum_tp / (cum_tp + cum_fp)
    total = 0.0
    for r in points:
        mask = recall >= r - 1e-12
        total += precision[mask].max() if mask.any() else 0.0
    return total / len(points)


def _pair_ious(rows, cols, n_rows, n_cols, kernel):
    """Per-frame (n_rows[f], n_cols[f]) IoU matrices of the stacked row and
    column arrays of all frames, from one kernel call over every pair."""
    n_cols = np.asarray(n_cols, dtype=np.int64)
    reps = np.repeat(n_cols, n_rows)    # each row pairs with its frame's columns
    first_col = np.repeat(np.cumsum(n_cols) - n_cols, n_rows)
    i = np.repeat(np.arange(len(reps)), reps)
    j = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps - first_col, reps)
    flat = kernel(rows[i], cols[j])
    sizes = np.asarray(n_rows, dtype=np.int64) * n_cols
    return [m.reshape(r, c) for m, r, c in zip(np.split(flat, np.cumsum(sizes)[:-1]),
                                               n_rows, n_cols)]


def _stack(arrays, width):
    return np.array(arrays, dtype=np.float64).reshape(-1, width)


def evaluate_class(frames, class_name, config, difficulty="moderate"):
    """AP for one class over (dets, gt_records) frame pairs.

    gt records are kitti.LabelRecord objects; gts of the class that fail the
    difficulty test are ignored (absorb detections, never count as FN), as
    are DontCare regions. Every detection given is scored as this class, so
    pass only the class's own detections.
    """
    thresh = config.threshold_for(class_name)
    num_gt = 0
    scores, n_det, n_valid, n_gt, n_dc = [], [], [], [], []
    det_2d, det_3d, gt_rows, dc_rows = [], [], [], []
    for dets, gts in frames:
        valid, ignored, dontcare = [], [], []
        for g in gts:
            if g.type == "DontCare":
                dontcare.append(g.as_box2d())
            elif g.type == class_name:
                h = g.box2d[3] - g.box2d[1]
                if passes_difficulty(h, g.occlusion, g.truncation, difficulty):
                    valid.append(g)
                else:
                    ignored.append(g)
        num_gt += len(valid)
        if not dets:
            continue
        scores.append([d.score for d in dets])
        n_det.append(len(dets))
        n_valid.append(len(valid))
        n_gt.append(len(valid) + len(ignored))
        n_dc.append(len(dontcare))
        det_2d += [d.box2d.as_array() for d in dets]
        dc_rows += [b.as_array() for b in dontcare]
        if config.task == "2d":
            gt_rows += [g.as_box2d().as_array() for g in valid + ignored]
        else:
            det_3d += [d.box3d.as_array() for d in dets]
            gt_rows += [g.as_box3d().as_array() for g in valid + ignored]
    if num_gt == 0:
        return float("nan")
    det_2d = _stack(det_2d, 4)
    if config.task == "2d":
        ious = _pair_ious(det_2d, _stack(gt_rows, 4), n_det, n_gt, iou_2d_pairs)
    else:
        kernel = iou_bev_pairs if config.task == "bev" else iou_3d_pairs
        ious = _pair_ious(_stack(det_3d, 7), _stack(gt_rows, 7), n_det, n_gt, kernel)
    dc_ious = _pair_ious(det_2d, _stack(dc_rows, 4), n_det, n_dc, iou_2d_pairs)
    all_scores, all_tp = [np.zeros(0)], [np.zeros(0, dtype=bool)]
    for s, iou, dc, nv in zip(scores, ious, dc_ious, n_valid):
        s, tp, drop, _ = match_detections(s, iou[:, :nv], thresh, iou[:, nv:], dc)
        all_scores.append(s[~drop])
        all_tp.append(tp[~drop])
    return average_precision(np.concatenate(all_scores), np.concatenate(all_tp), num_gt,
                             config.mode)


def depth_error_report(dets, gts, bin_edges, by="depth", iou_thresh=0.5):
    """Mean |z_pred - z_gt| per bin of gt depth (or of mean 2D box size).

    Pairs are matched by `match_detections` on 2D IoU >= iou_thresh. Returns
    {(lo, hi): mean_abs_error} with empty bins absent.
    """
    if by not in ("depth", "size"):
        raise ValueError(f"binning must be by depth or size, got {by}")
    scores = [d.score for d in dets]
    (iou,) = _pair_ious(_stack([d.box2d.as_array() for d in dets], 4),
                        _stack([g.as_box2d().as_array() for g in gts], 4),
                        [len(dets)], [len(gts)], iou_2d_pairs)
    _, _, _, matched = match_detections(scores, iou, iou_thresh)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    pairs = [(dets[i], gts[j]) for i, j in zip(order, matched) if j >= 0]

    edges = list(bin_edges)
    sums = {k: [0.0, 0] for k in range(len(edges) - 1)}
    for det, gt in pairs:
        err = abs(det.box3d.z - gt.location[2])
        key = gt.location[2] if by == "depth" else (
            (gt.box2d[2] - gt.box2d[0]) + (gt.box2d[3] - gt.box2d[1])) / 2.0
        for k in range(len(edges) - 1):
            if edges[k] <= key < edges[k + 1]:
                sums[k][0] += err
                sums[k][1] += 1
                break
    return {(edges[k], edges[k + 1]): s / n for k, (s, n) in sums.items() if n > 0}
