"""KITTI-protocol evaluation: interpolated AP at 11/40 recall points,
difficulty buckets, and depth-error analysis.

R40 follows Simonelli et al. 2019 (arXiv:1905.12365). Where the rules depart
from the KITTI devkit (`evaluate_object.cpp`):

- matching is detection-first with `>=` (`match_detections`), where the
  devkit's `computeStatistics` walks the ground truths and gives each the
  best unassigned detection whose overlap is strictly above the threshold,
  so boundary IoUs and some contested pairs can score differently;
- a DontCare region absorbs a detection at IoU >= the class threshold, where
  the devkit uses the intersection over the detection's area;
- neighbouring classes (Van for Car, Person_sitting for Pedestrian) and the
  minimum detection height are not applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import _footprint_ious, iou_2d_pairs

__all__ = [
    "EvalConfig",
    "DIFFICULTY_TABLE",
    "DIFFICULTIES",
    "passes_difficulty",
    "match_detections",
    "average_precision",
    "evaluate_class",
    "depth_error_report",
]


# the KITTI benchmark's IoU thresholds; any other class is scored at 0.5
IOU_THRESHOLDS = {"Car": 0.7, "Pedestrian": 0.5, "Cyclist": 0.5}
# the recall points of each interpolated-AP mode
RECALL_POINTS = {"r11": np.arange(11) / 10.0, "r40": np.arange(1, 41) / 40.0}


def _check_mode(mode):
    if mode not in RECALL_POINTS:
        raise ValueError(f"mode must be r11 or r40, got {mode!r}")


@dataclass
class EvalConfig:
    """The AP mode and the task. The IoU thresholds are IOU_THRESHOLDS;
    `threshold_for` gives 0.5 for a class not in it."""

    mode: str = "r40"          # "r11" or "r40"
    task: str = "3d"           # "2d", "bev", or "3d"

    def __post_init__(self):
        _check_mode(self.mode)
        if self.task not in ("2d", "bev", "3d"):
            raise ValueError(f"task must be 2d, bev or 3d, got {self.task}")

    def threshold_for(self, class_name):
        return IOU_THRESHOLDS.get(class_name, 0.5)


# min 2D box height (px), max occlusion, max truncation per difficulty
DIFFICULTY_TABLE = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}
DIFFICULTIES = ("easy", "moderate", "hard")


def passes_difficulty(height_px, occlusion, truncation, difficulty):
    """Whether ground truths count at `difficulty`; elementwise on arrays."""
    if difficulty not in DIFFICULTY_TABLE:
        raise ValueError(f"difficulty must be easy, moderate or hard, got {difficulty!r}")
    min_h, max_occ, max_trunc = DIFFICULTY_TABLE[difficulty]
    return (height_px >= min_h) & (occlusion <= max_occ) & (truncation <= max_trunc)


def _matrix(name, m, scores):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != scores.ndim + 1 or m.shape[:-1] != scores.shape:
        raise ValueError(f"IoU matrix {name} needs one row per detection of scores "
                         f"{scores.shape}, got shape {m.shape}")
    return m


def match_detections(scores, iou, thresh, iou_ignored=None, iou_dontcare=None):
    """Greedy score-ordered matching of a padded stack of F frames in lockstep.

    `scores` (F, D), `iou` the (F, D, G) IoU stack of detections against
    valid ground truths, `iou_ignored` (F, D, I) against ignored ground
    truths and `iou_dontcare` (F, D, C) against DontCare regions, padded with
    NaN: a NaN score marks a padded detection slot, and a NaN IoU never
    matches. One frame is a stack of one.

    Detections are taken by descending score, equal scores by index; each
    takes the highest-IoU still-unmatched ground truth with IoU >= thresh,
    equal IoUs going to the last index. An unmatched detection with IoU >=
    thresh on an ignored ground truth or a DontCare region is dropped from
    scoring (neither TP nor FP), as is every padded slot.

    Returns (scores, tp_flags, drop_flags, matched) in score-descending
    detection order per frame, padded slots last; `matched` holds each
    detection's ground-truth column, or -1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be an (F, D) stack of frames, got shape {scores.shape}")
    F, D = scores.shape
    ranked = np.arange(F)[:, None], np.argsort(-scores, axis=1, kind="stable")  # NaN last
    iou = _matrix("iou", iou, scores)[ranked]
    hits = iou >= thresh
    taken = np.zeros((F, iou.shape[2]), dtype=bool)
    matched = np.full((F, D), -1)
    for rank in np.flatnonzero(hits.any(axis=(0, 2))):   # rank r of every frame at once
        free = hits[:, rank] & ~taken
        f = np.flatnonzero(free.any(axis=1))
        if len(f):
            row = np.where(free[f], iou[f, rank], -np.inf)[:, ::-1]
            j = iou.shape[2] - 1 - np.argmax(row, axis=1)
            matched[f, rank] = j
            taken[f, j] = True
    tp = matched >= 0
    absorbed = np.zeros((F, D), dtype=bool)
    for name, m in (("iou_ignored", iou_ignored), ("iou_dontcare", iou_dontcare)):
        if m is not None:
            absorbed |= (_matrix(name, m, scores)[ranked] >= thresh).any(axis=2)
    scores = scores[ranked]
    return scores, tp, (absorbed & ~tp) | np.isnan(scores), matched


def average_precision(scores, tp, num_gt, mode="r40"):
    """Interpolated AP over fixed recall points.

    R11 uses {0, 0.1, ..., 1.0}; R40 uses {1/40, ..., 40/40}. Precision at
    recall r is the maximum precision among operating points with recall >= r:
    recall never falls along the score order, so that is a suffix maximum of
    precision from the first point reaching r, found by binary search.
    Scores of +-inf rank; a NaN score, or flags `tp` not one per score, is a
    ValueError.
    """
    _check_mode(mode)
    if num_gt <= 0:
        raise ValueError("average precision needs at least one ground truth")
    scores = np.asarray(scores)
    if len(scores) != len(tp):
        raise ValueError(f"scores and tp flags differ in length: {len(scores)} vs {len(tp)}")
    nan = np.flatnonzero(np.isnan(scores))
    if len(nan):
        raise ValueError(f"scores[{nan[0]}] is NaN, which has no rank")
    points = RECALL_POINTS[mode]
    if len(scores) == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp_sorted = np.asarray(tp, dtype=np.float64)[order]
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(1.0 - tp_sorted)
    recall = cum_tp / num_gt
    best = np.maximum.accumulate((cum_tp / (cum_tp + cum_fp))[::-1])[::-1]
    first = np.searchsorted(recall, points - 1e-12)
    at = np.where(first < len(best), best[np.minimum(first, len(best) - 1)], 0.0)
    return float(np.cumsum(at)[-1] / len(points))   # summed point by point, in order


def _rows(values, width):
    """(n, width) array of n row tuples."""
    return np.fromiter(chain.from_iterable(values), np.float64).reshape(-1, width)


def _check_2d(rows):
    bad = (rows[:, 2] < rows[:, 0]) | (rows[:, 3] < rows[:, 1])
    if bad.any():
        raise ValueError(f"degenerate 2D box {tuple(rows[bad][0].tolist())}")


def _stack(kernel, rows, cols, n_rows, n_cols):
    """Read-only (F, max n_rows, max n_cols) stacks, one per array `kernel`
    returns, of its values on every pair of a frame's rows and columns (both
    sorted by frame), from one kernel call over the pairs in frame, row,
    column order; NaN where no pair lands."""
    R, C = n_rows.max(initial=0), n_cols.max(initial=0)
    f, r, c = np.nonzero((np.arange(R) < n_rows[:, None])[:, :, None]
                         & (np.arange(C) < n_cols[:, None])[:, None, :])
    values = kernel(rows[(np.cumsum(n_rows) - n_rows)[f] + r],
                    cols[(np.cumsum(n_cols) - n_cols)[f] + c])
    stacks = []
    for v in values:
        out = np.full((len(n_rows), R, C), np.nan)
        out[f, r, c] = v
        out.flags.writeable = False
        stacks.append(out)
    return stacks


def _iou_2d(a, b):
    """`iou_2d_pairs` as the one-array tuple `_stack` takes."""
    return (iou_2d_pairs(a, b),)


# (class name, "class" or "dontcare") -> (key, stacks) of the last call that
# filled the slot: the class stacks ((2d,) or (bev, 3d)) and the DontCare one.
# Two slots per class name scored, held for the life of the process.
_memo = {}


def _stacks(slot, family, kernel, rows, cols, n_rows, n_cols):
    """`_stack` of `kernel`, memoised in `_memo[slot]` under the kernel family
    tag and the exact bytes of every array it is computed from, never on
    object identity: the next call on equal inputs reuses it. The tag keeps
    apart families whose inputs can have equal bytes (two empty row sets).
    The key and the stacks are read and replaced as one tuple, so concurrent
    callers never pair them wrongly."""
    key = (family, *(a.tobytes() for a in (rows, cols, n_rows, n_cols)))
    last = _memo.get(slot)
    if last is None or last[0] != key:
        last = _memo[slot] = key, _stack(kernel, rows, cols, n_rows, n_cols)
    return last[1]


def evaluate_class(frames, class_name, config, difficulty="moderate"):
    """AP for one class over (dets, gt_records) frame pairs.

    gt records are kitti.LabelRecord objects; gts of the class that fail the
    difficulty test are ignored (absorb detections, never count as FN), as
    are DontCare regions. Every detection given is scored as this class, so
    pass only the class's own detections.

    All frames are scored together: one IoU kernel call over every
    detection-ground-truth pair of every frame and one over every
    detection-DontCare pair, as padded (frame, detection, ground truth)
    stacks for one `match_detections` call. A frame's ground-truth columns
    keep label order and the difficulty only masks them, so the stacks are
    the same at every difficulty. They are memoised per class name: a class
    slot holds the 2d stack or, from one footprint clip, both the bev and
    the 3d stack, and a DontCare slot holds the DontCare stack, which every
    task shares. A call whose rows equal those that filled a slot reuses it,
    so the three difficulties of each task, and bev then 3d, cost one kernel
    call per class.
    """
    F = len(frames)
    labels = [(f, g) for f, (_, gts) in enumerate(frames) for g in gts
              if g.type == class_name or g.type == "DontCare"]
    frame = np.array([f for f, _ in labels], dtype=np.int64)
    rows = _rows([(*g.box2d, g.occlusion, g.truncation) for _, g in labels], 6)
    dontcare = np.array([g.type == "DontCare" for _, g in labels], dtype=bool)
    valid = ~dontcare & passes_difficulty(rows[:, 3] - rows[:, 1], rows[:, 4], rows[:, 5],
                                          difficulty)
    num_gt = int(valid.sum())
    if num_gt == 0:
        return float("nan")
    gt, dc = np.flatnonzero(~dontcare), np.flatnonzero(dontcare)
    n_gt, n_dc = (np.bincount(frame[k], minlength=F) for k in (gt, dc))
    dc_2d = rows[dc, :4]
    _check_2d(dc_2d)

    dets = [d for ds, _ in frames for d in ds]
    n_det = np.array([len(ds) for ds, _ in frames], dtype=np.int64)
    det_2d = _rows([(b.x1, b.y1, b.x2, b.y2) for b in [d.box2d for d in dets]], 4)
    if config.task == "2d":
        det_rows, gt_rows = det_2d, rows[gt, :4]
        _check_2d(gt_rows)
    else:
        det_rows = _rows([(b.x, b.y, b.z, b.w, b.h, b.l, b.yaw)
                          for b in [d.box3d for d in dets]], 7)
        gt_rows = _rows([(*g.location, g.dims[1], g.dims[0], g.dims[2], g.rotation_y)
                         for g in [labels[k][1] for k in gt]], 7)
        bad = (gt_rows[:, 3:6] <= 0).any(axis=1)
        if bad.any():
            h, w, l = gt_rows[bad][0, [4, 3, 5]].tolist()   # in the file's (h, w, l) order
            raise ValueError(f"non-positive 3D dimensions {(h, w, l)}")
    family, kernel = ("2d", _iou_2d) if config.task == "2d" else ("footprint", _footprint_ious)
    stacks = _stacks((class_name, "class"), family, kernel, det_rows, gt_rows, n_det, n_gt)
    iou = stacks[config.task == "3d"]   # (2d,) or (bev, 3d)
    (iou_dc,) = _stacks((class_name, "dontcare"), "2d", _iou_2d, det_2d, dc_2d, n_det, n_dc)
    # the difficulty masks columns in place: valid ones keep their relative
    # order, so equal IoUs still go to the same ground truth
    column = np.arange(len(gt)) - (np.cumsum(n_gt) - n_gt)[frame[gt]]
    is_valid = np.zeros((F, 1, iou.shape[2]), dtype=bool)
    is_valid[frame[gt], 0, column] = valid[gt]
    scores = np.full(iou.shape[:2], np.nan)
    scores[np.arange(iou.shape[1]) < n_det[:, None]] = [d.score for d in dets]
    s, tp, drop, _ = match_detections(
        scores, np.where(is_valid, iou, np.nan), config.threshold_for(class_name),
        np.where(is_valid, np.nan, iou), iou_dc)
    return average_precision(s[~drop], tp[~drop], num_gt, config.mode)


def depth_error_report(dets, gts, bin_edges, iou_thresh=0.5):
    """Mean |z_pred - z_gt| per bin of gt depth.

    Pairs are matched by `match_detections` on 2D IoU >= iou_thresh. Returns
    {(lo, hi): mean_abs_error} with empty bins absent.
    """
    scores = np.array([[d.score for d in dets]], dtype=np.float64)   # a stack of one frame
    iou = iou_2d_pairs(_rows([d.box2d.as_array() for d in dets], 4)[:, None],
                       _rows([g.as_box2d().as_array() for g in gts], 4)[None])
    _, _, _, matched = match_detections(scores, iou[None], iou_thresh)
    order = np.argsort(-scores[0], kind="stable")
    pairs = [(dets[i], gts[j]) for i, j in zip(order, matched[0]) if j >= 0]

    edges = list(bin_edges)
    sums = {k: [0.0, 0] for k in range(len(edges) - 1)}
    for det, gt in pairs:
        z = gt.location[2]
        for k in range(len(edges) - 1):
            if edges[k] <= z < edges[k + 1]:
                sums[k][0] += abs(det.box3d.z - z)
                sums[k][1] += 1
                break
    return {(edges[k], edges[k + 1]): s / n for k, (s, n) in sums.items() if n > 0}
