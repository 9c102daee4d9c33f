"""Detection assembly: greedy NMS, confidence filtering, yaw post-refinement."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D, Box3D, iou_2d_pairs, project_box, wrap_angle

__all__ = ["Detection", "nms", "confidence_filter", "optimize_rotation"]

YAW_STEP = 0.3         # first yaw step of the rotation search (rad)
YAW_STEP_MIN = 1e-3    # the search stops once the halved step falls below this
YAW_MAX_ITER = 64      # ... or after this many iterations


@dataclass
class Detection:
    class_id: int
    score: float
    box2d: Box2D
    box3d: Box3D
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def nms(dets, iou_thresh=0.4):
    """Greedy descending-score suppression on 2D IoU, per class.

    Ties in score keep the lower original index first; classes never suppress
    each other. One (n, n) IoU matrix, masked to same-class pairs, serves the
    greedy pass.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    boxes = np.array([(d.box2d.x1, d.box2d.y1, d.box2d.x2, d.box2d.y2) for d in dets],
                     dtype=np.float64).reshape(-1, 4)
    cls = np.array([d.class_id for d in dets])
    overlaps = ((iou_2d_pairs(boxes[:, None], boxes[None]) > iou_thresh)
                & (cls[:, None] == cls[None]))
    suppressed = np.zeros(len(dets), dtype=bool)
    kept = []
    for i in order:
        if not suppressed[i]:
            kept.append(dets[i])
            suppressed |= overlaps[i]
    return kept


def confidence_filter(dets, thresh=0.75):
    """Keep detections scoring at or above the threshold (boundary kept)."""
    return [d for d in dets if d.score >= thresh]


def optimize_rotation(det, cam):
    """Refine yaw so the projected 3D-box envelope matches the 2D box.

    Coordinate search: try yaw +- step, accept any improvement of the L1
    corner distance, halve the step when neither direction improves. The
    objective never increases. Boxes behind the camera come back unchanged
    (flagged via the second return value); a candidate yaw that turns a
    corner behind the camera counts as not improving.
    """
    box = det.box3d
    target = det.box2d.as_array()
    fixed = (box.x, box.y, box.z, box.w, box.h, box.l)

    def objective(yaw):
        try:
            env = project_box((*fixed, yaw), cam)
        except ValueError:  # a corner behind the camera
            return math.inf
        return float(np.abs(env.as_array() - target).sum())

    best = objective(box.yaw)
    if best == math.inf:
        return det, False

    yaw = box.yaw
    step = YAW_STEP
    for _ in range(YAW_MAX_ITER):
        if step < YAW_STEP_MIN:
            break
        improved = False
        for cand in (yaw + step, yaw - step):
            val = objective(cand)
            if val < best:
                yaw, best = cand, val
                improved = True
                break
        if not improved:
            step /= 2.0
    refined = dataclasses.replace(box, yaw=wrap_angle(yaw))
    return dataclasses.replace(det, box3d=refined), True
