"""Detection assembly: greedy NMS, confidence filtering, yaw post-refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D, Box3D, _rows, iou_2d_pairs, project_box, wrap_angle

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


def nms(boxes, scores, classes, iou_thresh):
    """Greedy descending-score suppression on 2D IoU, per class: the kept
    indices of (n, 4) [x1, y1, x2, y2] boxes with (n,) scores and class ids,
    best first. Score ties keep the lower index; an overlap equal to the
    threshold is kept. One (n, n) IoU matrix, masked to same-class pairs,
    serves the greedy pass. Box rows that are not finite, or scores and
    classes that are not one per box, are a ValueError.
    """
    boxes = _rows("boxes", boxes, 4)
    for name, v in (("scores", scores), ("classes", classes)):
        if np.shape(v) != (len(boxes),):
            raise ValueError(f"{name} must be ({len(boxes)},), one per box, got {np.shape(v)}")
    overlaps = ((iou_2d_pairs(boxes[:, None], boxes[None]) > iou_thresh)
                & (classes[:, None] == classes[None]))
    suppressed = np.zeros(len(boxes), dtype=bool)
    kept = []
    for i in np.argsort(-scores, kind="stable"):
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return np.array(kept, dtype=np.intp)


def confidence_filter(scores, thresh):
    """Indices of the scores at or above the threshold (boundary kept).

    Indices rather than a mask, so that the result's length is the number
    that pass, which the benchmark's detection funnel reads as `after_conf`.
    Like `nms`, it has no default threshold: `detect`'s are the only ones.
    """
    return np.flatnonzero(scores >= thresh)


def optimize_rotation(box, target, cam):
    """Refine the yaw of a (7,) [x, y, z, w, h, l, yaw] row so that its projected
    envelope matches the (4,) [x1, y1, x2, y2] 2D box `target`: (yaw, refined).

    Coordinate search: try yaw +- step, accept any improvement of the L1
    corner distance, halve the step when neither direction improves. The
    objective never increases. A box behind the camera keeps its yaw and
    comes back with refined False; a candidate yaw that turns a corner
    behind the camera counts as not improving. A box row or target that is
    not finite, or a 3D size that is not positive, raises a ValueError.

    Each evaluation is one `project_box` call, scored by the L1 distance of
    its envelope to the target summed left to right: the bits of numpy's sum
    over the 4 differences. The row and the target become Python floats
    once, after their check. The steps start at YAW_STEP and the search
    stops below YAW_STEP_MIN or after YAW_MAX_ITER iterations. This
    post-optimisation comes from M3D-RPN (Brazil & Liu 2019,
    arXiv:1907.06038); the M3DSSD abstract does not name it.
    """
    x, y, z, w, h, l, yaw = _rows("box", [box], 7)[0].tolist()
    if min(w, h, l) <= 0.0:
        raise ValueError(f"box 3D size (w, h, l) must be positive, got {(w, h, l)}")
    t1, t2, t3, t4 = _rows("target", [target], 4)[0].tolist()

    def objective(yaw):
        try:
            env = project_box((x, y, z, w, h, l, yaw), cam)
        except ValueError:  # a corner behind the camera
            return math.inf
        return abs(env.x1 - t1) + abs(env.y1 - t2) + abs(env.x2 - t3) + abs(env.y2 - t4)

    best = objective(yaw)
    if best == math.inf:
        return yaw, False

    step = YAW_STEP
    for _ in range(YAW_MAX_ITER):
        if step < YAW_STEP_MIN:
            break
        for cand in (yaw + step, yaw - step):
            val = objective(cand)
            if val < best:
                yaw, best = cand, val
                break
        else:  # neither direction improves
            step /= 2.0
    return wrap_angle(yaw), True
