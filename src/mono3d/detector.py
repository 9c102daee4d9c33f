"""End-to-end inference: `detect` turns one scene's raw head outputs into
scored Detections (decode, back-project, NMS, confidence filter, angle
conversion, yaw refinement)."""

from __future__ import annotations

import warnings

import numpy as np

from .align import NonFiniteOffsetsError
from .anchors import decode
from .geometry import Box2D, Box3D, alpha_to_yaw, backproject
from .postproc import Detection, confidence_filter, nms, optimize_rotation
from .tensor import no_grad

__all__ = ["detect"]


def detect(model, scene, score_floor=0.1, nms_iou=0.4, conf_thresh=0.75):
    """Full inference for one scene on one table of candidate rows: decode,
    NMS, filter, then yaw refinement, building a `Detection` per row returned.

    The forward runs under `no_grad`. Each anchor's score and class id are
    the forward's `scores` and `classes` rows, in flat anchor order; detect
    takes no softmax of its own. The candidates are the flat indices whose
    score is at least `score_floor` or non-finite. `decode` runs once per
    finite candidate, on Python floats, because the benchmark's detection
    funnel counts candidates by these calls. The yaw of every detection that
    passes NMS and the confidence filter is refined by `optimize_rotation`.

    A candidate whose score or decoded box is non-finite, or whose decoded 3D
    size is not positive, is dropped, and the scene's drop count is reported
    in one RuntimeWarning. A candidate behind the camera is dropped silently:
    one whose projected depth z_p is not positive, or whose back-projected
    camera-frame depth z (z_p - K[2, 3] for a KITTI P2 camera) is not. A scene
    whose center offsets are non-finite (a non-finite center-head output or
    input pixel) gives no detections, also reported in one RuntimeWarning.
    """
    try:
        with no_grad():
            heads = model.forward(scene.image)
    except NonFiniteOffsetsError:
        warnings.warn("detect: non-finite center offsets; the scene gives no detections",
                      RuntimeWarning, stacklevel=2)
        return []
    score_row, class_row = heads["scores"][0], heads["classes"][0]
    flat = np.flatnonzero((score_row >= score_floor) | ~np.isfinite(score_row))
    d2, d3 = (d.data for d in model.gather_deltas(heads, 0, flat))
    finite = np.isfinite(np.column_stack([score_row[flat], d2, d3])).all(axis=1)
    non_finite = int((~finite).sum())
    flat, d2, d3 = flat[finite], d2[finite], d3[finite]
    # one `decode` call per finite candidate (the benchmark's detection funnel
    # counts candidates by these calls), on Python floats, then one array test
    # and one back-projection for all
    rows = zip(model.grid.rows(flat).tolist(), d2.tolist(), d3.tolist())
    vals = np.full((len(flat), 11), np.inf)   # per candidate: 2D box, then 3D params
    for k, (anchor, t2, t3) in enumerate(rows):
        try:
            b, p = decode(anchor, t2, t3)
        except OverflowError:  # a size delta too large for exp: left an infinite row
            continue
        vals[k] = (*b, *p)
    # an extreme finite delta can still decode to an infinite box or, by exp
    # underflow, to a zero 3D size
    ok = np.isfinite(vals).all(axis=1) & (vals[:, 7:10] > 0.0).all(axis=1)
    non_finite += int((~ok).sum())
    front = ok & (vals[:, 6] > 0.0)
    vals, flat = vals[front], flat[front]
    centers = backproject(scene.cam, vals[:, 4:7])
    front = centers[:, 2] > 0.0   # a translation column can move z_p > 0 to z <= 0
    # the table: the candidates in front of the camera
    vals, flat, centers = vals[front], flat[front], centers[front]
    scores, classes = score_row[flat], class_row[flat]
    if non_finite:
        warnings.warn(f"detect: dropped {non_finite} candidate(s) with a non-finite score "
                      "or box, or a non-positive 3D size", RuntimeWarning, stacklevel=2)

    keep = nms(vals[:, :4], scores, classes, iou_thresh=nms_iou)
    keep = keep[confidence_filter(scores[keep], thresh=conf_thresh)]
    dets = []
    for k in keep.tolist():
        (x, y, z), (*box2d, _, _, _, w, h, l, alpha) = centers[k].tolist(), vals[k].tolist()
        yaw, _ = optimize_rotation((x, y, z, w, h, l, alpha_to_yaw(alpha, x, z)), box2d,
                                   scene.cam)
        dets.append(Detection(int(classes[k]), float(scores[k]), Box2D(*box2d),
                              Box3D(x, y, z, w, h, l, yaw, alpha=alpha), alpha))
    return dets
