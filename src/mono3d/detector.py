"""End-to-end inference: `detect` turns one scene's raw head outputs into
scored Detections (decode, back-project, angle conversion, NMS, confidence
filter, yaw refinement)."""

from __future__ import annotations

import warnings

import numpy as np

from .align import NonFiniteOffsetsError
from .anchors import decode
from .geometry import Box3D, alpha_to_yaw, backproject
from .ops import softmax_lastdim
from .postproc import Detection, confidence_filter, nms, optimize_rotation
from .tensor import Tensor, no_grad

__all__ = ["detect"]


def detect(model, scene, score_floor=0.1, nms_iou=0.4, conf_thresh=0.75):
    """Full inference for one scene: decode, NMS, filter, then yaw refinement
    of every kept detection.

    A candidate whose score or decoded box is non-finite, or whose decoded 3D
    size is not positive, is dropped, and the scene's drop count is reported
    in one RuntimeWarning. A scene whose
    center offsets are non-finite (a non-finite center-head output or input
    pixel) gives no detections, also reported in one RuntimeWarning.
    """
    try:
        with no_grad():
            heads = model.forward(scene.image)
    except NonFiniteOffsetsError:
        warnings.warn("detect: non-finite center offsets; the scene gives no detections",
                      RuntimeWarning, stacklevel=2)
        return []
    H, W = model.feature_hw
    A = model.grid.per_position
    ncls = model.num_classes

    logits = heads["cls"].data[0].reshape(A, ncls, H, W).transpose(0, 2, 3, 1)
    fg = softmax_lastdim(Tensor(logits)).data[..., 1:]
    score_map = fg.max(axis=-1)          # (A, H, W)
    class_map = fg.argmax(axis=-1) + 1

    t, hh, ww = np.nonzero((score_map >= score_floor) | ~np.isfinite(score_map))
    flat = (hh * W + ww) * A + t
    d2, d3 = (d.data for d in model.gather_deltas(heads, 0, flat))
    scores = score_map[t, hh, ww]
    finite = np.isfinite(scores) & np.isfinite(d2).all(axis=1) & np.isfinite(d3).all(axis=1)
    non_finite = int((~finite).sum())
    rows = model.grid.rows(flat)
    # one `decode` call per finite candidate (the benchmark's detection funnel
    # counts candidates by these calls), then one array test and one
    # back-projection for all
    decoded = []  # (candidate, box2d, projected 3D params)
    with np.errstate(over="ignore", invalid="ignore"):  # counted below instead
        for i in np.flatnonzero(finite):
            try:
                decoded.append((i, *decode(rows[i], d2[i], d3[i])))
            except OverflowError:  # a size delta too large for exp: an infinite box
                non_finite += 1
    vals = np.array([(b.x1, b.y1, b.x2, b.y2, *p) for _, b, p in decoded],
                    dtype=np.float64).reshape(-1, 11)
    # an extreme finite delta can still decode to an infinite box or, by exp
    # underflow, to a zero 3D size
    ok = np.isfinite(vals).all(axis=1) & (vals[:, 7:10] > 0.0).all(axis=1)
    non_finite += int((~ok).sum())
    front = np.flatnonzero(ok & (vals[:, 6] > 0.0))
    centers = backproject(scene.cam, vals[front, 4:7])
    dets = []
    for k, (x, y, z) in zip(front.tolist(), centers.tolist()):
        i, box2d, (_, _, _, w3, h3, l3, alpha) = decoded[k]
        box3d = Box3D(x, y, z, w3, h3, l3, alpha_to_yaw(alpha, x, z), alpha=alpha)
        dets.append(Detection(int(class_map[t[i], hh[i], ww[i]]), float(scores[i]),
                              box2d, box3d, alpha))
    if non_finite:
        warnings.warn(f"detect: dropped {non_finite} candidate(s) with a non-finite score "
                      "or box, or a non-positive 3D size", RuntimeWarning, stacklevel=2)

    dets = nms(dets, iou_thresh=nms_iou)
    dets = confidence_filter(dets, thresh=conf_thresh)
    return [optimize_rotation(d, scene.cam)[0] for d in dets]
