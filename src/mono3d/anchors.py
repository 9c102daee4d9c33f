"""Anchor grid, per-template 3D statistics, and the box <-> delta codec.

Each anchor pairs a 2D template (w, h) with 3D statistics (z, w, h, l, alpha)
fitted as the mean over training objects that the template overlaps. The
codec maps between network regression outputs (deltas) and decoded 2D corner
rows plus projected 3D parameters, and is an exact algebraic inverse pair.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _rows, iou_2d_pairs, wrap_angle

__all__ = [
    "AnchorGrid",
    "default_sizes",
    "generate_anchor_grid",
    "fit_anchor_3d_stats",
    "encode",
    "decode",
]

RATIOS = (0.5, 1.0, 1.5)  # template aspect ratios h / w
# the default size ladder: SIZE_COUNT sizes from SIZE_BASE to SIZE_BASE * SIZE_TOP_FACTOR
SIZE_COUNT = 12
SIZE_BASE = 24.0
SIZE_TOP_FACTOR = 12.0
STATS_IOU = 0.5  # 2D IoU at which an object counts toward a template's 3D stats


def default_sizes():
    """Exponential size ladder SIZE_BASE * SIZE_TOP_FACTOR^(i/(SIZE_COUNT-1)), 24 .. 288."""
    i = np.arange(SIZE_COUNT)
    return SIZE_BASE * SIZE_TOP_FACTOR ** (i / (SIZE_COUNT - 1))


class AnchorGrid:
    """All anchors of a feature grid, stored as flat arrays.

    Flat index = (row * W + col) * A + template; templates iterate sizes
    (slowest) then aspect ratios.
    """

    def __init__(self, feature_hw, stride, templates):
        self.feature_hw = tuple(feature_hw)
        self.stride = int(stride)
        self.templates = _rows("templates", templates, 2)  # (A, 2) as (w, h)
        self.stats3d = np.zeros((len(self.templates), 5))  # filled by fit_anchor_3d_stats
        H, W = self.feature_hw
        ys, xs = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
        self.centers = np.stack(
            [xs * stride + stride / 2.0, ys * stride + stride / 2.0], axis=-1
        ).reshape(-1, 2)  # (H*W, 2) pixel (x, y)

    @property
    def per_position(self):
        return len(self.templates)

    def __len__(self):
        return self.centers.shape[0] * self.per_position

    def rows(self, flat_indices):
        """(n, 9) rows [x, y, w2d, h2d, z, w, h, l, alpha] of the anchors at
        flat indices: pixel center, 2D template, the template's 3D stats."""
        pos, t = np.divmod(flat_indices, self.per_position)
        return np.concatenate([self.centers[pos], self.templates[t], self.stats3d[t]], axis=1)

    def boxes2d(self):
        """(len, 4) corner boxes for every anchor."""
        a = self.rows(np.arange(len(self)))
        return np.concatenate([a[:, :2] - a[:, 2:4] / 2.0, a[:, :2] + a[:, 2:4] / 2.0], axis=1)


def generate_anchor_grid(feature_hw, stride=8, sizes=None):
    """Size x RATIOS template bank tiled over the grid, centers at cell centers.

    Ratio r maps a scale s to (w, h) = (s / sqrt(r), s * sqrt(r)), which keeps
    the area s^2 independent of r. `sizes`, read flat, must be finite.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    sizes = default_sizes() if sizes is None else _rows("sizes", np.reshape(sizes, (-1, 1)), 1)[:, 0]
    templates = []
    for s in sizes:
        for r in RATIOS:
            templates.append((s / math.sqrt(r), s * math.sqrt(r)))
    return AnchorGrid(feature_hw, stride, templates)


def fit_anchor_3d_stats(grid, boxes2d, params):
    """Fill each template's 3D stats with the mean over overlapping objects.

    An object contributes to a template when any anchor of that template has
    2D IoU >= STATS_IOU with it. Templates that match nothing inherit the
    global mean so every anchor stays decodable.
    boxes2d: (n, 4) [x1, y1, x2, y2]; params: (n, 5) (z, w, h, l, alpha),
    both finite.
    """
    params, boxes2d = _rows("params", params, 5), _rows("boxes2d", boxes2d, 4)
    if len(params) == 0:
        raise ValueError("cannot fit anchor statistics from an empty label set")
    if len(boxes2d) != len(params):
        raise ValueError(f"need one [x1, y1, x2, y2] box per parameter row, got boxes2d of "
                         f"shape {boxes2d.shape} for {len(params)} rows")

    A = grid.per_position
    iou = iou_2d_pairs(grid.boxes2d().reshape(-1, A, 1, 4), boxes2d)  # (positions, A, objects)
    matched = (iou >= STATS_IOU).any(axis=0)
    stats = np.tile(params.mean(axis=0), (A, 1))
    for t in np.flatnonzero(matched.any(axis=1)):
        stats[t] = params[matched[t]].mean(axis=0)
    grid.stats3d = stats
    return grid


def decode(anchor, d2, d3):
    """One (9,) anchor row (`AnchorGrid.rows`) and its (4,) 2D and (7,) 3D
    deltas -> ((x1, y1, x2, y2) 2D corners, projected 3D params
    (xp, yp, zp, w, h, l, angle)), the rows `encode` takes.

    2D/3D centers shift by delta * template size; 2D/3D dimensions scale by
    exp(delta); projected depth and angle are additive, angle wrapped to
    (-pi, pi]. A row of another length or rank, or a ragged one, is a
    ValueError naming it; an overflowing exp is math's OverflowError.
    """
    try:   # free on the pass path: rows are checked only once it fails
        x, y, w, h, z0, w0, h0, l0, a0 = anchor
        tx, ty, tw, th = d2
        tx3, ty3, tz3, tw3, th3, tl3, ta3 = d3
        cx, cy, bw, bh = tx * w + x, ty * h + y, math.exp(tw) * w, math.exp(th) * h
        box2d = (cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0)
        params3d = (
            tx3 * w + x,
            ty3 * h + y,
            tz3 + z0,
            math.exp(tw3) * w0,
            math.exp(th3) * h0,
            math.exp(tl3) * l0,
            wrap_angle(ta3 + a0),
        )
    except (TypeError, ValueError):   # an OverflowError from exp passes as it is
        for name, row, n in (("anchor", anchor, 9), ("d2", d2, 4), ("d3", d3, 7)):
            try:
                shape = np.shape(row)
            except ValueError:   # numpy finds no shape in a ragged row
                shape = None
            if shape != (n,):
                got = "a ragged row" if shape is None else f"shape {shape}"
                raise ValueError(f"{name} must be a ({n},) row, got {got}") from None
        raise
    return box2d, params3d


def encode(anchors, boxes2d, params3d):
    """Exact inverse of `decode`, row by row: the (n, 4) 2D and (n, 7) 3D
    deltas of (n, 9) anchor rows (`AnchorGrid.rows`) against (n, 4)
    [x1, y1, x2, y2] ground-truth boxes and (n, 7) projected 3D parameters
    (xp, yp, zp, w, h, l, angle). All rows must be finite, and ground-truth
    sizes positive."""
    a, box = _rows("anchors", anchors, 9), _rows("boxes2d", boxes2d, 4)
    p3 = _rows("params3d", params3d, 7)
    size2d = box[:, 2:] - box[:, :2]
    if np.any(size2d <= 0.0):
        raise ValueError("ground-truth 2D box must have positive size")
    if np.any(p3[:, 3:6] <= 0.0):
        raise ValueError("ground-truth 3D dimensions must be positive")
    xy, wh = a[:, :2], a[:, 2:4]
    d2 = np.concatenate([((box[:, :2] + box[:, 2:]) / 2.0 - xy) / wh,
                         np.log(size2d / wh)], axis=1)
    d3 = np.concatenate([(p3[:, :2] - xy) / wh,
                         p3[:, 2:3] - a[:, 4:5],
                         np.log(p3[:, 3:6] / a[:, 5:8]),
                         wrap_angle(p3[:, 6:] - a[:, 8:])], axis=1)
    return d2, d3
