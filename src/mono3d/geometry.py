"""Camera projection, 3D box synthesis, and 2D / BEV / 3D IoU.

Camera frame follows the KITTI convention: x right, y down, z forward, with
a 3x4 projection matrix in pixel units. 3D boxes are given at the bottom-face
center and rotate about the camera y axis only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CameraIntrinsics",
    "Box2D",
    "Box3D",
    "project",
    "backproject",
    "alpha_to_yaw",
    "yaw_to_alpha",
    "wrap_angle",
    "box3d_corners",
    "project_box",
    "iou_2d",
    "iou_bev",
    "iou_3d",
    "iou_2d_pairs",
    "iou_bev_pairs",
    "iou_3d_pairs",
    "clip_polygon",
]

_AREA_EPS = 1e-12


def _rows(name, values, width):
    """`values` as float64 (n, width) rows, an empty sequence as no rows. Any
    other shape, or a row that is not finite, is a ValueError naming `name`
    with the shape or the first such row: the one check of the rows every
    public function takes."""
    rows = np.asarray(values, dtype=np.float64)
    rows = rows.reshape(0, width) if rows.shape == (0,) else rows
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be (n, {width}) rows, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        i = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise ValueError(f"{name} must be finite: row {i} is {rows[i].tolist()}")
    return rows


@dataclass
class CameraIntrinsics:
    """3x4 pixel-unit projection matrix (KITTI P2 layout): finite, with
    positive focal entries K[0, 0] and K[1, 1]."""

    K: np.ndarray

    def __post_init__(self):
        if np.shape(self.K) != (3, 4):
            raise ValueError(f"K must be a 3x4 projection matrix, got shape {np.shape(self.K)}")
        self.K = _rows("K", self.K, 4)
        if not (self.K[0, 0] > 0 and self.K[1, 1] > 0):
            raise ValueError("focal entries must be positive")

    @staticmethod
    def simple(f, cx, cy):
        return CameraIntrinsics(np.array([
            [f, 0.0, cx, 0.0],
            [0.0, f, cy, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]))


@dataclass
class Box2D:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):   # NaN fails too
            raise ValueError(f"degenerate 2D box {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def w(self):
        return self.x2 - self.x1

    @property
    def h(self):
        return self.y2 - self.y1

    def as_array(self):
        return np.array([self.x1, self.y1, self.x2, self.y2])


@dataclass
class Box3D:
    """Bottom-face center (x, y, z), dims (w, h, l), yaw about camera y, and
    the observation angle alpha.

    Sizes must be positive and the other fields finite; like
    `parse_label_line`, it tests one sum first and goes field by field only
    when the sum is not finite, so a huge finite box still passes."""

    x: float
    y: float
    z: float
    w: float
    h: float
    l: float
    yaw: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0 and self.l > 0):   # NaN fails too
            raise ValueError(f"non-positive 3D dimensions {(self.w, self.h, self.l)}")
        # a non-finite sum flags a non-finite field (or an overflow, which the
        # field-by-field pass accepts); that pass names the failing field
        if not math.isfinite(self.x + self.y + self.z + self.yaw + self.alpha):
            for name in ("x", "y", "z", "yaw", "alpha"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"3D box {name} must be finite, got {getattr(self, name)}")

    def as_array(self):
        """The (7,) row [x, y, z, w, h, l, yaw] the pair IoU kernels take."""
        return np.array([self.x, self.y, self.z, self.w, self.h, self.l, self.yaw])


def wrap_angle(a):
    """Wrap into (-pi, pi], elementwise on an array; a scalar gives a float.
    A NaN or +-inf angle wraps to NaN, without a warning."""
    if not isinstance(a, np.ndarray):
        a = (float(a) + math.pi) % (2.0 * math.pi)
    else:
        with np.errstate(invalid="ignore"):   # an infinite angle has no remainder
            a = (a + math.pi) % (2.0 * math.pi)
    return a + 2.0 * math.pi * (a <= 0.0) - math.pi


def project(cam, points):
    """Pinhole projection of (n, 3) camera-frame rows to (n, 3) pixel rows
    (x_p, y_p, z_p), all in numpy: one product `points @ K[:, :3].T + K[:, 3]`,
    then one divide of its first two columns by the third. Rows that are not
    finite, or a point whose projected depth is not positive, are a
    ValueError. `project_box` makes the same product and does the rest on
    Python floats."""
    h = _rows("points", points, 3) @ cam.K[:, :3].T + cam.K[:, 3]
    behind = h[:, 2] <= 0.0
    if behind.any():
        raise ValueError(f"point behind camera: projected depth {h[behind, 2][0]}")
    h[:, :2] /= h[:, 2:]
    return h


def backproject(cam, pixels):
    """Exact inverse of `project`, including the 3x4 translation column:
    (n, 3) pixel rows (x_p, y_p, z_p) to the (n, 3) camera-frame points, from
    one solve over n right-hand sides. Rows that are not finite, or a
    projected depth that is not positive, are a ValueError."""
    p = _rows("pixels", pixels, 3)
    bad = p[:, 2] <= 0.0
    if bad.any():
        raise ValueError(f"non-positive projected depth {p[bad, 2][0]}")
    rhs = np.column_stack([p[:, :2] * p[:, 2:], p[:, 2]]) - cam.K[:, 3]
    return np.linalg.solve(cam.K[:, :3], rhs.T).T


def alpha_to_yaw(alpha, x, z):
    """Observation angle to global yaw: A = alpha + atan2(x, z), wrapped. A
    depth z that is not positive (NaN included) is a ValueError."""
    if not z > 0.0:
        raise ValueError(f"need z > 0 for the viewing-ray angle, got {z}")
    return wrap_angle(alpha + math.atan2(x, z))


def yaw_to_alpha(yaw, x, z):
    """Global yaw to observation angle: alpha = yaw - atan2(x, z), wrapped,
    the inverse of `alpha_to_yaw`. A depth z that is not positive (NaN
    included) is a ValueError."""
    if not z > 0.0:
        raise ValueError(f"need z > 0 for the viewing-ray angle, got {z}")
    return wrap_angle(yaw - math.atan2(x, z))


# A box row whose entries sum in magnitude to less than this is small: each
# corner coordinate is a sum of at most three terms no larger than the row's
# entries (|cos|, |sin| <= 1), and its projection by a camera with entries
# below 1e150 stays far below float64's 1.8e308, so neither product can
# overflow, and only larger rows pay for `np.errstate`. (A camera entry
# nearer 1.8e308 is not tested for; no pixel-unit camera comes close.)
_SMALL = 1e150


def _on_row(f, box, *args):
    """`f(row, *args)` on the 7 entries of a Box3D or a (7,) row as a list, run
    with numpy's overflow and invalid-value warnings off unless the row is
    small. A row that is not 7 finite numbers is `_rows`'s ValueError."""
    box = box.as_array() if isinstance(box, Box3D) else box
    row = box.tolist() if isinstance(box, np.ndarray) else box
    if len(row) == 7 and sum(map(abs, row)) < _SMALL:   # NaN and +-inf fail too
        return f(row, *args)
    row = _rows("box", [box], 7)[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        return f(row, *args)


def _corners(row):
    """The (8, 3) corners of a [x, y, z, w, h, l, yaw] row: the local corners
    of (l / 2, h, w / 2), the bottom face (y = 0) first and then the top face
    (y = -h) in the same order, rotated and moved by one numpy product and
    sum."""
    x, y, z, w, h, l, yaw = row
    c, s = math.cos(yaw), math.sin(yaw)
    a, b = l / 2.0, w / 2.0
    local = np.array([a, 0.0, b, a, 0.0, -b, -a, 0.0, -b, -a, 0.0, b,
                      a, -h, b, a, -h, -b, -a, -h, -b, -a, -h, b]).reshape(8, 3)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return local @ rot.T + np.array([x, y, z])


def box3d_corners(box):
    """8 corners, (8, 3), of a Box3D or a (7,) [x, y, z, w, h, l, yaw] row.
    Bottom face at y, top face at y - h; yaw about y. A row that is not 7
    finite numbers is a ValueError.

    The numpy work is one product and one sum, `local @ rot.T + xyz`; the
    row is read once as Python floats (a Box3D through `as_array().tolist()`)
    and the local corners and rotation are built from them. A row whose
    entries sum in magnitude to 1e150 or more runs the same arithmetic with
    numpy's overflow warnings off, so an overflowed corner is inf or NaN
    without a RuntimeWarning."""
    return _on_row(_corners, box)


def _envelope(row, cam):
    """`project_box` on a row of Python floats."""
    pts = _corners(row)
    for _, _, depth in pts.tolist():
        if depth <= 0.0:   # a NaN depth (an overflowed corner) is not behind
            raise ValueError("box extends behind the camera")
    h = (pts @ cam.K[:, :3].T + cam.K[:, 3]).tolist()
    for _, _, depth in h:
        if depth <= 0.0:
            raise ValueError(f"point behind camera: projected depth {depth}")
    us = [hx / hz for hx, _, hz in h]
    vs = [hy / hz for _, hy, hz in h]
    if not math.isfinite(sum(us) + sum(vs)):   # a NaN or inf, or a sum past 1.8e308
        uv = np.array([us, vs])
        env = (*uv.min(axis=1).tolist(), *uv.max(axis=1).tolist())
        if not all(map(math.isfinite, env)):
            raise ValueError(f"projected envelope must be finite, got {env}")
    return Box2D(min(us), min(vs), max(us), max(vs))


def project_box(box, cam):
    """Axis-aligned image envelope of the 8 projected corners of a Box3D or a
    (7,) row, as a Box2D of Python floats.

    The numpy work is the two products, `box3d_corners`' `local @ rot.T +
    xyz` and `project`'s `pts @ K[:, :3].T + K[:, 3]`, which set the bits.
    The rest is on Python floats from their `tolist()` rows: the two depth
    tests, the divide and the envelope's min and max, the bits of numpy's
    divide and column-wise reductions (these can differ only on a tie of
    +0.0 and -0.0, and a -0.0 needs a camera with a -0.0 translation entry
    and corner products that underflow). A row that is not 7 finite numbers
    (`box3d_corners`) is a ValueError, and so is a corner behind the camera:
    "box extends behind the camera" for a corner with z <= 0 first, then
    `project`'s "point behind camera" for a projected depth <= 0 that a
    translation column makes. A corner whose coordinates or projection
    overflowed (NaN depths are skipped by both tests) leaves an envelope
    that is not finite, which is a ValueError too; a row whose entries sum
    in magnitude to 1e150 or more runs with numpy's overflow warnings off,
    so none escapes."""
    return _on_row(_envelope, box, cam)


# -- IoU ----------------------------------------------------------------------


def iou_2d(a, b):
    """IoU of two Box2D: the scalar reference that the tests and the
    benchmark's `detect` check hold `iou_2d_pairs` and `nms` against."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0.0 else 0.0


# Pairs clipped at once. A rectangle clipped by a rectangle keeps at most 8
# vertices (more only where rounding splits a near-collinear edge; the
# compaction keeps those too), so a block holds about (block, 16, 2)
# candidate vertices per clip edge. On the eval benchmark's inputs 256 ran as
# fast as 1024 and peaked about 1 MB lower.
_PAIR_BLOCK = 256


def _footprints(boxes):
    """(P, 4, 2) ground-plane (x, z) corners of (P, 7) box rows, counter-clockwise
    as the clip wants: (-l/2, +w/2), (-l/2, -w/2), (+l/2, -w/2), (+l/2, +w/2)
    about the center, turned by yaw (a rotation keeps the order)."""
    x, z, w, l, yaw = boxes[:, 0:1], boxes[:, 2:3], boxes[:, 3:4], boxes[:, 5:6], boxes[:, 6:7]
    c, s = np.cos(yaw), np.sin(yaw)
    lx = np.array([-1, -1, 1, 1]) * (l / 2.0)
    lz = np.array([1, -1, -1, 1]) * (w / 2.0)
    return np.stack([x + lx * c + lz * s, z - lx * s + lz * c], axis=2)


@np.errstate(divide="ignore", invalid="ignore")
def _clip(subject, clip):
    """Sutherland-Hodgman on every pair at once: the (P, m, 2) subjects, each
    clipped by its pair's convex counter-clockwise polygon of the (P, c, 2)
    clips. Returns (poly, n): the clipped polygon of pair p is
    `poly[p, :n[p]]`, the rows after it padding.

    Per clip edge each vertex emits (crossing with the edge, vertex) under
    the same masks, and a stable sort of the emit mask compacts the emitted
    ones to the front. A crossing point is placed by the signed distances of
    the edge's two ends to the clip line, which differ in sign wherever a
    crossing is emitted: a subject edge (nearly) collinear with a clip edge
    cannot divide by zero. Padded slots may; they are masked, and numpy's
    warnings are off inside.
    """
    P, m, _ = subject.shape
    poly, n = subject, np.full(P, m)
    for e in range(clip.shape[1]):
        a, b = clip[:, e, None, :], clip[:, (e + 1) % clip.shape[1], None, :]
        k = np.arange(poly.shape[1])
        valid = k < n[:, None]
        prev_idx = np.maximum(np.where(k == 0, n[:, None] - 1, k - 1), 0)
        px, py = (np.take_along_axis(poly[..., i], prev_idx, axis=1) for i in (0, 1))
        cx, cy = poly[..., 0], poly[..., 1]
        s_cur = ((b[..., 0] - a[..., 0]) * (cy - a[..., 1])
                 - (b[..., 1] - a[..., 1]) * (cx - a[..., 0]))
        s_prev = np.take_along_axis(s_cur, prev_idx, axis=1)
        cur_in, prev_in = s_cur >= 0.0, s_prev >= 0.0
        t = s_prev / (s_prev - s_cur)
        cand = np.stack([np.stack([px + t * (cx - px), py + t * (cy - py)], axis=2), poly], axis=2)
        emit = np.stack([valid & (cur_in != prev_in), valid & cur_in], axis=2).reshape(P, -1)
        n = emit.sum(axis=1)
        keep = np.argsort(~emit, axis=1, kind="stable")[:, :max(int(n.max()), 1)]
        poly = np.take_along_axis(cand.reshape(P, -1, 2), keep[..., None], axis=1)
    return poly, n


def _clip_area(subject, clip):
    """Shoelace area of each `_clip` polygon: 0 below three vertices."""
    poly, n = _clip(subject, clip)
    k = np.arange(poly.shape[1])
    valid = k < n[:, None]
    nxt = np.where(k + 1 < n[:, None], k + 1, 0)
    x, y = np.where(valid, poly[..., 0], 0.0), np.where(valid, poly[..., 1], 0.0)
    x_next, y_next = (np.take_along_axis(v, nxt, axis=1) for v in (x, y))
    # summed column by column, so that a pair's area does not depend on the
    # padded width, which is set by the other pairs of its block
    s1, s2 = np.zeros(len(poly)), np.zeros(len(poly))
    for k in range(poly.shape[1]):
        s1 += x[:, k] * y_next[:, k]
        s2 += x_next[:, k] * y[:, k]
    return np.where(n >= 3, 0.5 * np.abs(s1 - s2), 0.0)


def clip_polygon(subject, clip):
    """`_clip` on one pair: the (x, y) float tuples of polygon `subject`
    clipped by the convex counter-clockwise polygon `clip`, both finite
    (m, 2) vertex rows."""
    poly, n = _clip(_rows("subject", subject, 2)[None], _rows("clip", clip, 2)[None])
    return list(map(tuple, poly[0, :n[0]].tolist()))


def _ratio(inter, union):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def _bev_intersection(a, b):
    """Footprint intersection areas of (P, 7) box-row pairs, clipped in blocks.
    Row arrays that differ in shape do not pair up: a ValueError.

    Pairs whose centre distance exceeds the sum of the half-diagonals cannot
    overlap; they skip the clip with area 0.
    """
    if a.shape != b.shape:
        raise ValueError(f"pair arrays differ in shape: {a.shape} vs {b.shape}")
    inter = np.zeros(len(a))
    reach = 0.5 * (np.hypot(a[:, 3], a[:, 5]) + np.hypot(b[:, 3], b[:, 5]))
    near = np.flatnonzero(~(np.hypot(a[:, 0] - b[:, 0], a[:, 2] - b[:, 2]) > reach))
    for s in range(0, len(near), _PAIR_BLOCK):
        idx = near[s:s + _PAIR_BLOCK]
        inter[idx] = _clip_area(_footprints(a[idx]), _footprints(b[idx]))
    inter[inter < _AREA_EPS] = 0.0
    return inter


def iou_2d_pairs(a, b):
    """`iou_2d` of [x1, y1, x2, y2] rows on the last axis, broadcast against
    each other: (P, 4) pairs give (P,), (N, 1, 4) against (1, G, 4) the
    (N, G) matrix. An operand that is not rows of 4 on its last axis, or a
    row that is not finite, is a ValueError; the check reads the operands,
    not their broadcast."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    for name, v in (("a", a), ("b", b)):
        _rows(name, v.reshape(-1, 4) if v.shape[-1:] == (4,) else v, 4)
    ix = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return _ratio(inter, area_a + area_b - inter)


def _footprint_ious(a, b):
    """(bev, 3d) IoUs of (P, 7) [x, y, z, w, h, l, yaw] row pairs, each (P,),
    from one check of the rows and one footprint clip: the 3D intersection is
    the footprint intersection times the vertical overlap. `iou_bev_pairs`
    and `iou_3d_pairs` read one each; `evaluate_class` keeps both."""
    a, b = _rows("a", a, 7), _rows("b", b, 7)
    inter = _bev_intersection(a, b)
    bev = _ratio(inter, a[:, 3] * a[:, 5] + b[:, 3] * b[:, 5] - inter)
    # times the vertical overlap: bottom at y, top at y - h (camera y points down)
    inter *= np.maximum(0.0, np.minimum(a[:, 1], b[:, 1])
                        - np.maximum(a[:, 1] - a[:, 4], b[:, 1] - b[:, 4]))
    return bev, _ratio(inter, a[:, 3] * a[:, 4] * a[:, 5] + b[:, 3] * b[:, 4] * b[:, 5] - inter)


def iou_bev_pairs(a, b):
    """Rotated-footprint IoU of (P, 7) [x, y, z, w, h, l, yaw] row pairs, (P,)."""
    return _footprint_ious(a, b)[0]


def iou_3d_pairs(a, b):
    """BEV intersection x vertical overlap over union volume of (P, 7) row pairs."""
    return _footprint_ious(a, b)[1]


def iou_bev(a, b):
    """Rotated-footprint IoU on the ground plane of two Box3D."""
    return float(iou_bev_pairs([a.as_array()], [b.as_array()])[0])


def iou_3d(a, b):
    """3D IoU of two Box3D."""
    return float(iou_3d_pairs([a.as_array()], [b.as_array()])[0])
