"""Reference implementations that only the tests use as oracles."""

import math
import tracemalloc

import numpy as np

from mono3d.align import align_conv, shape_align_offsets
from mono3d.attention import AnabParams, PyramidSpec, anab_forward
from mono3d.geometry import Box2D, Box3D, project, wrap_angle
from mono3d.ops import ConvSpec, softmax_lastdim
from mono3d.postproc import YAW_MAX_ITER, YAW_STEP, YAW_STEP_MIN
from mono3d.tensor import Tensor


def reference_nonlocal(x):
    """Standard non-local block with identity embeddings: the O(N^2 C) oracle.

    y = softmax(M M^T) M + x, with M the (N, C) reshaped feature map.
    """
    B, C, H, W = x.shape
    m = x.reshape(B, C, H * W).transpose(0, 2, 1)
    o = softmax_lastdim(m @ m.transpose(0, 2, 1)) @ m
    return o.transpose(0, 2, 1).reshape(B, C, H, W) + x


PAPER_PYRAMID = PyramidSpec([1, 4, 8, 16])   # L = 337 bins


def attention_block_graph():
    """A shape-aligned 3x3 `align_conv`, then `anab_forward` with the paper's
    pyramid, at 8 ch x 24x40. Returns (leaves, out, g): the leaf tensors, the
    block's output and an upstream gradient for it."""
    rng = np.random.default_rng(0)
    C, H, W = 8, 24, 40
    x = Tensor(rng.normal(size=(1, C, H, W)), requires_grad=True)
    spec = ConvSpec.init_random(C, C, (3, 3), 1, 1, rng=rng)
    anab = AnabParams.init_random(C, PAPER_PYRAMID, rng=rng)
    off = shape_align_offsets(rng.uniform(8.0, 64.0, size=(1, H, W, 2)), 8, (3, 3))
    out = anab_forward(align_conv(x, spec, off), anab)
    return [x] + spec.params() + anab.params(), out, rng.normal(size=out.shape)


def attention_block_maps():
    """The attention block's memory in N x L float64 maps, on
    `attention_block_graph()`: (held, transient). `held` is what tracemalloc
    counts when the forward has returned, the whole graph included;
    `transient` is its peak during `out.backward(g)` less `held`."""
    attention_block_graph()   # warm any first-call allocation
    tracemalloc.start()
    try:
        _, out, g = attention_block_graph()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, _, H, W = out.shape
    nl_map = H * W * PAPER_PYRAMID.descriptor_count * 8
    return held / nl_map, (peak - held) / nl_map


def composed_attend(xt, q, a):
    """The attention block's N x L product a @ softmax(xt @ q)^T as four tape
    ops (a matmul, `softmax_lastdim`, a transpose and a second matmul): the
    composition `attention._attend` must equal bit for bit."""
    return a @ softmax_lastdim(xt @ q).transpose(0, 2, 1)


def bev_footprint(box):
    """Yaw-rotated (x, z) rectangle corners of a Box3D, (4, 2), clockwise."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = np.array([1, 1, -1, -1]) * (box.l / 2.0)
    lz = np.array([1, -1, -1, 1]) * (box.w / 2.0)
    x = box.x + lx * c + lz * s
    z = box.z - lx * s + lz * c
    return np.stack([x, z], axis=1)


def clip_polygon(subject, clip):
    """Sutherland-Hodgman, one vertex at a time: clip `subject` by convex
    polygon `clip` (CCW). `geometry._clip` runs this loop on arrays of pairs,
    and `geometry.clip_polygon` equals it bit for bit."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        inp, output = output, []
        if not inp:
            break
        side = [(b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) for p in inp]
        for k, cur in enumerate(inp):
            prev, s_prev, s_cur = inp[k - 1], side[k - 1], side[k]
            if (s_cur >= 0.0) != (s_prev >= 0.0):
                t = s_prev / (s_prev - s_cur)
                output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if s_cur >= 0.0:
                output.append(cur)
    return output


def polygon_area(poly):
    """Shoelace area (absolute)."""
    if len(poly) < 3:
        return 0.0
    p = np.asarray(poly)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


# Local corner signs of (l / 2, h, w / 2), in `box3d_corners`' order.
CORNER_SIGNS = np.array([
    [1, 0, 1], [1, 0, -1], [-1, 0, -1], [-1, 0, 1],
    [1, -1, 1], [1, -1, -1], [-1, -1, -1], [-1, -1, 1],
], dtype=np.float64)


def numpy_box3d_corners(box):
    """`box3d_corners` on numpy scalars: the local corners as a product of
    the sign table and (l / 2, h, w / 2), then the same `local @ rot.T + xyz`."""
    box = box.as_array() if isinstance(box, Box3D) else box
    x, y, z, w, h, l, yaw = np.asarray(box, dtype=np.float64)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    local = CORNER_SIGNS * np.array([l / 2.0, h, w / 2.0])
    return local @ rot.T + np.array([x, y, z])


def numpy_project_box(box, cam):
    """`project_box` on numpy scalars: `numpy_box3d_corners`, one `project`
    call (numpy's divide), then four scalar reductions over its u and v
    columns."""
    pts = numpy_box3d_corners(box)
    if np.any(pts[:, 2] <= 0.0):
        raise ValueError("box extends behind the camera")
    u, v, _ = project(cam, pts).T
    return Box2D(u.min(), v.min(), u.max(), v.max())


def numpy_envelope_l1(env, target):
    """The yaw search's objective on numpy arrays: the summed absolute
    differences of a Box2D's corners and a (4,) target."""
    return float(np.abs(env.as_array() - target).sum())


def numpy_optimize_rotation(box, target, cam):
    """`optimize_rotation`'s yaw search scored by `numpy_envelope_l1` on
    `numpy_project_box`'s envelope, every candidate scored afresh: (yaw,
    refined, the yaws scored in order, repeats included). Its distinct yaws
    are the ones `optimize_rotation` projects."""
    *fixed, yaw = map(float, box)
    target = np.asarray(target, dtype=np.float64)
    scored = []

    def objective(yaw):
        scored.append(yaw)
        try:
            env = numpy_project_box((*fixed, yaw), cam)
        except ValueError:
            return math.inf
        return numpy_envelope_l1(env, target)

    best = objective(yaw)
    if best == math.inf:
        return yaw, False, scored
    step = YAW_STEP
    for _ in range(YAW_MAX_ITER):
        if step < YAW_STEP_MIN:
            break
        for cand in (yaw + step, yaw - step):
            val = objective(cand)
            if val < best:
                yaw, best = cand, val
                break
        else:
            step /= 2.0
    return wrap_angle(yaw), True, scored
