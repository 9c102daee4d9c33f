"""Reference implementations that only the tests use as oracles."""

import math

import numpy as np

from mono3d.ops import softmax_lastdim


def reference_nonlocal(x):
    """Standard non-local block with identity embeddings: the O(N^2 C) oracle.

    y = softmax(M M^T) M + x, with M the (N, C) reshaped feature map.
    """
    B, C, H, W = x.shape
    m = x.reshape(B, C, H * W).transpose(0, 2, 1)
    o = softmax_lastdim(m @ m.transpose(0, 2, 1)) @ m
    return o.transpose(0, 2, 1).reshape(B, C, H, W) + x


def bev_footprint(box):
    """Yaw-rotated (x, z) rectangle corners of a Box3D, (4, 2), clockwise."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = np.array([1, 1, -1, -1]) * (box.l / 2.0)
    lz = np.array([1, -1, -1, 1]) * (box.w / 2.0)
    x = box.x + lx * c + lz * s
    z = box.z - lx * s + lz * c
    return np.stack([x, z], axis=1)


def polygon_area(poly):
    """Shoelace area (absolute)."""
    if len(poly) < 3:
        return 0.0
    p = np.asarray(poly)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
