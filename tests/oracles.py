"""Reference implementations that only the tests use as oracles."""

from mono3d.ops import softmax_lastdim


def reference_nonlocal(x):
    """Standard non-local block with identity embeddings: the O(N^2 C) oracle.

    y = softmax(M M^T) M + x, with M the (N, C) reshaped feature map.
    """
    B, C, H, W = x.shape
    m = x.reshape(B, C, H * W).transpose(0, 2, 1)
    o = softmax_lastdim(m @ m.transpose(0, 2, 1)) @ m
    return o.transpose(0, 2, 1).reshape(B, C, H, W) + x
