"""Toy end-to-end trainer: stand-in backbone, aligned heads, SGD schedule.

The stand-in backbone is three stride-2 convolutions reaching stride 8; the
heads mirror the full design (classification, 2D box, predicted-center
alignment, attention-based depth, 3D dims/angle) at desk scale, trained on
synthetic rectangle scenes with a fixed seed so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import align_conv, center_align_offsets, select_best_anchor, shape_align_offsets
from .anchors import encode, fit_anchor_3d_stats, generate_anchor_grid
from .attention import AnabParams, PyramidSpec, anab_forward
from .geometry import CameraIntrinsics, _rows, iou_2d_pairs
from .losses import (HARD_FRACTION, NEGATIVE_IOU, POSITIVE_IOU, loss_2d, loss_3d, loss_cls,
                     mine_hard, per_sample_ce, total_loss)
from .ops import ConvSpec, conv2d
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "lr_at",
    "SGD",
    "Scene",
    "make_synthetic_scenes",
    "ToyDetector",
    "train_toy",
    "write_loss_trace",
]

STRIDE = 8
IMAGE_CHANNELS = 3
FEAT_CHANNELS = 16
NUM_CLASSES = 2            # class 0 is background, class 1 the one foreground class
ANCHOR_SIZES = (16.0, 24.0, 36.0)
PYRAMID_LEVELS = (1, 2)
HEAD_SCALE = 8.0           # fixed output gain of the heads; raises their effective lr
# the SGD schedule: linear warmup to LR_TARGET, cosine decay to LR_FLOOR
LR_TARGET = 0.004
LR_FLOOR = 4e-8
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
GRAD_CLIP = 20.0           # global gradient-norm clip (Pascanu et al. 2013)


@dataclass
class TrainConfig:
    batch_size: int = 4
    warmup_steps: int = 20
    total_steps: int = 200

    def __post_init__(self):
        for name in ("batch_size", "warmup_steps", "total_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.warmup_steps > self.total_steps:  # lr_at would never leave its ramp
            raise ValueError(f"warmup_steps ({self.warmup_steps}) > total_steps ({self.total_steps})")


def lr_at(step, config):
    """Linear warmup from 0 to LR_TARGET, then cosine decay to LR_FLOOR.

    step 0 gives 0; step == warmup_steps gives exactly LR_TARGET; the final
    step gives exactly LR_FLOOR, except in a run with warmup_steps ==
    total_steps, which ends at LR_TARGET.
    """
    w, total = config.warmup_steps, config.total_steps
    if step <= w:
        return LR_TARGET * step / w
    t = (step - w) / (total - w)
    return LR_FLOOR + 0.5 * (LR_TARGET - LR_FLOOR) * (1.0 + math.cos(math.pi * t))


class SGD:
    """SGD with momentum and decoupled-from-nothing classic weight decay.

    Each step first clips the global gradient norm, sqrt(sum(vdot(g, g)))
    over every parameter (a missing gradient counts as zeros): above
    GRAD_CLIP every gradient is scaled by GRAD_CLIP / norm, so the step
    moves as the unclipped one would on the rescaled gradients. Below it
    the update is bitwise the unclipped one. Without the clip a few
    initialisations diverge in the warm-up (the box2d head's gradient
    spikes); no pinned run's norm reaches GRAD_CLIP.
    """

    def __init__(self, params, config):
        self.params = list(params)
        self.config = config
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        norm = math.sqrt(sum(np.vdot(g, g) for g in grads))
        if norm > GRAD_CLIP:
            grads = [g * (GRAD_CLIP / norm) for g in grads]
        for p, v, g in zip(self.params, self.velocity, grads):
            v *= MOMENTUM
            v += g + WEIGHT_DECAY * p.data
            p.data -= lr * v


# -- synthetic scenes ---------------------------------------------------------


@dataclass
class Scene:
    """One image with its labels, which must be finite rows."""

    image: Tensor                  # (1, 3, H, W)
    boxes2d: np.ndarray            # (n, 4): x1, y1, x2, y2
    params3d: np.ndarray           # (n, 7): xp, yp, zp, w, h, l, alpha
    cam: CameraIntrinsics

    def __post_init__(self):
        self.boxes2d = _rows("boxes2d", self.boxes2d, 4)
        self.params3d = _rows("params3d", self.params3d, 7)


def make_synthetic_scenes(count=8, image_hw=(48, 80), objects_per_scene=2, seed=7):
    """Rectangle scenes: each object is a bright box on a noisy background.

    Object depth follows a pinhole-ish size/depth relation so the depth head
    has signal to learn; projected centers coincide with the 2D box centers.
    """
    rng = np.random.default_rng(seed)
    H, W = image_hw
    cam = CameraIntrinsics.simple(60.0, W / 2.0, H / 2.0)
    scenes = []
    for _ in range(count):
        img = rng.normal(0.0, 0.05, size=(1, 3, H, W))
        boxes, params = [], []
        for _ in range(objects_per_scene):
            bw = rng.uniform(14.0, 34.0)
            bh = bw * rng.uniform(0.8, 1.2)
            cx = rng.uniform(bw / 2 + 2, W - bw / 2 - 2)
            cy = rng.uniform(bh / 2 + 2, H - bh / 2 - 2)
            box = (cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0)
            x1, y1, x2, y2 = map(int, box)
            shade = rng.uniform(0.6, 1.0, size=3)
            img[0, :, y1:y2, x1:x2] += shade[:, None, None]
            z = 60.0 * 1.6 / bh  # apparent height ~ f * H3d / z
            w3 = rng.uniform(1.5, 1.8)
            h3 = rng.uniform(1.3, 1.6)
            l3 = rng.uniform(3.2, 4.2)
            alpha = rng.uniform(-0.4, 0.4)
            boxes.append(box)
            params.append((cx, cy, z, w3, h3, l3, alpha))
        scenes.append(Scene(Tensor(img), np.array(boxes).reshape(-1, 4),
                            np.array(params).reshape(-1, 7), cam))
    return scenes


# -- toy detector -------------------------------------------------------------


class ToyDetector:
    """Stride-8 backbone + aligned multi-task heads, all on the autodiff tape.

    `image_hw` and the seed are its only options: channel widths, anchor
    sizes, pyramid levels and HEAD_SCALE are module constants, the anchor
    ratios `anchors.RATIOS`. Any image size works; the feature grid is
    ceil(H/8) x ceil(W/8). The heads start at zero and are scaled by the
    fixed gain HEAD_SCALE, which the paper does not have: it raises their
    effective learning rate.
    """

    def __init__(self, image_hw, seed=0):
        rng = np.random.default_rng(seed)
        self.image_hw = tuple(image_hw)
        # three 3x3 stride-2 pad-1 convolutions: each maps n to ceil(n / 2)
        self.feature_hw = tuple(-(-n // STRIDE) for n in self.image_hw)
        self.grid = generate_anchor_grid(self.feature_hw, STRIDE, sizes=np.array(ANCHOR_SIZES))
        A = self.grid.per_position
        self.num_classes = NUM_CLASSES
        ch = FEAT_CHANNELS
        gain = np.sqrt(2.0)  # relu backbone
        self.backbone = [
            ConvSpec.init_random(IMAGE_CHANNELS, 8, (3, 3), 2, 1, rng=rng, gain=gain),
            ConvSpec.init_random(8, 12, (3, 3), 2, 1, rng=rng, gain=gain),
            ConvSpec.init_random(12, ch, (3, 3), 2, 1, rng=rng, gain=gain),
        ]
        # heads start at zero; their fixed output gain HEAD_SCALE speeds learning
        self.cls_head = ConvSpec(ch, A * self.num_classes, (1, 1))
        self.shape_conv = ConvSpec.init_random(ch, ch, (3, 3), 1, 1, rng=rng)
        self.center_head = ConvSpec(ch, 2, (1, 1))
        self.center_conv = ConvSpec.init_random(ch, ch, (1, 1), rng=rng)
        self.box2d_head = ConvSpec(ch, A * 4, (1, 1))
        self.box3d_head = ConvSpec(ch, A * 4, (1, 1))  # tw, th, tl, ta
        self.anab = AnabParams.init_random(ch, pyramid=PyramidSpec(list(PYRAMID_LEVELS)), rng=rng)
        self.depth_head = ConvSpec(ch, A * 1, (1, 1))

    def fit_anchors(self, scenes):
        fit_anchor_3d_stats(self.grid, np.concatenate([sc.boxes2d for sc in scenes]),
                            np.concatenate([sc.params3d for sc in scenes])[:, 2:])

    def params(self):
        out = []
        for spec in (*self.backbone, self.cls_head, self.shape_conv, self.center_head,
                     self.center_conv, self.box2d_head, self.box3d_head, self.depth_head):
            out.extend(spec.params())
        out.extend(self.anab.params())
        return out

    @staticmethod
    def _rows(head, k):
        """A (B, A*k, H, W) conv head as (B, H*W*A, k) rows: row (r*W + c)*A + t
        is channels t*k .. t*k + k-1 at cell (r, c), the grid's flat anchor
        order (A = 1 for the per-position center head)."""
        return head.transpose(0, 2, 3, 1).reshape(head.shape[0], -1, k)

    def forward(self, images):
        """Heads of a (B, 3, H, W) batch: the per-anchor heads as (B, N, k)
        rows and each anchor's score and class id as (B, N) arrays, all by
        flat anchor index; the center head as (B, H*W, 2) rows by position;
        the (w_a, h_a) map used for alignment as (B, H, W, 2). Every item is
        aligned by its own offset fields. (H, W) must be the model's
        `image_hw`."""
        if images.shape[2:] != self.image_hw:
            raise ValueError(f"images of shape {images.shape} do not match the model's "
                             f"image size {self.image_hw}")
        x = images
        for spec in self.backbone:
            x = conv2d(x, spec).relu()
        B = x.shape[0]
        H, W = self.feature_hw
        A = self.grid.per_position

        s = HEAD_SCALE
        cls = self._rows(conv2d(x, self.cls_head) * s, self.num_classes)  # (B, N, ncls)
        # the anchor score, off the tape: the two-class softmax's foreground
        # probability, from the two logit columns with the ufuncs of
        # `softmax_lastdim`'s rows (a row max of two values is their maximum,
        # a row sum of two their sum), so with its bits, but for the NaN bits
        # of a background logit that is a NaN other than numpy's own; shape
        # alignment ranks each position's anchors by it
        x0, x1 = cls.data[..., 0], cls.data[..., 1]
        m = np.maximum(x0, x1)
        e0, e1 = np.exp(x0 - m), np.exp(x1 - m)
        scores = e1 / (e0 + e1)
        best_wh = select_best_anchor(scores.reshape(B, H, W, A), self.grid.templates)
        trunk = align_conv(x, self.shape_conv, shape_align_offsets(best_wh, STRIDE, (3, 3))).relu()

        # predicted-center residual in pixels, normalized by the best template
        center = self._rows(conv2d(trunk, self.center_head), 2)  # (B, H*W, 2)
        residuals = (center * Tensor(best_wh.reshape(B, -1, 2))).reshape(B, H, W, 2)
        aligned = align_conv(trunk, self.center_conv, center_align_offsets(residuals, STRIDE)).relu()

        depth_feat = anab_forward(aligned, self.anab)
        return {
            "cls": cls,
            "center": center,
            "box2d": self._rows(conv2d(aligned, self.box2d_head) * s, 4),
            "box3d": self._rows(conv2d(aligned, self.box3d_head) * s, 4),
            "depth": self._rows(conv2d(depth_feat, self.depth_head) * s, 1),
            "best_wh": best_wh,
            "scores": scores,
            "classes": np.ones(scores.shape, dtype=np.intp),   # the one foreground class
            "features": aligned,
        }

    # -- loss assembly --------------------------------------------------------

    def match_anchors(self, boxes2d):
        """Per-anchor labels against (n, 4) ground-truth boxes: gt index for
        positives, -1 background, -2 ignore. A scene without objects is all
        background."""
        if len(boxes2d) == 0:
            return np.full(len(self.grid), -1, dtype=np.intp)
        iou = iou_2d_pairs(self.grid.boxes2d()[:, None], boxes2d[None])  # (anchors, gt)
        best_gt = iou.argmax(axis=1)
        best_iou = iou[np.arange(len(iou)), best_gt]
        labels = np.full(len(iou), -2, dtype=np.intp)
        labels[best_iou < NEGATIVE_IOU] = -1
        pos = best_iou >= POSITIVE_IOU
        labels[pos] = best_gt[pos]
        return labels

    def gather_deltas(self, heads, item, flat):
        """The (n, 4) 2D and (n, 7) 3D deltas of the batched heads at flat
        anchor indices of one item or of per-row items. (tx, ty)3d is the
        center head's residual, which is in units of the best template's
        size, re-expressed in the anchor's."""
        pos, t = np.divmod(flat, self.grid.per_position)
        best_wh = heads["best_wh"]  # (w_a, h_a) of the best template, per position
        best_wh = best_wh.reshape(len(best_wh), -1, 2)[item, pos]
        txy3 = heads["center"][item, pos] * Tensor(best_wh) / Tensor(self.grid.templates[t])
        d3 = Tensor.concat([txy3, heads["depth"][item, flat], heads["box3d"][item, flat]], axis=1)
        return heads["box2d"][item, flat], d3

    def scene_loss(self, scenes, labels):
        """One forward over the stacked images of `scenes`; returns a list of
        each scene's mined classification, 2D IoU and 3D smooth-L1 losses
        (l_cls, l_2d, l_3d). `labels` holds each scene's `match_anchors`
        labels."""
        heads = self.forward(Tensor(np.concatenate([sc.image.data for sc in scenes])))
        l_cls, l_2d, l_3d = self._batch_losses(heads, scenes, labels)
        return [(l_cls[b], l_2d[b], l_3d[b]) for b in range(len(scenes))]

    def _batch_losses(self, heads, scenes, labels):
        """(B,) per-scene l_cls, l_2d and l_3d of the batched heads: each loss
        runs once over the rows of all items, averaged per scene by segment
        sums. A scene without positives gets zero l_2d and l_3d."""
        B, N = len(scenes), len(self.grid)
        lab = np.concatenate(labels)  # item b's anchor i at b * N + i
        used = np.flatnonzero(lab != -2)
        item, anchor = np.divmod(used, N)
        targets = (lab[used] >= 0).astype(np.intp)

        # hard-negative mining on detached per-sample CE; positives protected
        ce = per_sample_ce(heads["cls"].data[item, anchor], targets)
        keep = mine_hard(ce, HARD_FRACTION, protected=np.flatnonzero(targets),
                         segments=np.bincount(item, minlength=B))
        l_cls = loss_cls(heads["cls"][item[keep], anchor[keep]], targets[keep],
                         segments=np.bincount(item[keep], minlength=B))

        # the positives of all items; their gt indices into the stacked boxes
        pos = np.flatnonzero(lab >= 0)
        item, anchor = np.divmod(pos, N)
        first_gt = np.cumsum([0] + [len(sc.boxes2d) for sc in scenes])
        gt = lab[pos] + first_gt[item]
        gt_boxes = np.concatenate([sc.boxes2d for sc in scenes])[gt]
        d2, d3 = self.gather_deltas(heads, item, anchor)
        anchors = self.grid.rows(anchor)
        _, target_d3 = encode(anchors, gt_boxes, np.concatenate([sc.params3d for sc in scenes])[gt])

        # decoded 2D corners, on tape: the arithmetic of `decode` on column pairs
        xy, wh = anchors[:, :2], anchors[:, 2:4]
        center = d2[:, :2] * wh + xy
        half = d2[:, 2:].exp() * wh * 0.5
        pred_boxes = Tensor.concat([center - half, center + half], axis=1)
        n_pos = np.bincount(item, minlength=B)
        return l_cls, loss_2d(pred_boxes, gt_boxes, n_pos), loss_3d(d3, target_d3, n_pos)


def _check_scenes(scenes):
    """Batches stack their images: at least one scene, and name the first
    scene whose image shape differs from scene 0's."""
    if not scenes:
        raise ValueError("need at least one scene")
    shape = scenes[0].image.shape
    for i, sc in enumerate(scenes):
        if sc.image.shape != shape:
            raise ValueError(f"scene {i} has image shape {sc.image.shape}, scene 0 has "
                             f"{shape}: all scenes must share one image shape")


def train_toy(scenes, steps=200, seed=0, detector=None, warmup_steps=None):
    """SGD over the full head stack on synthetic scenes; returns the trace.

    The LR schedule spans the run; its warm-up lasts `warmup_steps`, by
    default `TrainConfig.warmup_steps` capped at the run. Trace rows: (step,
    lr, L_cls, L_2d, L_3d, L_total), evaluated on the mini-batch before the
    update. Deterministic for a fixed seed: two runs give bitwise equal
    traces and weights. Each scene's anchor labels are matched once, before
    the loop; a step is one forward and one backward over a batch of
    `TrainConfig.batch_size` scenes taken in turn.
    """
    if warmup_steps is None:
        warmup_steps = max(1, min(TrainConfig.warmup_steps, steps))
    cfg = TrainConfig(total_steps=steps, warmup_steps=warmup_steps)
    _check_scenes(scenes)
    model = detector or ToyDetector(scenes[0].image.shape[2:], seed=seed)
    model.fit_anchors(scenes)
    opt = SGD(model.params(), cfg)
    # labels depend only on the boxes and the 2D templates: match once
    labels = [model.match_anchors(sc.boxes2d) for sc in scenes]

    trace = []
    for step in range(steps):
        lr = lr_at(step + 1, cfg)
        idx = [(step * cfg.batch_size + i) % len(scenes) for i in range(cfg.batch_size)]
        opt.zero_grad()
        parts, total = _batch_backward(model, [scenes[i] for i in idx], [labels[i] for i in idx])
        trace.append((step, lr, parts[0], parts[1], parts[2], total))
        opt.step(lr)
    return trace, model


def _batch_backward(model, batch, labels):
    """One forward and one backward over `batch` with its scenes' anchor
    labels: the mean (L_cls, L_2d, L_3d) and the total. The step's tape is
    freed on return, before the next forward."""
    parts = np.zeros(3)
    batch_total = None
    for l_cls, l_2d, l_3d in model.scene_loss(batch, labels):
        tot = total_loss(l_cls, l_2d, l_3d) * (1.0 / len(batch))
        batch_total = tot if batch_total is None else batch_total + tot
        parts += [l_cls.item(), l_2d.item(), l_3d.item()]
    batch_total.backward()
    return parts / len(batch), batch_total.item()


def write_loss_trace(trace, path):
    with open(path, "w") as f:
        f.write("step,lr,loss_cls,loss_2d,loss_3d,loss_total\n")
        for row in trace:
            f.write(",".join(format(v, ".9g") for v in row) + "\n")
