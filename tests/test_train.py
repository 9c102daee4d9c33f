import numpy as np
import pytest

from mono3d.anchors import encode
from mono3d.attention import anab_forward
from mono3d.geometry import Box2D, iou_2d
from mono3d.losses import (HARD_FRACTION, NEGATIVE_IOU, POSITIVE_IOU, loss_2d, loss_3d,
                           loss_cls, mine_hard, per_sample_ce, total_loss)
from mono3d.ops import conv2d
from mono3d.tensor import Tensor
from mono3d.train import (GRAD_CLIP, HEAD_SCALE, LR_FLOOR, LR_TARGET, MOMENTUM, WEIGHT_DECAY, SGD,
                          Scene, ToyDetector, TrainConfig, lr_at, make_synthetic_scenes, train_toy,
                          write_loss_trace)


def head_maps(model, images, features):
    """The per-anchor heads as their (B, A*k, H, W) convolution maps: `conv2d`
    of each head's ConvSpec times HEAD_SCALE, on the backbone of `images` (cls)
    or on the forward's aligned `features` (box2d, box3d, and depth through
    the attention block). Channel t * k + j of a map is column j of template t."""
    x = images
    for spec in model.backbone:
        x = conv2d(x, spec).relu()
    return {"cls": conv2d(x, model.cls_head) * HEAD_SCALE,
            "box2d": conv2d(features, model.box2d_head) * HEAD_SCALE,
            "box3d": conv2d(features, model.box3d_head) * HEAD_SCALE,
            "depth": conv2d(anab_forward(features, model.anab), model.depth_head) * HEAD_SCALE}


def anchor_cells(model, flat):
    """(row, col, template) of flat anchor indices (row * W + col) * A + template."""
    A, W = model.grid.per_position, model.feature_hw[1]
    return flat // A // W, flat // A % W, flat % A


def at_anchors(head_map, b, k, r, c, t):
    """(n, k) values of a (B, A*k, H, W) map, or of its data, at item b's
    anchors (r, c, t)."""
    return head_map[b, t[:, None] * k + np.arange(k), r[:, None], c[:, None]]


def per_candidate_deltas(model, heads, maps, b, flat):
    """(n, 4) 2D and (n, 7) 3D deltas of item b at flat anchor indices,
    assembled one candidate at a time from the head maps and the center and
    best-template maps: the reference for `gather_deltas`."""
    H, W = model.feature_hw
    A = model.grid.per_position
    d2_map = maps["box2d"].data[b].reshape(A, 4, H, W)
    d3rest_map = maps["box3d"].data[b].reshape(A, 4, H, W)
    tz_map = maps["depth"].data[b].reshape(A, 1, H, W)
    center = heads["center"].data[b]   # (H*W, 2), row r * W + c for cell (r, c)
    best_wh = heads["best_wh"][b]
    want2, want3 = [], []
    for f in flat:
        hh, ww = divmod(int(f) // A, W)
        t = int(f) % A
        w_a, h_a = model.grid.templates[t]
        w_b, h_b = best_wh[hh, ww]
        want2.append(d2_map[t, :, hh, ww])
        cx, cy = center[hh * W + ww]
        want3.append([cx * w_b / w_a, cy * h_b / h_a,
                      tz_map[t, 0, hh, ww], *d3rest_map[t, :, hh, ww]])
    return np.array(want2).reshape(-1, 4), np.array(want3).reshape(-1, 7)


class TestSchedule:
    CFG = TrainConfig(warmup_steps=20, total_steps=200)

    def test_step_zero(self):
        assert lr_at(0, self.CFG) == 0.0

    def test_warmup_end_exact(self):
        assert lr_at(20, self.CFG) == LR_TARGET == 0.004

    def test_warmup_linear(self):
        assert lr_at(10, self.CFG) == pytest.approx(0.002, abs=1e-15)

    def test_final_step_exact(self):
        assert abs(lr_at(200, self.CFG) - 4e-8) < 1e-12

    def test_monotone_after_warmup(self):
        vals = [lr_at(s, self.CFG) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_config_validation(self):
        for name in ("batch_size", "warmup_steps", "total_steps"):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                TrainConfig(**{name: 0})

    def test_warmup_longer_than_the_run_rejected(self):
        with pytest.raises(ValueError, match=r"warmup_steps \(8\) > total_steps \(3\)"):
            TrainConfig(total_steps=3, warmup_steps=8)


class TestSGD:
    def test_plain_descent(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], TrainConfig())
        p.grad = np.array([0.5])
        opt.step(0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * (0.5 + WEIGHT_DECAY * 1.0), abs=1e-15)

    def test_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], TrainConfig())
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step(1.0)
        # v1 = 1 moves p to -1; v2 = MOMENTUM * v1 + 1 + WEIGHT_DECAY * (-1)
        assert p.data[0] == pytest.approx(-1.0 - (MOMENTUM + 1.0 - WEIGHT_DECAY), abs=1e-15)

    def test_weight_decay_pulls_to_zero(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = SGD([p], TrainConfig())
        opt.zero_grad()
        opt.step(0.5)
        assert p.data[0] == pytest.approx(10.0 - 0.5 * WEIGHT_DECAY * 10.0, abs=1e-15)

    @staticmethod
    def two_steps(grads, lr=0.1):
        """Weights after two steps from fixed weights with `grads` each step;
        a None gradient is left missing."""
        params = [Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  Tensor(np.array([[0.5], [3.0]]), requires_grad=True),
                  Tensor(np.array([7.0]), requires_grad=True)]
        opt = SGD(params, TrainConfig())
        for _ in range(2):
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step(lr)
        return [p.data for p in params]

    def test_below_the_clip_is_bitwise_the_unclipped_update(self):
        grads = [np.array([12.0, 9.0]), np.array([[0.0], [12.0]]), None]  # norm sqrt(369) < 20
        expect = [np.array([1.0, -2.0]), np.array([[0.5], [3.0]]), np.array([7.0])]
        vel = [np.zeros_like(e) for e in expect]
        for _ in range(2):
            for e, v, g in zip(expect, vel, grads):
                v *= MOMENTUM
                v += (np.zeros_like(e) if g is None else g) + WEIGHT_DECAY * e
                e -= 0.1 * v
        for got, want in zip(self.two_steps(grads), expect):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_norm_of_twice_the_clip_moves_as_half_the_gradient(self):
        # global norm sqrt(24^2 + 32^2) = 40 = 2 * GRAD_CLIP exactly; the
        # missing third gradient counts as zeros
        assert GRAD_CLIP == 20.0
        grads = [np.array([24.0, 0.0]), np.array([[0.0], [32.0]]), None]
        halved = [g / 2 for g in grads[:2]] + [None]
        for got, want in zip(self.two_steps(grads), self.two_steps(halved)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSyntheticScenes:
    def test_deterministic(self):
        a = make_synthetic_scenes(count=3, seed=5)
        b = make_synthetic_scenes(count=3, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image.data, sb.image.data)
            np.testing.assert_array_equal(sa.params3d, sb.params3d)

    def test_layout(self):
        for n in (2, 0):
            for sc in make_synthetic_scenes(count=2, image_hw=(48, 80), objects_per_scene=n):
                assert sc.image.shape == (1, 3, 48, 80)
                assert sc.boxes2d.shape == (n, 4)
                assert sc.params3d.shape == (n, 7)
                # projected center coincides with the 2D box center
                np.testing.assert_allclose((sc.boxes2d[:, :2] + sc.boxes2d[:, 2:]) / 2.0,
                                           sc.params3d[:, :2], rtol=1e-12)
                assert np.all(sc.params3d[:, 2] > 0.0)


class TestToyDetector:
    def test_head_shapes(self):
        scenes = make_synthetic_scenes(count=1, seed=0)
        model = ToyDetector((48, 80), seed=0)
        heads = model.forward(scenes[0].image)
        N = len(model.grid)
        assert N == 6 * 10 * model.grid.per_position
        assert heads["cls"].shape == (1, N, 2)
        assert heads["center"].shape == (1, 6 * 10, 2)
        assert heads["box2d"].shape == (1, N, 4)
        assert heads["box3d"].shape == (1, N, 4)
        assert heads["depth"].shape == (1, N, 1)
        assert heads["best_wh"].shape == (1, 6, 10, 2)
        assert heads["scores"].shape == heads["classes"].shape == (1, N)

    def test_shape_alignment_ranks_anchors_by_the_class_softmax(self):
        # noise breaks the trained head's l_bg == -l_fg symmetry, so a score
        # that ignores the background logit would rank anchors otherwise
        scenes = make_synthetic_scenes(count=8, seed=7)
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        w = model.cls_head.weight
        w.data += np.random.default_rng(0).normal(0.0, 0.05, size=w.shape)
        images = Tensor(np.concatenate([sc.image.data for sc in scenes]))
        heads = model.forward(images)
        (H, W), A = model.feature_hw, model.grid.per_position
        logits = head_maps(model, images, heads["features"])["cls"].data.reshape(8, A, 2, H, W)
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        fg = (e[:, :, 1] / e.sum(axis=2)).transpose(0, 2, 3, 1)   # (B, H, W, A)
        assert np.array_equal(heads["best_wh"], model.grid.templates[fg.argmax(axis=-1)])
        np.testing.assert_allclose(heads["scores"], fg.reshape(8, -1), rtol=0, atol=1e-15)
        assert np.array_equal(heads["classes"], np.ones((8, len(model.grid))))

    def test_anchor_matching_labels(self):
        scenes = make_synthetic_scenes(count=1, seed=1)
        model = ToyDetector((48, 80), seed=0)
        labels = model.match_anchors(scenes[0].boxes2d)
        assert labels.shape == (len(model.grid),)
        assert set(np.unique(labels)).issubset(set(range(-2, len(scenes[0].boxes2d))))

    def test_anchor_matching_brute_force_oracle(self):
        model = ToyDetector((48, 80), seed=0)
        anchors = [Box2D(x - w / 2.0, y - h / 2.0, x + w / 2.0, y + h / 2.0)
                   for x, y, w, h in model.grid.rows(np.arange(len(model.grid)))[:, :4]]
        for seed, count in ((1, 1), (2, 2), (3, 3), (4, 4)):
            for sc in make_synthetic_scenes(count=2, objects_per_scene=count, seed=seed):
                gts = [Box2D(*g) for g in sc.boxes2d]
                want = []
                for a in anchors:
                    ious = [iou_2d(a, g) for g in gts]
                    best = max(range(len(ious)), key=lambda j: (ious[j], -j))
                    if ious[best] >= POSITIVE_IOU:
                        want.append(best)
                    else:
                        want.append(-1 if ious[best] < NEGATIVE_IOU else -2)
                assert model.match_anchors(sc.boxes2d).tolist() == want
                assert max(want) >= 0

    def test_scene_loss_finite(self):
        scenes = make_synthetic_scenes(count=1, seed=2)
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        labels = [model.match_anchors(scenes[0].boxes2d)]
        [(l_cls, l_2d, l_3d)] = model.scene_loss([scenes[0]], labels)
        for v in (l_cls, l_2d, l_3d):
            assert np.isfinite(v.item())


def per_scene_losses(model, heads, maps, b, scene):
    """(l_cls, l_2d, l_3d) of item b of the batched heads, assembled for that
    scene alone from the head maps: matched, gathered, mined and scored one
    scene at a time. The reference for the batch-wide assembly in
    `scene_loss`."""
    labels = model.match_anchors(scene.boxes2d)
    pos_idx = np.flatnonzero(labels >= 0)
    neg_idx = np.flatnonzero(labels == -1)
    used = np.concatenate([pos_idx, neg_idx])
    logits_all = at_anchors(maps["cls"], b, model.num_classes, *anchor_cells(model, used))
    targets_all = np.where(labels[used] >= 0, 1, 0)
    ce = per_sample_ce(logits_all.data, targets_all)
    keep = mine_hard(ce, HARD_FRACTION, [len(ce)], protected=np.arange(len(pos_idx)))
    l_cls = loss_cls(logits_all[keep], targets_all[keep], [len(keep)])[0]
    if len(pos_idx) == 0:
        return l_cls, Tensor(0.0), Tensor(0.0)

    r, c, t = anchor_cells(model, pos_idx)
    best_wh = Tensor(heads["best_wh"][b, r, c])
    txy3 = heads["center"][b, r * model.feature_hw[1] + c] * best_wh / Tensor(model.grid.templates[t])
    d3 = Tensor.concat([txy3, at_anchors(maps["depth"], b, 1, r, c, t),
                        at_anchors(maps["box3d"], b, 4, r, c, t)], axis=1)
    d2 = at_anchors(maps["box2d"], b, 4, r, c, t)
    anchors = model.grid.rows(pos_idx)
    gt = labels[pos_idx]
    gt_boxes = scene.boxes2d[gt]
    _, target_d3 = encode(anchors, gt_boxes, scene.params3d[gt])
    x, y, w, h = anchors[:, :4].T
    cx = d2[:, 0] * w + x
    cy = d2[:, 1] * h + y
    bw = d2[:, 2].exp() * w
    bh = d2[:, 3].exp() * h
    pred_boxes = Tensor.concat(
        [(cx - bw * 0.5).reshape(-1, 1), (cy - bh * 0.5).reshape(-1, 1),
         (cx + bw * 0.5).reshape(-1, 1), (cy + bh * 0.5).reshape(-1, 1)], axis=1)
    one = [len(pos_idx)]  # the scene is one segment
    return l_cls, loss_2d(pred_boxes, gt_boxes, one)[0], loss_3d(d3, target_d3, one)[0]


def summed_total(parts):
    out = None
    for l_cls, l_2d, l_3d in parts:
        tot = total_loss(l_cls, l_2d, l_3d)
        out = tot if out is None else out + tot
    return out


class TestBatchedForward:
    """One forward over a stacked batch against one forward per scene."""

    HEADS = ("cls", "center", "box2d", "box3d", "depth", "features")

    @staticmethod
    def model_and_scenes():
        scenes = make_synthetic_scenes(count=3, seed=4)
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        rng = np.random.default_rng(9)
        # the heads start at zero: random ones give each item its own best
        # anchors and nonzero center residuals
        for spec in (model.cls_head, model.center_head, model.box2d_head,
                     model.box3d_head, model.depth_head):
            spec.weight.data[:] = rng.normal(0.0, 0.3, size=spec.weight.shape)
            spec.bias.data[:] = rng.normal(0.0, 0.1, size=spec.bias.shape)
        return model, scenes

    def test_heads_bitwise_equal_per_scene_forwards(self):
        model, scenes = self.model_and_scenes()
        batched = model.forward(Tensor(np.concatenate([sc.image.data for sc in scenes])))
        singles = [model.forward(sc.image) for sc in scenes]
        best = batched["best_wh"]
        assert best.shape == (3, 6, 10, 2)
        assert len(np.unique(best.reshape(-1, 2), axis=0)) > 1
        assert all(not np.array_equal(best[0], best[b]) for b in (1, 2))
        assert np.abs(batched["center"].data).min() > 0.0
        for key in self.HEADS:
            want = np.concatenate([h[key].data for h in singles])
            assert np.array_equal(batched[key].data, want), key
        assert np.array_equal(best, np.concatenate([h["best_wh"] for h in singles]))

    def test_gradients_match_summed_per_scene_passes(self):
        model, scenes = self.model_and_scenes()
        losses = model.scene_loss(scenes, [model.match_anchors(sc.boxes2d) for sc in scenes])
        summed_total(losses).backward()
        got = [p.grad.copy() for p in model.params()]
        for p in model.params():
            p.zero_grad()
        for sc in scenes:  # the reference accumulates over three tapes
            summed_total(model.scene_loss([sc], [model.match_anchors(sc.boxes2d)])).backward()
        assert len(losses) == 3 and all(l_2d.item() > 0.0 for _, l_2d, _ in losses)
        for g, p in zip(got, model.params()):
            ref = p.grad
            assert np.abs(g - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_batch_losses_match_per_scene_assembly(self):
        # a scene without objects, and one scene twice
        model, scenes = self.model_and_scenes()
        empty = make_synthetic_scenes(count=1, objects_per_scene=0, seed=2)[0]
        batch = [scenes[0], empty, scenes[1], scenes[0]]
        labels = [model.match_anchors(sc.boxes2d) for sc in batch]
        losses = model.scene_loss(batch, labels)
        summed_total(losses).backward()
        got = [p.grad.copy() for p in model.params()]
        for p in model.params():
            p.zero_grad()
        images = Tensor(np.concatenate([sc.image.data for sc in batch]))
        heads = model.forward(images)
        maps = head_maps(model, images, heads["features"])
        want = [per_scene_losses(model, heads, maps, b, sc) for b, sc in enumerate(batch)]
        summed_total(want).backward()

        assert len(losses) == 4 and all(v.shape == () for row in losses for v in row)
        assert losses[1][1].item() == 0.0 and losses[1][2].item() == 0.0
        assert [v.item() for v in losses[0]] == [v.item() for v in losses[3]]
        for row, ref_row in zip(losses, want):
            for v, ref in zip(row, ref_row):
                assert abs(v.item() - ref.item()) <= 1e-12 * max(1.0, abs(ref.item()))
        for g, p in zip(got, model.params()):
            assert np.abs(g - p.grad).max() <= 1e-12 * max(1.0, np.abs(p.grad).max())


    def test_gather_deltas_match_per_candidate_assembly(self):
        model, scenes = self.model_and_scenes()
        images = Tensor(np.concatenate([sc.image.data for sc in scenes]))
        heads = model.forward(images)
        maps = head_maps(model, images, heads["features"])
        flat = np.random.default_rng(5).permutation(len(model.grid))[:200]
        for b in range(len(scenes)):
            d2, d3 = model.gather_deltas(heads, b, flat)
            want2, want3 = per_candidate_deltas(model, heads, maps, b, flat)
            assert np.array_equal(d2.data, want2)
            assert np.array_equal(d3.data, want3)


class TestTrainToy:
    def test_scene_without_objects_is_background(self):
        scenes = (make_synthetic_scenes(count=3, seed=1)
                  + make_synthetic_scenes(count=1, objects_per_scene=0, seed=2))
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        assert np.all(model.match_anchors(scenes[3].boxes2d) == -1)
        labels = [model.match_anchors(scenes[3].boxes2d)]
        [(l_cls, l_2d, l_3d)] = model.scene_loss([scenes[3]], labels)
        assert l_2d.item() == 0.0 and l_3d.item() == 0.0 and np.isfinite(l_cls.item())
        trace, _ = train_toy(scenes, steps=2, warmup_steps=1)
        assert len(trace) == 2 and np.isfinite(np.array(trace)).all()

    def test_default_warmup_capped_at_the_run(self):
        trace, _ = train_toy(make_synthetic_scenes(count=2, seed=3), steps=2)
        assert [row[1] for row in trace] == [LR_TARGET / 2, LR_TARGET]

    def test_warmup_steps_set_the_ramp(self):
        trace, _ = train_toy(make_synthetic_scenes(count=2, seed=3), steps=2, warmup_steps=1)
        assert [row[1] for row in trace] == [LR_TARGET, LR_FLOOR]

    def test_empty_scenes_rejected(self):
        with pytest.raises(ValueError, match="need at least one scene"):
            train_toy([], steps=1)

    def test_rejects_mixed_image_shapes(self):
        scenes = make_synthetic_scenes(count=2, seed=3)
        scenes += make_synthetic_scenes(count=1, image_hw=(40, 80), seed=3)
        scenes += make_synthetic_scenes(count=1, image_hw=(48, 64), seed=3)
        with pytest.raises(ValueError, match=r"scene 2 has image shape \(1, 3, 40, 80\)"):
            train_toy(scenes, steps=1)

    def test_short_run_bit_reproducible(self):
        scenes = make_synthetic_scenes(count=4, seed=3)
        t1, m1 = train_toy(scenes, steps=5, seed=0, warmup_steps=2)
        t2, m2 = train_toy(scenes, steps=5, seed=0, warmup_steps=2)
        assert t1 == t2
        for p1, p2 in zip(m1.params(), m2.params()):
            assert np.array_equal(p1.data, p2.data)

    def test_loss_drops(self):
        scenes = make_synthetic_scenes(count=4, seed=3)
        trace, _ = train_toy(scenes, steps=30, seed=0, warmup_steps=3)
        assert trace[-1][5] < trace[0][5]

    def test_trace_csv(self, tmp_path):
        scenes = make_synthetic_scenes(count=2, seed=3)
        trace, _ = train_toy(scenes, steps=2, seed=0, warmup_steps=1)
        path = tmp_path / "trace.csv"
        write_loss_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr,loss_cls,loss_2d,loss_3d,loss_total"
        assert len(lines) == 3
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.0
        assert row[5] == pytest.approx(trace[0][5], rel=1e-8)
