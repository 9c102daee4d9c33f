import dataclasses

import numpy as np
import pytest

import mono3d.detector as detector
import mono3d.postproc as postproc
from mono3d.anchors import RATIOS, decode
from mono3d.detector import detect
from mono3d.geometry import Box2D, Box3D, alpha_to_yaw, box3d_corners, iou_2d, project
from mono3d.postproc import Detection, optimize_rotation
from mono3d.tensor import Tensor, no_grad
from mono3d.train import ANCHOR_SIZES, ToyDetector, make_synthetic_scenes, train_toy
from test_train import head_maps, per_candidate_deltas


def predict(model, scenes, conf_thresh):
    return [detect(model, sc, conf_thresh=conf_thresh) for sc in scenes]


def fit_predict(scenes, steps, conf_thresh):
    """The toy pipeline: `train_toy` on `scenes` (seed 0), then `detect` on
    each scene. Gives (trace, model, detections per scene)."""
    trace, model = train_toy(scenes, steps=steps, seed=0, warmup_steps=max(1, len(scenes) // 2))
    return trace, model, predict(model, scenes, conf_thresh)


class TestToyPipeline:
    def test_fit_predict_small(self):
        scenes = make_synthetic_scenes(count=4, seed=3)
        trace, _, out = fit_predict(scenes, steps=8, conf_thresh=0.1)
        assert len(out) == len(scenes)
        assert len(trace) == 8
        for dets in out:
            for d in dets:
                assert isinstance(d, Detection)
                assert d.score >= 0.1
                assert d.box3d.z > 0.0


class TestImageSize:
    @pytest.mark.parametrize("hw", [(50, 84), (49, 81)])
    def test_sizes_off_the_stride_train_and_detect(self, hw):
        # three stride-2 pad-1 convolutions give ceil(H / 8) x ceil(W / 8)
        scenes = make_synthetic_scenes(count=2, image_hw=hw, seed=3)
        trace, model, out = fit_predict(scenes, steps=2, conf_thresh=0.0)
        assert model.feature_hw == (-(-hw[0] // 8), -(-hw[1] // 8))
        assert len(trace) == 2 and np.isfinite(np.array(trace)).all()
        assert len(out) == 2 and all(len(dets) > 0 for dets in out)

    def test_forward_rejects_another_image_size(self):
        model = ToyDetector((48, 80), seed=0)
        scene = make_synthetic_scenes(count=1, image_hw=(64, 96), seed=0)[0]
        model.fit_anchors([scene])
        with pytest.raises(ValueError, match=r"\(1, 3, 64, 96\).*\(48, 80\)"):
            detect(model, scene)


class TestDetect:
    def test_untrained_model_no_confident_output(self):
        # zero-init heads give uniform class scores of 0.5 < default threshold
        scenes = make_synthetic_scenes(count=1, seed=0)
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        assert detect(model, scenes[0], conf_thresh=0.75) == []

    def test_forward_records_no_tape(self, monkeypatch):
        scenes = make_synthetic_scenes(count=1, seed=0)
        model = ToyDetector((48, 80), seed=0)
        model.fit_anchors(scenes)
        seen = []

        def spy(images, forward=model.forward):
            seen.append(forward(images))
            return seen[-1]

        monkeypatch.setattr(model, "forward", spy)
        detect(model, scenes[0], conf_thresh=0.75)
        tensors = [h for h in seen[0].values() if isinstance(h, Tensor)]
        assert len(tensors) == 6 and not any(t.requires_grad for t in tensors)
        assert seen[0]["best_wh"].shape == (1, 6, 10, 2)

    def test_low_threshold_yields_decoded_boxes(self):
        scenes = make_synthetic_scenes(count=2, seed=1)
        _, model = train_toy(scenes, steps=10, seed=0, warmup_steps=2)
        dets = detect(model, scenes[0], score_floor=0.05, conf_thresh=0.05)
        for d in dets:
            assert 0.05 <= d.score <= 1.0
            assert d.box2d.w > 0.0 and d.box2d.h > 0.0
            assert d.box3d.z > 0.0


class TestBehindCamera:
    def test_translation_column_moves_depth_behind(self, monkeypatch):
        # with KITTI P2's translation column the camera-frame depth is
        # z = z_p - K[2, 3]: every candidate below has z_p = 0.001 > 0 but z < 0
        scenes = make_synthetic_scenes(count=8, seed=7)
        _, model = train_toy(scenes, steps=20, seed=0)
        K = scenes[0].cam.K.copy()
        K[2, 3] = 0.002745884
        scene = dataclasses.replace(scenes[0], cam=dataclasses.replace(scenes[0].cam, K=K))
        forward, calls = model.forward, []

        template = np.arange(len(model.grid)) % model.grid.per_position   # flat = pos * A + t

        def depth_at_one_millimetre(img):
            heads = forward(img)
            heads["depth"].data[0, :, 0] = 0.001 - model.grid.stats3d[template, 0]
            return heads

        def counting_decode(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(model, "forward", depth_at_one_millimetre)
        monkeypatch.setattr(detector, "decode", counting_decode)
        assert detect(model, scene, conf_thresh=0.0) == []
        assert calls and all(0.0 < decode(*c)[1][2] < K[2, 3] for c in calls)


class TestNonFiniteOutputs:
    """A non-finite head output drops its candidates with one warning per
    scene; `detect` still returns for every scene."""

    CONF = 0.05
    A = len(ANCHOR_SIZES) * len(RATIOS)  # templates per cell
    EVERY_CELL = np.s_[0, ::A, 0]  # column 0 of template 0 in every cell of item 0

    @pytest.fixture(scope="class")
    def fitted(self):
        scenes = make_synthetic_scenes(count=3, seed=1)
        _, model, want = fit_predict(scenes, steps=10, conf_thresh=self.CONF)
        assert model.grid.per_position == self.A
        return model, scenes, want

    def poison(self, model, image, head, index, value, monkeypatch):
        forward = model.forward

        def poisoned(img):
            heads = forward(img)
            if img is image:
                getattr(heads[head], "data", heads[head])[index] = value
            return heads

        monkeypatch.setattr(model, "forward", poisoned)

    @pytest.mark.parametrize("head,index,value,count", [
        ("scores", (0, 0), np.nan, "1"),      # one score: anchor 0 (cell (0, 0), template 0)
        ("box2d", EVERY_CELL, np.nan, r"\d+"),   # tx of template 0 in every cell
        ("box3d", EVERY_CELL, 1e4, r"\d+"),      # tw of template 0: exp overflows
        ("box3d", EVERY_CELL, -1e4, r"\d+"),     # tw of template 0: exp underflows to a zero width
        ("box2d", EVERY_CELL, 1e308, r"\d+"),    # tx of template 0: a finite delta, an infinite box
    ])
    def test_other_scenes_unchanged(self, fitted, head, index, value, count, monkeypatch):
        model, scenes, want = fitted
        self.poison(model, scenes[1].image, head, index, value, monkeypatch)
        with pytest.warns(RuntimeWarning, match=rf"dropped {count} candidate") as rec:
            got = predict(model, scenes, self.CONF)
        assert sum("dropped" in str(w.message) for w in rec) == 1
        assert len(got) == len(scenes)
        assert got[0] == want[0] and got[2] == want[2]
        for d in got[1]:
            assert np.isfinite(d.score) and np.isfinite(d.box3d.as_array()).all()
            assert np.isfinite(d.box2d.as_array()).all()

    def test_non_finite_pixel_gives_no_detections(self, fitted):
        # a NaN pixel reaches the center offsets, whose OffsetField check rejects it
        model, scenes, want = fitted
        image = scenes[1].image.data.copy()
        image[0, 0, 20, 30] = np.nan
        poisoned = dataclasses.replace(scenes[1], image=Tensor(image))
        with pytest.warns(RuntimeWarning, match="non-finite center offsets") as rec:
            got = predict(model, [scenes[0], poisoned, scenes[2]], self.CONF)
        assert len(rec) == 1
        assert got[1] == []
        assert got[0] == want[0] and got[2] == want[2]


def per_corner_project_box(box, cam):
    """`project_box` as it was: one `project` call per corner."""
    pts = box3d_corners(box)
    if np.any(pts[:, 2] <= 0.0):
        raise ValueError("box extends behind the camera")
    proj = np.array([project(cam, p) for p in pts])
    return Box2D(proj[:, 0].min(), proj[:, 1].min(), proj[:, 0].max(), proj[:, 1].max())


def per_candidate_detect(model, scene, score_floor, nms_iou, conf_thresh):
    """`detect` as it was: one back-projection solve per candidate, NMS by
    scalar `iou_2d` against every kept box, and a yaw search that projects
    one corner at a time. Gives the detections and the `decode` call count."""
    with no_grad():
        heads = model.forward(scene.image)
        maps = head_maps(model, scene.image, heads["features"])
    H, W = model.feature_hw
    A = model.grid.per_position
    logits = maps["cls"].data[0].reshape(A, model.num_classes, H, W)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    fg = probs[:, 1:, :, :]
    score_map, class_map = fg.max(axis=1), fg.argmax(axis=1) + 1
    t, hh, ww = np.nonzero((score_map >= score_floor) | ~np.isfinite(score_map))
    flat = (hh * W + ww) * A + t
    d2, d3 = per_candidate_deltas(model, heads, maps, 0, flat)
    scores = score_map[t, hh, ww]
    finite = np.isfinite(scores) & np.isfinite(d2).all(axis=1) & np.isfinite(d3).all(axis=1)
    rows = model.grid.rows(flat)
    dets, decodes = [], 0
    for i in np.flatnonzero(finite):
        decodes += 1
        box2d, (xp, yp, zp, w3, h3, l3, alpha) = decode(rows[i], d2[i], d3[i])
        if zp <= 0.0:
            continue
        rhs = zp * np.array([xp, yp, 1.0]) - scene.cam.K[:, 3]
        x, y, z = (float(v) for v in np.linalg.solve(scene.cam.K[:, :3], rhs))
        if z <= 0.0:
            continue
        box3d = Box3D(x, y, z, w3, h3, l3, alpha_to_yaw(alpha, x, z), alpha=alpha)
        dets.append(Detection(int(class_map[t[i], hh[i], ww[i]]), float(scores[i]),
                              Box2D(*box2d), box3d, alpha))
    kept = []
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        d = dets[i]
        if all(k.class_id != d.class_id or iou_2d(k.box2d, d.box2d) <= nms_iou for k in kept):
            kept.append(d)
    kept = [d for d in kept if d.score >= conf_thresh]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(postproc, "project_box", per_corner_project_box)
        yaws = [optimize_rotation(d.box3d.as_array(), d.box2d.as_array(), scene.cam)[0]
                for d in kept]
    return [dataclasses.replace(d, box3d=dataclasses.replace(d.box3d, yaw=yaw))
            for d, yaw in zip(kept, yaws)], decodes


class TestArrayPostProcessing:
    """`detect` with array-wise back-projection, NMS and box projection
    against the per-candidate path it replaced."""

    SETTINGS = dict(score_floor=0.1, nms_iou=0.4, conf_thresh=0.3)

    @pytest.fixture(scope="class")
    def trained(self):
        _, model = train_toy(make_synthetic_scenes(count=8, seed=7), steps=40, seed=0)
        held_out = make_synthetic_scenes(count=6, seed=11, objects_per_scene=3)
        return model, held_out

    def test_decode_once_per_finite_candidate(self, trained, monkeypatch):
        model, scenes = trained
        calls = []

        def counting_decode(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(detector, "decode", counting_decode)
        for scene in scenes:
            calls.clear()
            detect(model, scene, **self.SETTINGS)
            _, want = per_candidate_detect(model, scene, **self.SETTINGS)
            assert want > 0 and len(calls) == want

    def test_matches_per_candidate_path(self, trained):
        model, scenes = trained
        total = 0
        for scene in scenes:
            got = detect(model, scene, **self.SETTINGS)
            want, _ = per_candidate_detect(model, scene, **self.SETTINGS)
            assert [(d.class_id, d.score) for d in got] == [(d.class_id, d.score) for d in want]
            for g, w in zip(got, want):
                assert g.alpha == w.alpha
                np.testing.assert_allclose(g.box2d.as_array(), w.box2d.as_array(),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(g.box3d.as_array(), w.box3d.as_array(),
                                           rtol=0, atol=1e-12)
            total += len(got)
        assert total >= 5

    def test_objects_built_only_for_returned_rows(self, monkeypatch):
        # a 60-step model (the golden detection model) returns a few held-out
        # detections at 0.75; the 40-step one of `trained` returns none
        _, model = train_toy(make_synthetic_scenes(count=8, seed=7), steps=60, seed=0)
        built = []

        class CountingDetection(Detection):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(detector, "Detection", CountingDetection)
        returned = sum(len(detect(model, scene, conf_thresh=0.75))
                       for scene in make_synthetic_scenes(count=6, seed=11, objects_per_scene=3))
        assert returned > 0 and len(built) == returned
