import dataclasses

import numpy as np
import pytest

from mono3d.detector import ToyPipeline, detect
from mono3d.postproc import Detection
from mono3d.tensor import Tensor
from mono3d.train import ToyDetector, make_synthetic_scenes, train_toy, TrainConfig


class TestToyPipeline:
    def test_get_params_roundtrip(self):
        pipe = ToyPipeline(steps=10, seed=3, conf_thresh=0.5)
        params = pipe.get_params()
        assert params["steps"] == 10
        assert params["conf_thresh"] == 0.5
        clone = ToyPipeline(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        pipe = ToyPipeline().set_params(steps=7, nms_iou=0.3)
        assert pipe.steps == 7
        assert pipe.nms_iou == 0.3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ToyPipeline().set_params(learning_rate=0.1)

    def test_predict_before_fit(self):
        scenes = make_synthetic_scenes(count=1)
        with pytest.raises(RuntimeError, match="fit"):
            ToyPipeline().predict(scenes)

    def test_empty_scenes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ToyPipeline().fit([])

    def test_mixed_shapes_rejected(self):
        scenes = make_synthetic_scenes(count=1, image_hw=(48, 80)) \
            + make_synthetic_scenes(count=1, image_hw=(48, 96))
        with pytest.raises(ValueError, match="share one image shape"):
            ToyPipeline().fit(scenes)

    def test_fit_predict_small(self):
        scenes = make_synthetic_scenes(count=4, seed=3)
        pipe = ToyPipeline(steps=8, seed=0, batch_size=2, conf_thresh=0.1,
                           refine_rotation=False)
        out = pipe.fit(scenes).predict(scenes)
        assert len(out) == len(scenes)
        assert pipe.trace_ is not None and len(pipe.trace_) == 8
        for dets in out:
            for d in dets:
                assert isinstance(d, Detection)
                assert d.score >= 0.1
                assert d.box3d.z > 0.0


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
        assert seen[0]["best_hw"].shape == (1, 6, 10, 2)

    def test_low_threshold_yields_decoded_boxes(self):
        scenes = make_synthetic_scenes(count=2, seed=1)
        cfg = TrainConfig(total_steps=10, warmup_steps=2)
        _, model = train_toy(scenes, steps=10, train_cfg=cfg, seed=0)
        dets = detect(model, scenes[0], score_floor=0.05, conf_thresh=0.05,
                      refine_rotation=False)
        for d in dets:
            assert 0.05 <= d.score <= 1.0
            assert d.box2d.w > 0.0 and d.box2d.h > 0.0
            assert d.box3d.z > 0.0


class TestNonFiniteOutputs:
    """A non-finite head output drops its candidates with one warning per
    scene; predict still returns for every scene."""

    @pytest.fixture(scope="class")
    def fitted(self):
        scenes = make_synthetic_scenes(count=3, seed=1)
        pipe = ToyPipeline(steps=10, seed=0, batch_size=2, conf_thresh=0.05,
                           refine_rotation=False).fit(scenes)
        return pipe, scenes, pipe.predict(scenes)

    def poison(self, pipe, image, head, index, value, monkeypatch):
        forward = pipe.model_.forward

        def poisoned(img):
            heads = forward(img)
            if img is image:
                heads[head].data[index] = value
            return heads

        monkeypatch.setattr(pipe.model_, "forward", poisoned)

    @pytest.mark.parametrize("head,index,value,count", [
        ("cls", (0, 1, 0, 0), np.nan, "1"),   # one logit: anchor 0, class 1, cell (0, 0)
        ("box2d", (0, 0), np.nan, r"\d+"),    # tx of anchor 0 in every cell
        ("box3d", (0, 0), 1e4, r"\d+"),       # tw of anchor 0: exp overflows
    ])
    def test_other_scenes_unchanged(self, fitted, head, index, value, count, monkeypatch):
        pipe, scenes, want = fitted
        self.poison(pipe, scenes[1].image, head, index, value, monkeypatch)
        with pytest.warns(RuntimeWarning, match=rf"dropped {count} candidate") as rec:
            got = pipe.predict(scenes)
        assert sum("dropped" in str(w.message) for w in rec) == 1
        assert len(got) == len(scenes)
        assert got[0] == want[0] and got[2] == want[2]
        for d in got[1]:
            assert np.isfinite(d.score) and np.isfinite(d.box3d.as_array()).all()

    def test_non_finite_pixel_gives_no_detections(self, fitted):
        # a NaN pixel reaches the center offsets, whose OffsetField check rejects it
        pipe, scenes, want = fitted
        image = scenes[1].image.data.copy()
        image[0, 0, 20, 30] = np.nan
        poisoned = dataclasses.replace(scenes[1], image=Tensor(image))
        with pytest.warns(RuntimeWarning, match="non-finite center offsets") as rec:
            got = pipe.predict([scenes[0], poisoned, scenes[2]])
        assert len(rec) == 1
        assert got[1] == []
        assert got[0] == want[0] and got[2] == want[2]
