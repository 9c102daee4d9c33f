"""Bad input at every public boundary: one valid call per public callable,
then each of its array arguments poisoned in turn.

The poisons of an argument are NaN, +inf and -inf in each column (an entry
of the last axis, in the last row), a wrong width (one more column on the
last axis) and a wrong ndim (the leading axis dropped; a 1-D argument gains
one). Integer arrays get the shape poisons only. A poisoned call must raise a
ValueError whose message names the argument, except where a table below says
otherwise, with its reason:

- PASS_THROUGH: the argument takes NaN or +-inf on purpose, and the case
  checks what the call does with them instead: it carries them to its
  output, it returns, it warns (`detect`), or it reports (`grad_check`);
- SHAPE_FREE: another width or ndim is not an error for that argument.

The sweep runs with warnings as errors, so no checked case may leak a
RuntimeWarning. A pass-through case runs with numpy's floating-point
warnings off: an inf minus an inf on its way is NaN, and passing it on is
the point. `tests/test_public_surface.py` checks that every public
callable has an entry here, in CASES or in NO_ARRAYS.
"""

import os
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from mono3d.align import align_conv, center_align_offsets, select_best_anchor, shape_align_offsets
from mono3d.anchors import AnchorGrid, decode, encode, fit_anchor_3d_stats, generate_anchor_grid
from mono3d.attention import (AnabParams, PyramidSpec, anab_forward, attention_map, pa2_pool,
                              write_pgm)
from mono3d.detector import detect
from mono3d.evaluate import (average_precision, depth_error_report, match_detections,
                             passes_difficulty)
from mono3d.geometry import (Box2D, Box3D, CameraIntrinsics, backproject, box3d_corners,
                             clip_polygon, iou_2d_pairs, iou_3d_pairs, iou_bev_pairs, project,
                             project_box, wrap_angle)
from mono3d.gradcheck import grad_check
from mono3d.kitti import LabelRecord
from mono3d.losses import loss_2d, loss_3d, loss_cls, mine_hard, per_sample_ce, smooth_l1, total_loss
from mono3d.ops import ConvSpec, conv2d, softmax_lastdim
from mono3d.postproc import Detection, confidence_filter, nms, optimize_rotation
from mono3d.tensor import Tensor
from mono3d.train import Scene, ToyDetector

pytestmark = pytest.mark.filterwarnings("error")

RNG = np.random.default_rng(0)
CAM = CameraIntrinsics.simple(60.0, 8.0, 8.0)
X = Tensor(RNG.normal(size=(1, 2, 3, 4)))                     # a (B, C, H, W) feature map
SPEC = ConvSpec.init_random(2, 2, (3, 3), 1, 1, rng=RNG)
SPEC_1X1 = ConvSpec.init_random(2, 1, (1, 1), rng=RNG)
ANAB = AnabParams.init_random(2, pyramid=PyramidSpec([1, 2]), rng=RNG)
BOXES = np.array([[2.0, 3.0, 9.0, 12.0], [4.0, 1.0, 14.0, 7.0], [0.0, 0.0, 5.0, 5.0]])
ANCHORS = generate_anchor_grid((2, 2), 8, [16.0]).rows(np.array([0, 4, 7]))
ANCHORS[:, 4:] = [10.0, 1.6, 1.5, 4.0, 0.1]                   # the templates' 3D stats
PARAMS3D = np.array([[5.5, 7.5, 12.0, 1.7, 1.5, 4.1, 0.2], [9.0, 4.0, 20.0, 1.6, 1.4, 3.9, -0.3],
                     [2.5, 2.5, 8.0, 0.6, 1.7, 0.8, 1.0]])
ROW = np.array([1.0, 1.5, 20.0, 1.7, 1.5, 4.2, 0.2])          # a [x, y, z, w, h, l, yaw] row
ROWS_A = np.array([ROW, ROW + [0.5, 0.0, 1.0, 0.0, 0.1, 0.0, 0.3]])
ROWS_B = ROWS_A + [0.3, 0.1, -0.4, 0.1, 0.0, 0.2, -0.2]
SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])

MODEL = ToyDetector((16, 16), seed=0)
fit_anchor_3d_stats(MODEL.grid, [[0.0, 0.0, 16.0, 16.0]], [[10.0, 1.6, 1.5, 4.0, 0.0]])
DETS = [Detection(1, 0.9, Box2D(*BOXES[0]), Box3D(*ROW), 0.0)]
GTS = [LabelRecord("Car", 0.0, 0, 0.0, tuple(BOXES[0]), (1.5, 1.7, 4.2), (1.0, 1.5, 20.0), 0.2)]


def case(call, **arrays):
    return call, arrays


# public callable -> (a call taking the array arguments by keyword, their valid values)
CASES = {
    "align.shape_align_offsets": case(
        lambda best_anchor_wh: shape_align_offsets(best_anchor_wh, 8),
        best_anchor_wh=RNG.uniform(8.0, 40.0, size=(2, 3, 2))),
    "align.select_best_anchor": case(
        select_best_anchor, cls_scores=RNG.uniform(size=(2, 3, 4)),
        anchor_sizes_2d=RNG.uniform(8.0, 40.0, size=(4, 2))),
    "align.center_align_offsets": case(
        lambda residuals: center_align_offsets(residuals, 8),
        residuals=Tensor(RNG.normal(size=(2, 3, 2)))),
    "align.align_conv": case(
        lambda x, off: align_conv(x, SPEC, off),
        x=X, off=Tensor(RNG.normal(size=(3, 4, 9, 2)) * 0.4)),
    "anchors.AnchorGrid": case(
        lambda templates: AnchorGrid((2, 2), 8, templates), templates=np.array(
            [[16.0, 16.0], [12.0, 20.0], [24.0, 24.0]])),
    "anchors.generate_anchor_grid": case(
        lambda sizes: generate_anchor_grid((2, 2), 8, sizes), sizes=np.array([16.0, 24.0])),
    "anchors.fit_anchor_3d_stats": case(
        lambda boxes2d, params: fit_anchor_3d_stats(generate_anchor_grid((2, 2), 8, [16.0]),
                                                    boxes2d, params),
        boxes2d=BOXES, params=PARAMS3D[:, 2:]),
    "anchors.encode": case(encode, anchors=ANCHORS, boxes2d=BOXES, params3d=PARAMS3D),
    "anchors.decode": case(decode, anchor=ANCHORS[0], d2=np.array([0.1, -0.2, 0.3, 0.0]),
                           d3=np.array([0.1, 0.2, 1.0, 0.0, 0.1, -0.1, 0.2])),
    "attention.AnabParams": case(
        lambda query, key, value, out_weight, out_bias: AnabParams(
            query, key, value, out_weight, out_bias, SPEC_1X1),
        query=ANAB.query, key=ANAB.key, value=ANAB.value, out_weight=ANAB.out_weight,
        out_bias=ANAB.out_bias),
    "attention.attention_map": case(lambda x: attention_map(x, SPEC_1X1), x=X),
    "attention.pa2_pool": case(
        lambda features, attn: pa2_pool(features, attn, PyramidSpec([1, 2])),
        features=X, attn=Tensor(RNG.uniform(0.1, 0.9, size=(1, 1, 3, 4)))),
    "attention.anab_forward": case(lambda x: anab_forward(x, ANAB), x=X),
    "attention.write_pgm": case(lambda gray: write_pgm(gray, os.devnull),
                                gray=RNG.uniform(size=(3, 4))),
    "detector.detect": case(
        lambda image: detect(MODEL, Scene(image, np.zeros((0, 4)), np.zeros((0, 7)), CAM)),
        image=Tensor(RNG.normal(size=(1, 3, 16, 16)))),
    "evaluate.passes_difficulty": case(
        lambda height_px, occlusion, truncation: passes_difficulty(
            height_px, occlusion, truncation, "moderate"),
        height_px=np.array([30.0, 50.0]), occlusion=np.array([0, 2]),
        truncation=np.array([0.1, 0.2])),
    "evaluate.match_detections": case(
        lambda scores, iou, iou_ignored, iou_dontcare: match_detections(
            scores, iou, 0.5, iou_ignored, iou_dontcare),
        scores=np.array([[0.9, 0.5, 0.7]]), iou=RNG.uniform(size=(1, 3, 2)),
        iou_ignored=RNG.uniform(size=(1, 3, 1)), iou_dontcare=RNG.uniform(size=(1, 3, 1))),
    "evaluate.average_precision": case(
        lambda scores, tp: average_precision(scores, tp, 2),
        scores=np.array([0.9, 0.5, 0.7]), tp=np.array([True, False, True])),
    "evaluate.depth_error_report": case(
        lambda bin_edges: depth_error_report(DETS, GTS, bin_edges),
        bin_edges=np.array([0.0, 10.0, 30.0])),
    "geometry.CameraIntrinsics": case(CameraIntrinsics, K=CAM.K.copy()),
    "geometry.project": case(lambda points: project(CAM, points),
                             points=np.array([[1.0, 1.0, 10.0], [0.0, -2.0, 20.0]])),
    "geometry.backproject": case(lambda pixels: backproject(CAM, pixels),
                                 pixels=np.array([[10.0, 9.0, 10.0], [8.0, 2.0, 20.0]])),
    "geometry.wrap_angle": case(wrap_angle, a=np.array([0.5, 4.0, -7.0])),
    "geometry.box3d_corners": case(box3d_corners, box=ROW),
    "geometry.project_box": case(lambda box: project_box(box, CAM), box=ROW),
    "geometry.iou_2d_pairs": case(iou_2d_pairs, a=BOXES, b=BOXES[::-1] + 1.0),
    "geometry.iou_bev_pairs": case(iou_bev_pairs, a=ROWS_A, b=ROWS_B),
    "geometry.iou_3d_pairs": case(iou_3d_pairs, a=ROWS_A, b=ROWS_B),
    "geometry.clip_polygon": case(clip_polygon, subject=SQUARE, clip=SQUARE + 0.5),
    "gradcheck.grad_check": case(lambda x: grad_check(lambda t: t * 2.0, [x]),
                                 x=Tensor(RNG.normal(size=(2, 3)), requires_grad=True)),
    "losses.loss_cls": case(loss_cls, logits=Tensor(RNG.normal(size=(3, 2))),
                            targets=np.array([0, 1, 1]), segments=np.array([1, 2])),
    "losses.loss_2d": case(lambda pred, gt: loss_2d(pred, gt, [1, 2]),
                           pred=Tensor(BOXES + 0.5), gt=BOXES),
    "losses.loss_3d": case(lambda pred_deltas, target_deltas: loss_3d(
        pred_deltas, target_deltas, [1, 2]),
        pred_deltas=Tensor(PARAMS3D * 0.1), target_deltas=PARAMS3D * 0.2),
    "losses.smooth_l1": case(smooth_l1, residual=Tensor(RNG.normal(size=(2, 3)))),
    "losses.mine_hard": case(
        lambda losses, segments, protected: mine_hard(losses, 0.5, segments, protected),
        losses=np.array([0.3, 0.9, 0.1, 0.5]), segments=np.array([2, 2]),
        protected=np.array([1])),
    "losses.total_loss": case(total_loss, l_cls=Tensor([0.5, 0.2]), l_2d=Tensor([1.0, 0.1]),
                              l_3d=Tensor([0.3, 0.4])),
    "losses.per_sample_ce": case(per_sample_ce, logits_data=RNG.normal(size=(3, 2)),
                                 targets=np.array([0, 1, 1])),
    "ops.ConvSpec": case(lambda weight, bias: ConvSpec(2, 2, (3, 3), 1, 1, weight, bias),
                         weight=SPEC.weight, bias=SPEC.bias),
    "ops.conv2d": case(lambda x: conv2d(x, SPEC), x=X),
    "ops.softmax_lastdim": case(softmax_lastdim, x=Tensor(RNG.normal(size=(2, 3)))),
    "postproc.nms": case(lambda boxes, scores, classes: nms(boxes, scores, classes, 0.5),
                         boxes=BOXES, scores=np.array([0.9, 0.8, 0.7]), classes=np.array([1, 1, 2])),
    "postproc.confidence_filter": case(lambda scores: confidence_filter(scores, 0.5),
                                       scores=np.array([0.9, 0.2, 0.7])),
    "postproc.optimize_rotation": case(
        lambda box, target: optimize_rotation(box, target, CAM),
        box=ROW, target=project_box(ROW, CAM).as_array() + 0.5),
    "tensor.Tensor": case(Tensor, data=RNG.normal(size=(2, 3))),
    "train.Scene": case(lambda image, boxes2d, params3d: Scene(image, boxes2d, params3d, CAM),
                        image=Tensor(RNG.normal(size=(1, 3, 16, 16))), boxes2d=BOXES,
                        params3d=PARAMS3D),
}

# public callables that take no array argument, with what they take instead
NO_ARRAYS = {
    "align.NonFiniteOffsetsError": "an exception type",
    "anchors.default_sizes": "no argument",
    "attention.PyramidSpec": "a list of integer levels, which it checks",
    "evaluate.EvalConfig": "two mode strings, which it checks",
    "evaluate.evaluate_class": "frames of Detections and LabelRecords; the IoU kernels check "
                               "the rows built from them",
    "geometry.Box2D": "four scalars; an order test that NaN fails rejects a NaN corner",
    "geometry.Box3D": "scalars; a size test that NaN fails rejects a NaN size, and a "
                      "finiteness test names a non-finite center, yaw or alpha",
    "geometry.alpha_to_yaw": "scalars; a depth that is not positive, NaN included, is an error",
    "geometry.yaw_to_alpha": "scalars; a depth that is not positive, NaN included, is an error",
    "geometry.iou_2d": "two Box2D",
    "geometry.iou_bev": "two Box3D, whose rows iou_bev_pairs checks",
    "geometry.iou_3d": "two Box3D, whose rows iou_3d_pairs checks",
    "gradcheck.GradReport": "a report's fields",
    "gradcheck.run_gradient_suite": "scalar settings",
    "kitti.LabelRecord": "a record's fields, which parse_label_line checks",
    "kitti.parse_label_line": "a text line; it names the line and field it rejects",
    "kitti.parse_label_file": "a path",
    "kitti.format_label": "a LabelRecord",
    "kitti.write_result_file": "LabelRecords and a path",
    "kitti.detection_to_record": "a Detection and class names",
    "postproc.Detection": "scalars, two boxes and a score it checks",
    "tensor.no_grad": "no argument",
    "train.TrainConfig": "integer settings, which it checks",
    "train.lr_at": "a step and a TrainConfig",
    "train.SGD": "a list of the model's Tensors, which its steps update in place",
    "train.make_synthetic_scenes": "scalar settings",
    "train.ToyDetector": "an image size and a seed",
    "train.train_toy": "a list of Scenes, which Scene checks",
    "train.write_loss_trace": "trace rows and a path",
}



def expand(rows):
    """{(callable, argument, kind): the rest of the row} from rows of
    (callable, arguments, kinds, ...): one key per argument and kind."""
    return {(name, arg, kind): rest[0] if len(rest) == 1 else tuple(rest)
            for name, args, kinds, *rest in rows for arg in args for kind in kinds}


TAPE = "a tape op: the value reaches the output, as in any float arithmetic"
# (callable, argument, "nan" or "inf") -> (what the call does, why)
PASS_THROUGH = expand([
    ("align.select_best_anchor", ("cls_scores", "anchor_sizes_2d"), ("nan", "inf"), "returns",
     "on the forward's path, which must not crash detect: it takes the model's own scores and "
     "its grid's templates, which AnchorGrid checks, and selects rows without arithmetic"),
    ("align.center_align_offsets", ("residuals",), ("nan", "inf"), "carries",
     TAPE + "; align_conv rejects the non-finite offsets"),
    ("align.align_conv", ("x",), ("nan", "inf"), "carries", TAPE),
    ("anchors.decode", ("anchor", "d2", "d3"), ("nan", "inf"), "returns",
     "called once per candidate: detect checks the decoded rows as one array (a -inf size "
     "delta decodes to a zero size, which detect drops)"),
    ("attention.AnabParams", ("query", "key", "value", "out_weight", "out_bias"), ("nan", "inf"),
     "carries", "a parameter container: it holds the tape's leaves as they are"),
    ("attention.attention_map", ("x",), ("nan",), "carries", TAPE),
    ("attention.attention_map", ("x",), ("inf",), "returns",
     TAPE + ", which the sigmoid maps to 1 or 0"),
    ("attention.pa2_pool", ("features", "attn"), ("nan", "inf"), "carries", TAPE),
    ("attention.anab_forward", ("x",), ("nan", "inf"), "carries", TAPE),
    ("detector.detect", ("image",), ("nan", "inf"), "warns",
     "detect warns and drops: a scene with non-finite center offsets gives no detections"),
    ("evaluate.passes_difficulty", ("height_px", "truncation"), ("nan", "inf"), "returns",
     "an elementwise mask: a NaN fails every bound, +-inf is compared as a number"),
    ("evaluate.match_detections", ("scores", "iou", "iou_ignored", "iou_dontcare"),
     ("nan", "inf"), "returns",
     "NaN marks a padded slot, and a NaN IoU never matches; +-inf is ranked and compared"),
    ("evaluate.average_precision", ("scores",), ("inf",), "returns",
     "+-inf scores rank first and last; a NaN score has no rank and is an error"),
    ("evaluate.depth_error_report", ("bin_edges",), ("nan", "inf"), "returns",
     "the edges are only compared: a bin with a NaN edge holds nothing and is absent"),
    ("geometry.wrap_angle", ("a",), ("nan", "inf"), "carries",
     "elementwise arithmetic on an array of any shape"),
    ("gradcheck.grad_check", ("x",), ("nan", "inf"), "reports",
     "a non-finite forward is reported as a failing GradReport"),
    ("losses.loss_cls", ("logits",), ("nan",), "carries", TAPE),
    ("losses.loss_cls", ("logits",), ("inf",), "returns", TAPE + ": a -inf logit is a zero "
     "probability, +inf the whole of it"),
    ("losses.loss_2d", ("pred", "gt"), ("nan", "inf"), "returns",
     TAPE + " (the IoU of an infinite box is 0, which IOU_FLOOR clamps to a finite loss)"),
    ("losses.loss_3d", ("pred_deltas", "target_deltas"), ("nan", "inf"), "carries", TAPE),
    ("losses.smooth_l1", ("residual",), ("nan", "inf"), "carries", TAPE),
    ("losses.total_loss", ("l_cls", "l_2d", "l_3d"), ("nan", "inf"), "carries", TAPE),
    ("losses.per_sample_ce", ("logits_data",), ("nan", "inf"), "returns",
     "the tape-free twin of loss_cls's rows: it passes on what loss_cls carries, for "
     "mine_hard to rank"),
    ("losses.mine_hard", ("losses",), ("nan", "inf"), "returns",
     "ranks the detached training losses as numpy sorts them; the loss on the tape carries "
     "the value itself"),
    ("ops.ConvSpec", ("weight", "bias"), ("nan", "inf"), "carries",
     "a parameter container: it holds the tape's leaves as they are"),
    ("ops.conv2d", ("x",), ("nan", "inf"), "carries", TAPE),
    ("ops.softmax_lastdim", ("x",), ("nan",), "carries", TAPE),
    ("ops.softmax_lastdim", ("x",), ("inf",), "returns", TAPE + ": a -inf entry is a zero "
     "probability"),
    ("postproc.nms", ("scores",), ("nan", "inf"), "returns",
     "scores only order the greedy pass, as numpy sorts them: +inf first, NaN last"),
    ("postproc.confidence_filter", ("scores",), ("nan", "inf"), "returns",
     "the threshold comparison is the filter: NaN and -inf fail it, +inf passes"),
    ("tensor.Tensor", ("data",), ("nan", "inf"), "carries", TAPE),
    ("train.Scene", ("image",), ("nan", "inf"), "returns",
     "an image is data: detect warns on what its forward cannot align and drops it"),
])

# (callable, argument, "width" or "ndim") -> why that shape is not an error
SHAPE_FREE = expand([
    ("align.select_best_anchor", ("cls_scores",), ("ndim",),
     "any leading axes: one score vector per position"),
    ("anchors.generate_anchor_grid", ("sizes",), ("width", "ndim"),
     "any number of sizes, read flat"),
    ("attention.AnabParams", ("query", "key", "value", "out_weight", "out_bias"),
     ("width", "ndim"), "a parameter container: anab_forward checks the shapes against its input"),
    ("attention.attention_map", ("x",), ("width",), "any image width"),
    ("attention.anab_forward", ("x",), ("width",), "any image width"),
    ("attention.write_pgm", ("gray",), ("width",), "any image width"),
    ("ops.conv2d", ("x",), ("width",), "any image width"),
    ("ops.softmax_lastdim", ("x",), ("width", "ndim"), "any shape: a softmax over the last axis"),
    ("evaluate.passes_difficulty", ("height_px", "occlusion", "truncation"), ("width", "ndim"),
     "elementwise on arrays that broadcast"),
    ("evaluate.match_detections", ("iou", "iou_ignored", "iou_dontcare"), ("width",),
     "any number of ground truths"),
    ("evaluate.depth_error_report", ("bin_edges",), ("width", "ndim"), "any sequence of edges"),
    ("geometry.wrap_angle", ("a",), ("width", "ndim"), "elementwise on any shape"),
    ("geometry.iou_2d_pairs", ("a", "b"), ("ndim",), "any leading axes: the operands broadcast"),
    ("gradcheck.grad_check", ("x",), ("width", "ndim"), "any shape: f defines it"),
    ("losses.loss_cls", ("logits",), ("width",), "any number of classes"),
    ("losses.per_sample_ce", ("logits_data",), ("width",), "any number of classes"),
    ("losses.smooth_l1", ("residual",), ("width", "ndim"), "elementwise on any shape"),
    ("losses.total_loss", ("l_cls", "l_2d", "l_3d"), ("width", "ndim"),
     "a weighted sum of terms that broadcast"),
    ("losses.mine_hard", ("losses",), ("width", "ndim"),
     "read flat: its size is the row count that segments must partition, and that check "
     "names segments"),
    ("losses.mine_hard", ("protected",), ("width", "ndim"), "any array of row indices"),
    ("postproc.confidence_filter", ("scores",), ("width", "ndim"),
     "any shape: the flat indices of the scores that pass"),
    ("tensor.Tensor", ("data",), ("width", "ndim"), "any shape"),
    ("train.Scene", ("image",), ("width", "ndim"),
     "Scene stores the image; the model's forward checks its size"),
])

POISONS = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


def _data(value):
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _like(value, data):
    return Tensor(data, requires_grad=value.requires_grad) if isinstance(value, Tensor) else data


def poisoned(value):
    """{label: poisoned copy} of one argument: "<poison>@<column>", "width", "ndim"."""
    d, out = _data(value), {}
    if np.issubdtype(d.dtype, np.floating):
        for col in range(d.shape[-1]):
            for label, p in POISONS.items():
                bad = d.copy()
                bad[(-1,) * (d.ndim - 1) + (col,)] = p
                out[f"{label}@{col}"] = _like(value, bad)
    out["width"] = _like(value, np.concatenate([d, d[..., -1:]], axis=-1))
    out["ndim"] = _like(value, d[0] if d.ndim > 1 else d[None])
    return out


def _kind(label):
    return label if label in ("width", "ndim") else "nan" if label.startswith("nan") else "inf"


SWEEP = [(name, arg, label) for name, (_, arrays) in CASES.items() for arg, value in arrays.items()
         for label in poisoned(value) if (name, arg, _kind(label)) not in SHAPE_FREE]


def _finite(out):
    """Whether every number reachable in a call's output is finite."""
    if isinstance(out, Tensor):
        out = out.data
    if isinstance(out, (list, tuple)):
        return all(_finite(v) for v in out)
    if isinstance(out, dict):
        return all(_finite(v) for v in out.values())
    if is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in fields(out))
    if isinstance(out, (float, np.ndarray)):
        return bool(np.isfinite(out).all())
    return True


@pytest.mark.parametrize("name", CASES)
def test_valid_call(name):
    call, arrays = CASES[name]
    call(**arrays)


@pytest.mark.parametrize("name, arg, label", SWEEP)
def test_poisoned_argument(name, arg, label):
    call, arrays = CASES[name]
    kwargs = {**arrays, arg: poisoned(arrays[arg])[label]}
    expect, _ = PASS_THROUGH.get((name, arg, _kind(label)), (None, None))
    if expect == "warns":
        with np.errstate(all="ignore"), pytest.warns(RuntimeWarning, match="^detect: "):
            call(**kwargs)
    elif expect is not None:
        with np.errstate(all="ignore"):
            out = call(**kwargs)
        if expect == "carries":
            assert not _finite(out)
        elif expect == "reports":
            assert not out.passed
    else:
        with pytest.raises(ValueError) as err:
            call(**kwargs)
        assert re.search(rf"\b{re.escape(arg)}\b", str(err.value)), str(err.value)


def test_tables_name_real_arguments():
    for table in (PASS_THROUGH, SHAPE_FREE):
        for name, arg, _ in table:
            assert arg in CASES[name][1], (name, arg)
    assert not set(CASES) & set(NO_ARRAYS)
