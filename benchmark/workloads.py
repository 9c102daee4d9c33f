"""The four benchmark workloads: train, detect, eval and block.

Each workload has `setup(seed, clock)`, which builds every input from the
seed and returns a state carrying a `fingerprint` of those inputs (long
set-ups call `clock.checkpoint()` between steps to calibrate); `run(state,
session)`, a closed loop that brackets each operation with `session.begin()`
and `session.end(...)` and checks its output; and `report(state, session)`,
the workload's own numbers as (name, value, unit, samples) lines under the
names used in the README.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

from mono3d import align, attention, detector, evaluate, kitti, train
from mono3d.anchors import generate_anchor_grid
from mono3d.geometry import Box3D, CameraIntrinsics, iou_2d, project_box, yaw_to_alpha
from mono3d.ops import ConvSpec
from mono3d.postproc import Detection
from mono3d.tensor import Tensor


def _fingerprint(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def _timing_lines(prefix, ms, p90_min=100):
    """Median, and p90 where at least `p90_min` samples leave ten beyond it."""
    out = [(f"{prefix}.p50", _percentile(ms, 50), "ms", len(ms))]
    if len(ms) >= p90_min:
        out.append((f"{prefix}.p90", _percentile(ms, 90), "ms", len(ms)))
    return out


# -- train -------------------------------------------------------------------

TRAIN_HW = (48, 80)
TRAIN_SCENES = 8
TRAIN_SCHEDULE = 200     # train_toy's default schedule length
LOSS_DROP = 0.8          # the last two steps' mean loss must fall below this share of
LOSS_CHECK_MIN_STEPS = 50  # the first two steps' (the two steps see the two batches)
TRAIN_MODEL_SEED = 0     # train_toy's own default initialisation (README, Findings)


class _StopTraining(Exception):
    """Raised from the step probe when the run's time is up."""


@dataclass
class TrainState:
    scenes: list
    model: object
    fingerprint: str
    loss_runs: list = field(default_factory=list)


class Train:
    """`train_toy` on seeded synthetic scenes, batch 4; one operation is one SGD step.
    The model starts from train_toy's default initialisation, as `detect`'s does.

    train_toy runs its own loop, so the step boundaries are probes on the
    names it calls: `lr_at` opens a step, `SGD.step` closes it, and
    `total_loss` hands over each scene's loss for the finiteness check.
    """

    name = "train"
    setup_repeats = 9

    def setup(self, seed, clock):
        rng = np.random.default_rng(seed)
        scenes = train.make_synthetic_scenes(
            count=TRAIN_SCENES, image_hw=TRAIN_HW, seed=int(rng.integers(2**31)))
        model = train.ToyDetector(TRAIN_HW, seed=TRAIN_MODEL_SEED)
        model.fit_anchors(scenes)
        inputs = [sc.image.data for sc in scenes] + [sc.params3d for sc in scenes]
        weights = [p.data for p in model.params()]
        return TrainState(scenes, model, _fingerprint(*inputs, *weights))

    def run(self, state, session):
        lr_at, sgd_step, total_loss = train.lr_at, train.SGD.step, train.total_loss
        step_losses = []

        def lr_probe(step, config):
            session.begin()
            return lr_at(step, config)

        def loss_probe(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            step_losses.append(out.item())
            return out

        def step_probe(opt, lr):
            if session.tracer_active:
                with session.tracer.span("train.sgd_step"):
                    sgd_step(opt, lr)
            else:
                sgd_step(opt, lr)
            session.end(items=opt.config.batch_size)
            n = opt.config.batch_size
            finite = len(step_losses) == n and all(map(math.isfinite, step_losses))
            session.verdict(finite, f"non-finite or missing scene losses {step_losses}")
            state.loss_runs[-1].append(sum(step_losses) / n)
            step_losses.clear()
            if not session.more():
                raise _StopTraining

        train.lr_at, train.SGD.step, train.total_loss = lr_probe, step_probe, loss_probe
        try:
            model = state.model
            while session.more():
                state.loss_runs.append([])
                try:
                    train.train_toy(state.scenes, steps=TRAIN_SCHEDULE, detector=model)
                except _StopTraining:
                    pass
                model = train.ToyDetector(TRAIN_HW, seed=TRAIN_MODEL_SEED)
        finally:
            train.lr_at, train.SGD.step, train.total_loss = lr_at, sgd_step, total_loss
        for losses in state.loss_runs:
            first, last = sum(losses[:2]) / 2, sum(losses[-2:]) / 2
            if len(losses) >= LOSS_CHECK_MIN_STEPS and not last < LOSS_DROP * first:
                session.verdict(False, f"loss {first:.4f} -> {last:.4f} did not fall "
                                       f"below {LOSS_DROP} of the first steps'")

    def report(self, state, session):
        ms = session.untraced_ms()
        first, last = state.loss_runs[0][0], state.loss_runs[0][-1]
        return _timing_lines("train.step_ms", ms) + [
            ("train.scenes_per_s", session.items_per_s(), "1/s", len(ms)),
            ("train.loss_first", first, "loss", 1),
            ("train.loss_last", last, "loss", 1),
        ]


# -- detect ------------------------------------------------------------------

DETECT_TRAIN_STEPS = 100   # long enough that detections pass the 0.75 confidence filter
DETECT_TRAIN_SEED = 7
DETECT_POOL = 256          # held-out scenes, a quarter each with 1, 2, 3 and 4 objects


@dataclass
class DetectState:
    model: object
    pool: list
    fingerprint: str
    reference: list = None
    funnels: list = None
    set_aside: list = None


def _detect(model, scene):
    """`detect` with the default post-processing; a ValueError it raises is
    returned, so that the reference pass can tell the known defect apart."""
    try:
        return detector.detect(model, scene, score_floor=0.1, nms_iou=0.4, conf_thresh=0.75)
    except ValueError as err:
        return err


def _known_defect(result):
    """Whether `detect` raised the ValueError that `optimize_rotation` lets out of
    its yaw search when a candidate yaw turns a corner of a box near the camera
    behind it (README, Findings). Any other error is not this defect."""
    return (isinstance(result, ValueError) and str(result) == "box extends behind the camera"
            and any(frame.f_code.co_name == "optimize_rotation"
                    for frame, _ in traceback.walk_tb(result.__traceback__)))


def _funnel(counts, n_dets):
    """Per-scene detection funnel from the tracer counts of one `detect` call."""
    candidates = counts["anchors.decode.calls"]
    nms_in = counts["postproc.nms.in"]
    return {
        "candidates": candidates,
        "behind_camera": candidates - nms_in,
        "after_nms": counts["postproc.nms.out"],
        "after_conf": counts["postproc.confidence_filter.out"],
        "refined": counts["postproc.optimize_rotation.refined"],
        "returned": n_dets,
    }


def _funnel_consistent(f):
    return (f["candidates"] >= 0 and 0 <= f["behind_camera"] <= f["candidates"]
            and f["after_nms"] <= f["candidates"] - f["behind_camera"]
            and f["after_conf"] <= f["after_nms"]
            and f["refined"] <= f["after_conf"] == f["returned"])


class Detect:
    """`detect()` per held-out seeded scene with the default post-processing.

    Set-up trains the toy model from a fixed seed, so its cost is part of
    `setup_s`; the held-out scenes (1 to 4 objects each) come from `--seed`.
    """

    name = "detect"
    setup_repeats = 3

    def setup(self, seed, clock):
        train_scenes = train.make_synthetic_scenes(count=TRAIN_SCENES, image_hw=TRAIN_HW,
                                                   seed=DETECT_TRAIN_SEED)
        lr_at = train.lr_at

        def lr_probe(step, config):  # calibrate every few steps of the set-up training
            if step % 10 == 0:
                clock.checkpoint()
            return lr_at(step, config)

        train.lr_at = lr_probe
        try:
            _, model = train.train_toy(train_scenes, steps=DETECT_TRAIN_STEPS, seed=0)
        finally:
            train.lr_at = lr_at
        clock.checkpoint()
        rng = np.random.default_rng(seed)
        objects = rng.permutation(np.repeat(np.arange(1, 5), DETECT_POOL // 4))
        pool = []
        for k in objects:
            pool += train.make_synthetic_scenes(count=1, image_hw=TRAIN_HW,
                                                objects_per_scene=int(k),
                                                seed=int(rng.integers(2**31)))
        weights = [p.data for p in model.params()]
        return DetectState(model, pool, _fingerprint(*weights, *(sc.image.data for sc in pool)))

    def _reference(self, state):
        """Untimed pass: each pool scene's detections and funnel, under a counting tracer."""
        from spans import Tracer

        tracer = Tracer()
        state.reference, state.funnels = [], []
        for j, scene in enumerate(state.pool):
            tracer.counts.clear()
            root = tracer.begin_op(j)
            try:
                dets = _detect(state.model, scene)
            finally:
                tracer.end_op(root)
            state.reference.append(dets)
            state.funnels.append(None if isinstance(dets, ValueError)
                                 else _funnel(tracer.counts, len(dets)))

    @staticmethod
    def _valid(dets, funnel):
        if funnel is None or not _funnel_consistent(funnel):
            return False
        for i, d in enumerate(dets):
            if d.score < 0.75:
                return False
            for e in dets[:i]:
                if e.class_id == d.class_id and iou_2d(e.box2d, d.box2d) > 0.4:
                    return False
        return True

    def run(self, state, session):
        self._reference(state)
        state.set_aside = [j for j, dets in enumerate(state.reference) if _known_defect(dets)]
        timed = [j for j in range(len(state.pool)) if j not in state.set_aside]
        valid = [self._valid(d, f) for d, f in zip(state.reference, state.funnels)]
        i = 0
        while session.more():
            j = timed[i % len(timed)]
            session.begin()
            dets = _detect(state.model, state.pool[j])
            session.end()
            if isinstance(dets, ValueError):
                session.verdict(False, f"detect raised on pool scene {j}: {dets}")
            else:
                session.verdict(valid[j] and dets == state.reference[j],
                                f"detections of pool scene {j} differ from its reference "
                                f"run or fail the funnel checks")
            i += 1

    def report(self, state, session):
        ms = session.untraced_ms()
        funnels = [f for f in state.funnels if f is not None]
        n = len(funnels)
        mean = lambda key: sum(f[key] for f in funnels) / n
        return _timing_lines("detect.scene_ms", ms) + [
            ("detect.scenes_per_s", session.items_per_s(), "1/s", len(ms)),
            ("detect.candidates_per_scene", mean("candidates"), "count", n),
            ("detect.after_nms_per_scene", mean("after_nms"), "count", n),
            ("detect.refined_per_scene", mean("refined"), "count", n),
            ("detect.set_aside_scenes", len(state.set_aside), "count", len(state.pool)),
        ]


# -- eval --------------------------------------------------------------------

EVAL_FRAMES = 100          # frames per operation; every timing is per 100 frames
EVAL_GTS = 8               # and 24 detections: two per ground truth plus 8 false positives
EVAL_BATCHES = 2           # distinct seeded batches, cycled through
EVAL_PLANTED = 2           # planted single-class frames per class
CLASSES = ("Car", "Pedestrian", "Cyclist")
# Objects of each class in the KITTI object training labels (7,481 images,
# Geiger et al., CVPR 2012), as commonly tabulated: each batch's 800 ground
# truths take the three classes in these shares (660 / 103 / 37), shuffled
# over the frames. DontCare regions there number about 1.5 per image, so
# frames alternate 1 and 2.
KITTI_LABEL_COUNTS = {"Car": 28742, "Pedestrian": 4487, "Cyclist": 1627}
DONTCARE_PER_FRAME = (1, 2)
DIMS = {"Car": (1.52, 1.63, 3.88), "Pedestrian": (1.76, 0.66, 0.84),
        "Cyclist": (1.74, 0.60, 1.76)}  # h, w, l
KITTI_P2 = CameraIntrinsics(np.array([
    [721.5377, 0.0, 609.5593, 44.85728],
    [0.0, 721.5377, 172.854, 0.2163791],
    [0.0, 0.0, 1.0, 0.002745884],
]))
TASKS = ("2d", "bev", "3d")


def _batch_classes(rng):
    """The class of each ground truth of one batch, in the KITTI shares."""
    total = EVAL_FRAMES * EVAL_GTS
    shares = np.array([KITTI_LABEL_COUNTS[c] for c in CLASSES], dtype=np.float64)
    counts = np.floor(total * shares / shares.sum()).astype(int)
    rest = total * shares / shares.sum() - counts
    counts[np.argsort(-rest)[:total - counts.sum()]] += 1   # largest remainders
    return [str(c) for c in rng.permutation(np.repeat(CLASSES, counts))]


def _record(cls, box, truncation, occlusion, score=None):
    env = project_box(box, KITTI_P2)
    return kitti.LabelRecord(cls, truncation, occlusion, box.alpha,
                             (env.x1, env.y1, env.x2, env.y2), (box.h, box.w, box.l),
                             (box.x, box.y, box.z), box.yaw, score)


def _object(rng, cls, z_range=(5.0, 55.0)):
    h, w, l = (d * rng.uniform(0.9, 1.1) for d in DIMS[cls])
    z = rng.uniform(*z_range)
    x = z * rng.uniform(-0.6, 0.6)
    yaw = rng.uniform(-math.pi, math.pi)
    return Box3D(x, 1.65 + rng.normal(0.0, 0.05), z, w, h, l, yaw, alpha=yaw_to_alpha(yaw, x, z))


def _apart(box, others):
    r = 0.5 * math.hypot(box.w, box.l)
    return all(math.hypot(box.x - o.x, box.z - o.z) > r + 0.5 * math.hypot(o.w, o.l) + 0.5
               for o in others)


def _perturb(rng, box, scale):
    x = box.x + rng.normal(0.0, scale * (0.2 + box.z / 40.0))
    z = max(box.z + rng.normal(0.0, scale * (0.4 + box.z / 20.0)), box.l + 1.0)
    yaw = box.yaw + rng.normal(0.0, scale * 0.3)
    return Box3D(x, box.y + rng.normal(0.0, 0.05 * scale), z,
                 box.w * math.exp(rng.normal(0.0, 0.05 * scale)),
                 box.h * math.exp(rng.normal(0.0, 0.05 * scale)),
                 box.l * math.exp(rng.normal(0.0, 0.05 * scale)),
                 yaw, alpha=yaw_to_alpha(yaw, x, z))


def _frame(rng, classes, n_dontcare, easy):
    """Ground truths of the given classes, `n_dontcare` DontCare regions, 24 detections.

    The first ground truth of each class in a batch (`easy` holds the classes
    that had one) is placed 6-12 m away, untruncated and unoccluded, so every
    class has ground truths in every difficulty. Two detections per ground
    truth (one close, one poor; one poor detection per frame takes another
    class) and eight false positives in the frame's class mix.
    """
    boxes, gts = [], []
    for cls in classes:
        near = cls not in easy
        box = _object(rng, cls, (6.0, 12.0) if near else (5.0, 55.0))
        while not _apart(box, boxes):
            box = _object(rng, cls, (6.0, 12.0) if near else (5.0, 55.0))
        boxes.append(box)
        truncation = 0.0 if near else float(rng.choice([0.0, 0.0, 0.1, 0.25, 0.45, 0.6]))
        occlusion = 0 if near else int(rng.choice(4, p=[0.5, 0.25, 0.15, 0.1]))
        gts.append(_record(cls, box, truncation, occlusion))
        easy.add(cls)
    swapped = rng.integers(EVAL_GTS)
    dets = []
    for i, (gt, box) in enumerate(zip(gts, boxes)):
        for scale, lo, hi in ((0.5, 0.5, 1.0), (2.0, 0.1, 0.8)):
            cls = gt.type
            if i == swapped and scale > 1.0:
                cls = CLASSES[(CLASSES.index(cls) + 1 + rng.integers(2)) % 3]
            dets.append(_record(cls, _perturb(rng, box, scale), 0.0, 0, rng.uniform(lo, hi)))
    for cls in rng.permutation(classes):
        dets.append(_record(str(cls), _object(rng, str(cls)), 0.0, 0, rng.uniform(0.0, 0.6)))
    for det in dets[-n_dontcare:]:  # the last false positives lie in DontCare regions
        x1, y1, x2, y2 = det.box2d
        gts.append(kitti.LabelRecord("DontCare", -1.0, -1, -10.0,
                                     (x1 - 4, y1 - 4, x2 + 4, y2 + 4), (-1.0, -1.0, -1.0),
                                     (-1000.0, -1000.0, -1000.0), -10.0))
    return gts, dets


def _batch(rng):
    classes, easy = _batch_classes(rng), set()
    return [_frame(rng, classes[i * EVAL_GTS:(i + 1) * EVAL_GTS],
                   DONTCARE_PER_FRAME[i % 2], easy)
            for i in range(EVAL_FRAMES)]


def _planted(rng, cls):
    """A single-class frame whose detections are its ground truths, one easy gt first."""
    boxes, gts = [], []
    while len(gts) < EVAL_GTS:
        box = _object(rng, cls, (6.0, 12.0) if not gts else (5.0, 55.0))
        if not _apart(box, boxes):
            continue
        boxes.append(box)
        occlusion = 0 if not gts else int(rng.integers(4))
        gts.append(_record(cls, box, 0.0 if not gts else 0.3, occlusion))
    scores = rng.permutation(len(gts)) / len(gts) + 0.05
    dets = [Detection(CLASSES.index(cls), float(s), g.as_box2d(), g.as_box3d(), g.alpha)
            for g, s in zip(gts, scores)]
    return dets, gts


def _to_detections(records):
    return [Detection(CLASSES.index(r.type), r.score, r.as_box2d(), r.as_box3d(), r.alpha)
            for r in records]


@dataclass
class EvalState:
    batches: list
    planted: dict
    fingerprint: str
    aps: dict = None


class Eval:
    """KITTI-style frames written as result files, parsed back and scored as
    the full R40 AP table (3 classes x 3 difficulties) for 2d, bev and 3d."""

    name = "eval"
    setup_repeats = 3

    def setup(self, seed, clock):
        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(EVAL_BATCHES):
            batches.append(_batch(rng))
            clock.checkpoint()
        planted = {cls: [_planted(rng, cls) for _ in range(EVAL_PLANTED)] for cls in CLASSES}
        values = [[v for r in gts + dets for v in (*r.box2d, *r.location, r.rotation_y)]
                  for batch in batches for gts, dets in batch]
        return EvalState(batches, planted, _fingerprint(*values))

    def _io(self, batch, workdir):
        """Write labels and results in KITTI layout, parse them back, split by class."""
        frames = []
        for i, (gts, dets) in enumerate(batch):
            gt_path = os.path.join(workdir, "label_2", f"{i:06d}.txt")
            det_path = os.path.join(workdir, "results", f"{i:06d}.txt")
            kitti.write_result_file(gts, gt_path)
            kitti.write_result_file(dets, det_path)
            frames.append((_to_detections(kitti.parse_label_file(det_path)),
                           kitti.parse_label_file(gt_path)))
        by_class = {cls: [([d for d in dets if d.class_id == k], gts) for dets, gts in frames]
                    for k, cls in enumerate(CLASSES)}
        return frames, by_class

    def _planted_ok(self, state):
        for cls in CLASSES:
            for task in TASKS:
                cfg = evaluate.EvalConfig(mode="r40", task=task)
                for d in evaluate.DIFFICULTIES:
                    if evaluate.evaluate_class(state.planted[cls], cls, cfg, difficulty=d) != 1.0:
                        return False
        return True

    def run(self, state, session):
        workdir = os.path.join(session.outdir, f"eval-{os.getpid()}")
        try:
            i = 0
            while session.more():
                # a traced run scores each batch twice in a row, so that its first
                # untraced and first traced operations (the tracing overhead) share one
                k = i // 2 if session.tracer is not None else i
                batch = state.batches[k % len(state.batches)]
                session.begin()
                frames, by_class = self._io(batch, workdir)
                parts = {"io": session.elapsed()}
                tables = {}
                for task in TASKS:
                    cfg = evaluate.EvalConfig(mode="r40", task=task)
                    t0 = session.elapsed()
                    tables[task] = {}
                    for cls in CLASSES:  # evaluate_class gets one class's detections
                        for d in evaluate.DIFFICULTIES:
                            session.checkpoint()
                            tables[task][cls, d] = evaluate.evaluate_class(
                                by_class[cls], cls, cfg, difficulty=d)
                    parts[task] = session.elapsed() - t0
                session.end(items=EVAL_FRAMES, parts=parts)
                parsed = sum(len(d) + len(g) for d, g in frames)
                written = sum(len(d) + len(g) for g, d in batch)
                aps = [v for t in tables.values() for v in t.values()]
                ok = (parsed == written and all(0.0 <= v <= 1.0 for v in aps)
                      and self._planted_ok(state))
                session.verdict(ok, "AP outside [0, 1], lost records, or planted AP != 1")
                state.aps = tables
                i += 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def report(self, state, session):
        samples = session.untraced()
        out = []
        for part, name in (("2d", "2d"), ("bev", "bev"), ("3d", "3d"), ("io", "io")):
            ms = [s.parts[part] * 1e3 for s in samples]
            out.append((f"eval.{name}_ms_per_100f", _percentile(ms, 50), "ms", len(ms)))
        out.append(("eval.frames_per_s", session.items_per_s(), "1/s", len(samples)))
        for task, table in state.aps.items():
            for (cls, d), v in table.items():
                out.append((f"eval.ap.{task}.{cls}.{d}", v, "AP", EVAL_FRAMES))
        return out


# -- block -------------------------------------------------------------------

BLOCK_C, BLOCK_HW, BLOCK_STRIDE = 64, (24, 80), 16   # a KITTI crop at stride 16
BLOCK_LEVELS = [1, 4, 8, 16]                         # the paper pyramid, 337 bins


@dataclass
class BlockState:
    x: Tensor
    conv: ConvSpec
    scores: np.ndarray
    templates: np.ndarray
    anab: object
    upstream: np.ndarray
    fingerprint: str
    reference: list = None


class Block:
    """One 3x3 align_conv with shape-alignment offsets, then anab_forward with
    the paper pyramid, forward and backward, at 64 ch x 24x80."""

    name = "block"
    setup_repeats = 9

    def setup(self, seed, clock):
        rng = np.random.default_rng(seed)
        H, W = BLOCK_HW
        x = Tensor(rng.normal(size=(1, BLOCK_C, H, W)), requires_grad=True)
        conv = ConvSpec.init_random(BLOCK_C, BLOCK_C, (3, 3), 1, 1, rng=rng)
        templates = generate_anchor_grid(BLOCK_HW, BLOCK_STRIDE).templates
        scores = rng.uniform(size=(H, W, len(templates)))
        anab = attention.AnabParams.init_random(
            BLOCK_C, pyramid=attention.PyramidSpec(list(BLOCK_LEVELS)), rng=rng)
        upstream = rng.normal(size=(1, BLOCK_C, H, W))
        weights = [p.data for p in conv.params() + anab.params()]
        return BlockState(x, conv, scores, templates, anab, upstream,
                          _fingerprint(x.data, scores, upstream, *weights))

    def _leaves(self, state):
        return [state.x] + state.conv.params() + state.anab.params()

    def run(self, state, session):
        while session.more():
            for p in self._leaves(state):
                p.zero_grad()
            session.begin()
            best = align.select_best_anchor(state.scores, state.templates)
            field_ = align.shape_align_offsets(best, BLOCK_STRIDE, (3, 3))
            y = align.align_conv(state.x, state.conv, field_)
            session.checkpoint()
            out = attention.anab_forward(y, state.anab)
            fwd = session.elapsed()
            session.checkpoint()
            out.backward(state.upstream)
            session.end(parts={"fwd": fwd})
            result = [out.data] + [p.grad for p in self._leaves(state)]
            finite = all(r is not None and np.all(np.isfinite(r)) for r in result)
            if state.reference is None and finite:
                state.reference = [r.copy() for r in result]
            ok = finite and all(np.array_equal(r, ref)
                                for r, ref in zip(result, state.reference))
            session.verdict(ok, "block output or gradients non-finite or not bit-identical")

    def report(self, state, session):
        samples = session.untraced()
        fwd = [s.parts["fwd"] * 1e3 for s in samples]
        both = [s.seconds * 1e3 for s in samples]
        return [
            ("block.fwd_ms.p50", _percentile(fwd, 50), "ms", len(fwd)),
            ("block.fwdbwd_ms.p50", _percentile(both, 50), "ms", len(both)),
            ("block.bins", state.anab.pyramid.descriptor_count, "count", 1),
        ]


WORKLOADS = {w.name: w for w in (Train(), Detect(), Eval(), Block())}
