"""In-memory span recorder for the traced benchmark run.

A `Tracer` wraps the package's public functions where their callers look them
up (every `mono3d.*` module global bound to the function, plus a few class
attributes), and wraps the backward closure on the tensors they return. Each
wrapped call records one span: name, start, end, parent span and operation
id. Wrappers are installed only around traced operations, so an untraced
operation runs the package's own functions.

Self time is a span's duration minus the durations of its direct children;
spans are strictly nested because everything runs on one thread.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT = "op"  # the span that encloses one whole benchmark operation


def _conv_shape_counts(x, spec, out):
    """Computed multiply-accumulates and bytes touched (f64) of one convolution."""
    kh, kw = spec.kernel
    b, co, oh, ow = out.shape
    macs = b * co * oh * ow * spec.in_channels * kh * kw
    nbytes = 8 * (x.data.size + spec.weight.data.size + spec.bias.data.size + out.data.size)
    return macs, nbytes


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._patches = self._build_patches()

    # -- spans ---------------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        """Install the wrappers and open the root span of operation `op_id`."""
        self._op = op_id
        self._install()
        return self._open(self._nid(ROOT))

    def end_op(self, root):
        self._close(root)
        self._uninstall()
        self._op = -1

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn, after=None, backward=False):
        """`fn` with a span around each call; `after(args, out)` adds counts and
        `backward` wraps the returned tensor's backward closure in `<name>.bwd`."""
        nid = self._nid(name)
        bwd_nid = self._nid(name + ".bwd") if backward else None

        def timed(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, out)
            if bwd_nid is not None and out._backward is not None:
                out._backward = self._timed_closure(bwd_nid, out._backward)
            return out

        return timed

    def _timed_closure(self, nid, closure):
        def timed(*args, **kwargs):
            i = self._open(nid)
            try:
                return closure(*args, **kwargs)
            finally:
                self._close(i)
        return timed

    # -- patch table ---------------------------------------------------------

    def _build_patches(self):
        """(owner, attribute, replacement, original) for every wrapped binding."""
        import mono3d.align as align
        import mono3d.attention as attention
        import mono3d.anchors as anchors
        import mono3d.detector as detector
        import mono3d.evaluate as evaluate
        import mono3d.geometry as geometry
        import mono3d.kitti as kitti
        import mono3d.losses as losses
        import mono3d.ops as ops
        import mono3d.postproc as postproc
        import mono3d.tensor as tensor
        import mono3d.train as train

        c = self.counts

        def conv_counts(args, out):
            macs, nbytes = _conv_shape_counts(args[0], args[1], out)
            c["ops.conv2d.macs"] += macs
            c["ops.conv2d.bytes"] += nbytes

        def align_counts(args, out):
            c["align.align_conv.macs"] += _conv_shape_counts(args[0], args[1], out)[0]

        def pool_counts(args, out):
            c["attention.pa2_pool.bins"] += out.shape[0]

        def decode_counts(args, out):
            c["anchors.decode.calls"] += 1

        def nms_counts(args, out):
            c["postproc.nms.in"] += len(args[0])
            c["postproc.nms.out"] += len(out)

        def conf_counts(args, out):
            c["postproc.confidence_filter.out"] += len(out)

        def refine_counts(args, out):
            c["postproc.optimize_rotation.refined"] += bool(out[1])

        def clip_counts(args, out):
            c["geometry.clip_polygon.overlap"] += len(out) >= 3

        def write_counts(args, out):
            c["kitti.write_result_file.lines"] += len(args[0])
            c["kitti.write_result_file.bytes"] += os.path.getsize(args[1])

        def parse_counts(args, out):
            c["kitti.parse_label_file.lines"] += len(out)
            c["kitti.parse_label_file.bytes"] += os.path.getsize(args[0])

        functions = [
            # (defining module, function, span name, after, wrap backward)
            (ops, "conv2d", "ops.conv2d", conv_counts, True),
            (ops, "softmax_lastdim", "ops.softmax_lastdim", None, True),
            (align, "align_conv", "align.align_conv", align_counts, True),
            (align, "shape_align_offsets", "align.offsets", None, False),
            (align, "center_align_offsets", "align.offsets", None, False),
            (align, "select_best_anchor", "align.offsets", None, False),
            (attention, "pa2_pool", "attention.pa2_pool", pool_counts, True),
            (attention, "anab_forward", "attention.anab_forward", None, False),
            (losses, "loss_cls", "losses.loss_cls", None, False),
            (losses, "loss_2d", "losses.loss_2d", None, False),
            (losses, "loss_3d", "losses.loss_3d", None, False),
            (losses, "mine_hard", "losses.mine_hard", None, False),
            (anchors, "encode", "anchors.encode", None, False),
            (anchors, "decode", "anchors.decode", decode_counts, False),
            (postproc, "nms", "postproc.nms", nms_counts, False),
            (postproc, "confidence_filter", "postproc.confidence_filter", conf_counts, False),
            (postproc, "optimize_rotation", "postproc.optimize_rotation", refine_counts, False),
            (geometry, "project_box", "geometry.project_box", None, False),
            (geometry, "iou_2d", "geometry.iou_2d", None, False),
            (geometry, "iou_bev", "geometry.iou_bev", None, False),
            (geometry, "iou_3d", "geometry.iou_3d", None, False),
            (geometry, "clip_polygon", "geometry.clip_polygon", clip_counts, False),
            (evaluate, "match_detections", "evaluate.match_detections", None, False),
            (evaluate, "average_precision", "evaluate.average_precision", None, False),
            (evaluate, "evaluate_class", "evaluate.evaluate_class", None, False),
            (kitti, "write_result_file", "kitti.write_result_file", write_counts, False),
            (kitti, "parse_label_file", "kitti.parse_label_file", parse_counts, False),
            (detector, "detect", "detector.detect", None, False),
        ]
        patches = []
        package = [m for n, m in sys.modules.items() if n == "mono3d" or n.startswith("mono3d.")]
        for module, fname, span, after, backward in functions:
            original = getattr(module, fname)
            wrapped = self.wrap(span, original, after, backward)
            for m in package:
                for attr, value in vars(m).items():
                    if value is original:
                        patches.append((m, attr, wrapped, original))

        methods = [
            (train.ToyDetector, "forward", "train.forward"),
            (train.ToyDetector, "match_anchors", "train.match_anchors"),
            (train.ToyDetector, "scene_loss", "train.scene_loss"),
            (tensor.Tensor, "backward", "tensor.backward"),
        ]
        for cls, attr, span in methods:
            original = cls.__dict__[attr]
            patches.append((cls, attr, self.wrap(span, original), original))

        from_op = tensor.Tensor.__dict__["from_op"]

        def counting_from_op(data, parents, backward):
            out = from_op.__func__(data, parents, backward)
            if out._backward is not None:
                c["tensor.nodes"] += 1
            return out

        patches.append((tensor.Tensor, "from_op", staticmethod(counting_from_op), from_op))
        return patches

    def _install(self):
        for owner, attr, wrapped, _ in self._patches:
            setattr(owner, attr, wrapped)

    def _uninstall(self):
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def table(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        ids = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, name in enumerate(self.names)}

    def calls_under(self, name, parent_names):
        """Number of `name` spans whose direct parent is one of `parent_names`."""
        if name not in self._name_ids:
            return 0
        ids = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        mine = np.flatnonzero(ids == self._name_ids[name])
        pids = parent[mine]
        pids = pids[pids >= 0]
        wanted = [self._name_ids[p] for p in parent_names if p in self._name_ids]
        return int(np.isin(ids[pids], wanted).sum())

    def write_csv(self, path):
        """Every span as `op,name,start_s,end_s,parent` with its row index as id."""
        with open(path, "w") as f:
            f.write("id,op,name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i},{self.op[i]},{names[self.name_id[i]]},"
                        f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


# -- per-layer metrics ---------------------------------------------------------

def _ms(seconds):
    return seconds * 1e3


def layer_metrics(tracer, traced_ms, untraced_ms):
    """Every per-layer metric, per traced operation, as {name: (value, unit)}.

    Times are span totals (`*_ms`, `fwd_ms`, `bwd_ms`) or self times
    (`self_ms`); counts are exact; MACs and bytes are computed from shapes.
    Layers a workload never calls read 0.
    """
    n = max(len(traced_ms), 1)
    table = tracer.table()
    c = tracer.counts
    calls = lambda s: table.get(s, (0, 0.0, 0.0))[0] / n
    total = lambda s: _ms(table.get(s, (0, 0.0, 0.0))[1]) / n
    self_ = lambda s: _ms(table.get(s, (0, 0.0, 0.0))[2]) / n
    count = lambda k: c[k] / n
    under = lambda s, parents: tracer.calls_under(s, parents) / n
    ious = ("geometry.iou_2d", "geometry.iou_bev", "geometry.iou_3d")
    clips = table.get("geometry.clip_polygon", (0, 0.0, 0.0))[0]
    root_total, root_self = table.get(ROOT, (0, 0.0, 0.0))[1:]
    traced_p50 = float(np.median(traced_ms)) if traced_ms else float("nan")
    untraced_p50 = float(np.median(untraced_ms)) if untraced_ms else float("nan")

    m = {}
    for layer in ("ops.conv2d", "align.align_conv"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.fwd_ms"] = (total(layer), "ms")
        m[f"{layer}.bwd_ms"] = (total(layer + ".bwd"), "ms")
        m[f"{layer}.macs"] = (count(layer + ".macs"), "MAC-computed")
    m["ops.conv2d.bytes"] = (count("ops.conv2d.bytes"), "B-computed")
    m["align.offsets_ms"] = (total("align.offsets"), "ms")
    m["attention.pa2_pool.fwd_ms"] = (total("attention.pa2_pool"), "ms")
    m["attention.pa2_pool.bwd_ms"] = (total("attention.pa2_pool.bwd"), "ms")
    m["attention.pa2_pool.bins"] = (count("attention.pa2_pool.bins"), "count")
    m["attention.anab_forward.fwd_ms"] = (total("attention.anab_forward"), "ms")
    m["attention.anab_forward.self_ms"] = (self_("attention.anab_forward"), "ms")
    m["ops.softmax_lastdim.ms"] = (total("ops.softmax_lastdim")
                                   + total("ops.softmax_lastdim.bwd"), "ms")
    m["tensor.nodes"] = (count("tensor.nodes"), "count")
    m["tensor.backward_ms"] = (total("tensor.backward"), "ms")
    m["tensor.backward_self_ms"] = (self_("tensor.backward"), "ms")
    for loss in ("loss_cls", "loss_2d", "loss_3d", "mine_hard"):
        m[f"losses.{loss}_ms"] = (total(f"losses.{loss}"), "ms")
    for codec in ("encode", "decode"):
        m[f"anchors.{codec}.calls"] = (calls(f"anchors.{codec}"), "count")
        m[f"anchors.{codec}.ms"] = (total(f"anchors.{codec}"), "ms")
    for step in ("match_anchors", "sgd_step", "forward"):
        m[f"train.{step}_ms"] = (total(f"train.{step}"), "ms")
    m["postproc.nms.ms"] = (total("postproc.nms"), "ms")
    m["postproc.nms.iou_calls"] = (under("geometry.iou_2d", ["postproc.nms"]), "count")
    m["postproc.optimize_rotation.calls"] = (calls("postproc.optimize_rotation"), "count")
    m["postproc.optimize_rotation.ms"] = (total("postproc.optimize_rotation"), "ms")
    m["postproc.optimize_rotation.objective_evals"] = (
        under("geometry.project_box", ["postproc.optimize_rotation"]), "count")
    m["geometry.project_box.calls"] = (calls("geometry.project_box"), "count")
    candidates = calls("anchors.decode")
    m["detector.candidates"] = (candidates, "count")
    m["detector.behind_camera"] = (candidates - count("postproc.nms.in"), "count")
    m["detector.after_nms"] = (count("postproc.nms.out"), "count")
    m["detector.after_conf"] = (count("postproc.confidence_filter.out"), "count")
    m["detector.refined"] = (count("postproc.optimize_rotation.refined"), "count")
    for s in ious + ("geometry.clip_polygon",):
        m[f"{s}.calls"] = (calls(s), "count")
        m[f"{s}.ms"] = (total(s), "ms")
    m["geometry.iou_overlap_frac"] = (
        c["geometry.clip_polygon.overlap"] / clips if clips else 0.0, "ratio")
    m["evaluate.match_ms"] = (total("evaluate.match_detections"), "ms")
    m["evaluate.pairs"] = (sum(under(s, ["evaluate.match_detections"]) for s in ious), "count")
    m["evaluate.average_precision_ms"] = (total("evaluate.average_precision"), "ms")
    for io in ("write_result_file", "parse_label_file"):
        m[f"kitti.{io}.ms"] = (total(f"kitti.{io}"), "ms")
        m[f"kitti.{io}.bytes"] = (count(f"kitti.{io}.bytes"), "B")
        m[f"kitti.{io}.lines"] = (count(f"kitti.{io}.lines"), "count")
    m["trace.op_ms.p50"] = (traced_p50, "ms")
    m["trace.untraced_op_ms.p50"] = (untraced_p50, "ms")
    m["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    m["trace.coverage"] = (1.0 - root_self / root_total if root_total else 0.0, "ratio")
    m["trace.spans"] = (len(tracer.start) / n, "count")
    return m
