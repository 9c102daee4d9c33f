"""Command-line entry point.

Subcommands: demo, eval, gradcheck.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

USAGE_EXIT = 2
FAIL_EXIT = 1


def positive_int(text):
    """argparse type: an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def non_negative_int(text):
    """argparse type: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def positive_float(text):
    """argparse type: a finite number > 0."""
    try:
        x = float(text)
    except ValueError:
        x = float("nan")
    if not 0.0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return x


def probability(text):
    """argparse type: a number in [0, 1]; NaN is not one."""
    try:
        p = float(text)
    except ValueError:
        p = float("nan")
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return p


def class_list(text):
    """argparse type: comma-separated class names, none of them empty, and
    none with whitespace, which a KITTI type field cannot hold."""
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(f"expected comma-separated non-empty class names, "
                                         f"got {text!r}")
    if any(ch.isspace() for ch in text):
        raise argparse.ArgumentTypeError(f"expected class names without whitespace, "
                                         f"got {text!r}")
    return names


def _output_error(path, e):
    """Report an OSError from writing to `path` as a usage error."""
    print(f"error: {path}: {e.strerror or e}", file=sys.stderr)
    return USAGE_EXIT


def _at_line(path, index, fn, *args):
    """fn(*args) for the index-th record `parse_label_file` read from `path`;
    a ValueError it raises is re-raised naming that record's line."""
    try:
        return fn(*args)
    except ValueError as e:
        with open(path, newline="") as f:   # the lines parse_label_file kept
            line_no = [i for i, line in enumerate(f, start=1) if line.strip()][index]
        raise ValueError(f"line {line_no}: {e}") from None


def _train(args):
    """Train the toy detector on the first `args.scenes` of `2 * args.scenes`
    synthetic scenes seeded by `args.seed`, for `args.steps` steps:
    (held-out scenes, trace, model). The scenes are drawn in sequence from
    one generator, so the training scenes are those of an `args.scenes` draw."""
    from .train import make_synthetic_scenes, train_toy

    scenes = make_synthetic_scenes(count=2 * args.scenes, seed=args.seed)
    trace, model = train_toy(scenes[:args.scenes], steps=args.steps, seed=args.seed,
                             warmup_steps=min(args.steps, max(1, args.scenes // 4)))
    return scenes[args.scenes:], trace, model


def _print_ap_table(frames_by_class, task, mode):
    """Print the easy/moderate/hard AP table of `frames_by_class` (class name
    -> (detections, ground truths) per frame); return it as CSV lines."""
    from .evaluate import DIFFICULTIES, EvalConfig, evaluate_class

    cfg = EvalConfig(mode=mode, task=task)
    fmt = lambda v: "n/a" if v != v else format(v, ".4f")
    print(f"task={task} mode={mode}")
    print(f"{'class':<12}{'easy':>10}{'moderate':>10}{'hard':>10}")
    csv_lines = ["class,task,mode,easy,moderate,hard"]
    for cls, frames in frames_by_class.items():
        aps = [evaluate_class(frames, cls, cfg, difficulty=d) for d in DIFFICULTIES]
        print(f"{cls:<12}" + "".join(f"{fmt(v):>10}" for v in aps))
        csv_lines.append(f"{cls},{task},{mode}," + ",".join(fmt(v) for v in aps))
    return csv_lines


def cmd_demo(args):
    from .attention import attention_map, write_pgm
    from .detector import detect
    from .geometry import alpha_to_yaw, backproject
    from .kitti import LabelRecord, detection_to_record, write_result_file
    from .tensor import no_grad
    from .train import write_loss_trace

    out = Path(args.out) if args.out else None
    if out:  # an unwritable --out stops the command before training
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            return _output_error(out, e)
    print(f"training toy pipeline for {args.steps} steps on {args.scenes} scenes ...")
    scenes, trace, model = _train(args)
    print(f"total loss {trace[0][5]:.4f} -> {trace[-1][5]:.4f}")
    if out:  # written before detect, so that a later failure still leaves it
        path = out / "trace.csv"
        try:
            write_loss_trace(trace, path)
        except OSError as e:
            return _output_error(path, e)
        print(f"wrote loss trace to {path}")

    frames = []
    for sc in scenes:
        dets = detect(model, sc, conf_thresh=args.conf)
        gts = []
        centers = backproject(sc.cam, sc.params3d[:, :3]).tolist()
        for box, p, (x, y, z) in zip(sc.boxes2d, sc.params3d, centers):
            gts.append(LabelRecord("Car", 0.0, 0, p[6], tuple(box), (p[4], p[3], p[5]),
                                   (x, y, z), alpha_to_yaw(p[6], x, z)))
        frames.append((dets, gts))
    n_det = sum(len(d) for d, _ in frames)
    print(f"{n_det} detections above confidence {args.conf} on {len(scenes)} held-out scenes")
    if out:
        try:
            for i, (dets, _) in enumerate(frames):
                write_result_file([detection_to_record(d, ["Background", "Car"]) for d in dets],
                                  out / f"{i:06d}.txt")
        except OSError as e:
            return _output_error(e.filename or out, e)
        print(f"wrote result files to {out}")
    for task in ("2d", "bev", "3d"):
        _print_ap_table({"Car": frames}, task, args.mode)
    if out:
        # the map the trained attention block pools with on held-out scene 0
        path = out / "attention.pgm"
        try:
            with no_grad():
                feats = model.forward(scenes[0].image)["features"]
                amap = attention_map(feats, model.anab.attention).data[0, 0]
            write_pgm(amap, path)
        except OSError as e:
            return _output_error(path, e)
        except ValueError as e:  # a non-finite map, or non-finite center offsets
            print(f"error: {path}: {e}", file=sys.stderr)
            return FAIL_EXIT
        print(f"wrote {amap.shape[1]}x{amap.shape[0]} attention map to {path}")
    return 0


def cmd_eval(args):
    from .kitti import parse_label_file
    from .postproc import Detection

    gt_dir, det_dir = Path(args.gt), Path(args.det)
    for d in (gt_dir, det_dir):
        if not d.is_dir():
            print(f"error: not a directory: {d}", file=sys.stderr)
            return USAGE_EXIT
    class_names = args.classes

    def detection(rec):
        score = 1.0 if rec.score is None else rec.score
        box3d = None if args.task == "2d" else rec.as_box3d()  # 2d reads no 3D field
        return Detection(class_names.index(rec.type), score, rec.as_box2d(), box3d, rec.alpha)

    frames = []
    for gt_file in sorted(gt_dir.glob("*.txt")):
        det_file = det_dir / gt_file.name
        path = gt_file
        try:
            gts = parse_label_file(gt_file)
            for k, gt in enumerate(gts):  # a flat 3D box is this file's error, as in a result file
                if args.task != "2d" and gt.type in class_names:
                    _at_line(gt_file, k, gt.as_box3d)
            dets = []
            if det_file.exists():
                path = det_file
                for k, rec in enumerate(parse_label_file(det_file)):
                    if rec.type in class_names:
                        dets.append(_at_line(det_file, k, detection, rec))
        except (OSError, ValueError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return USAGE_EXIT
        frames.append((dets, gts))
    if not frames:
        print(f"error: no ground-truth files in {gt_dir}", file=sys.stderr)
        return USAGE_EXIT

    by_class = {cls: [([det for det in dets if det.class_id == class_names.index(cls)], gts)
                      for dets, gts in frames] for cls in class_names}
    csv_lines = _print_ap_table(by_class, args.task, args.mode)
    print()
    print("\n".join(csv_lines))
    return 0


def cmd_gradcheck(args):
    from .gradcheck import run_gradient_suite

    reports = run_gradient_suite(tol=args.tol, step=args.step, seed=args.seed)
    ok = True
    for r in reports:
        print(r)
        ok = ok and r.passed
    return 0 if ok else FAIL_EXIT


def build_parser():
    parser = argparse.ArgumentParser(prog="mono3d",
                                     description="Monocular 3D detection blocks: demo, eval, oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="train the toy pipeline, score held-out scenes")
    p.add_argument("--steps", type=positive_int, default=200)
    p.add_argument("--scenes", type=positive_int, default=8)
    p.add_argument("--seed", type=non_negative_int, default=7)
    p.add_argument("--conf", type=probability, default=0.75)
    p.add_argument("--mode", choices=("r11", "r40"), default="r40")
    p.add_argument("--out", help="directory for trace.csv, result files and attention.pgm")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("eval", help="AP evaluation of result files against labels")
    p.add_argument("--gt", required=True, help="ground-truth label directory")
    p.add_argument("--det", required=True, help="detection result directory")
    p.add_argument("--task", choices=("2d", "bev", "3d"), default="3d")
    p.add_argument("--mode", choices=("r11", "r40"), default="r40")
    p.add_argument("--classes", type=class_list, default="Car,Pedestrian,Cyclist")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference oracle suite")
    p.add_argument("--tol", type=positive_float, default=1e-4)
    p.add_argument("--step", type=positive_float, default=1e-5)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: stdout goes to devnull so that the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
