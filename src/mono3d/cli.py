"""Command-line entry point.

Subcommands: demo, eval, gradcheck, viz-attention, train-toy.
A plain-text key=value config file can pre-set any long flag; explicit flags
win over the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

USAGE_EXIT = 2
FAIL_EXIT = 1


def load_config(path):
    values = {}
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def positive_int(text):
    """argparse type: an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def probability(text):
    """argparse type: a number in [0, 1]; NaN is not one."""
    try:
        p = float(text)
    except ValueError:
        p = float("nan")
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return p


def _apply_config(args, parser, argv):
    """Parse argv again with the --config file's values as the defaults.

    A key must name a long option of the chosen subcommand other than
    --config; any other key (`fn`, `command`, `config`) is a usage error.
    argparse itself then resolves every flag in argv, unique abbreviations
    included, so each flag given in argv wins over the file.
    """
    if not getattr(args, "config", None):
        return args
    try:
        overrides = load_config(args.config)
    except (OSError, ValueError) as e:
        parser.error(str(e))
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    keys = {a.dest for a in command._actions
            if a.dest not in ("help", "config") and any(o.startswith("--") for o in a.option_strings)}
    for key in overrides:
        if key not in keys:
            command.error(f"{args.config}: unknown config key {key!r}")
    return build_parser(overrides).parse_args(argv)


def _output_error(path, e):
    """Report an OSError from writing to `path` as a usage error."""
    print(f"error: {path}: {e.strerror or e}", file=sys.stderr)
    return USAGE_EXIT


def _unwritable(path, directory):
    """Report before training the error that writing `path` would give, and
    return the usage exit code (None if writable): make the directory, or
    open the file for appending and remove it again if that created it."""
    path = Path(path)
    try:
        if directory:
            path.mkdir(parents=True, exist_ok=True)
        else:
            existed = path.exists()
            open(path, "a").close()
            if not existed:
                path.unlink()
    except OSError as e:
        return _output_error(path, e)


def _train(args):
    """Train the toy detector on `args.scenes` synthetic scenes seeded by
    `args.seed`, for `args.steps` steps: (scenes, trace, model)."""
    from .train import TrainConfig, make_synthetic_scenes, train_toy

    scenes = make_synthetic_scenes(count=args.scenes, seed=args.seed)
    cfg = TrainConfig(total_steps=args.steps, warmup_steps=max(1, args.scenes // 4))
    trace, model = train_toy(scenes, steps=args.steps, train_cfg=cfg, seed=args.seed)
    return scenes, trace, model


def cmd_demo(args):
    from .detector import detect
    from .evaluate import EvalConfig, evaluate_class
    from .geometry import alpha_to_yaw, backproject
    from .kitti import LabelRecord, detection_to_record, write_result_file

    if args.out and _unwritable(args.out, directory=True):
        return USAGE_EXIT
    print(f"training toy pipeline for {args.steps} steps on {args.scenes} scenes ...")
    scenes, trace, model = _train(args)
    print(f"total loss {trace[0][5]:.4f} -> {trace[-1][5]:.4f}")

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
    print(f"{n_det} detections above confidence {args.conf}")
    if args.out:
        out = Path(args.out)
        try:
            for i, (dets, _) in enumerate(frames):
                write_result_file([detection_to_record(d, ["Background", "Car"]) for d in dets],
                                  out / f"{i:06d}.txt")
        except OSError as e:
            return _output_error(out, e)
        print(f"wrote result files to {out}")
    for task in ("2d", "bev", "3d"):
        cfg = EvalConfig(mode=args.mode, task=task)
        ap = evaluate_class(frames, "Car", cfg, difficulty="hard")
        print(f"AP_{task}|{args.mode} (Car, hard, IoU>={cfg.threshold_for('Car')}): "
              f"{'n/a' if ap != ap else format(ap, '.4f')}")
    return 0


def cmd_eval(args):
    from .evaluate import DIFFICULTIES, EvalConfig, evaluate_class
    from .kitti import parse_label_file
    from .postproc import Detection

    gt_dir, det_dir = Path(args.gt), Path(args.det)
    for d in (gt_dir, det_dir):
        if not d.is_dir():
            print(f"error: not a directory: {d}", file=sys.stderr)
            return USAGE_EXIT
    class_names = args.classes.split(",")
    frames = []
    for gt_file in sorted(gt_dir.glob("*.txt")):
        det_file = det_dir / gt_file.name
        path = gt_file
        try:
            gts = parse_label_file(gt_file)
            for gt in gts:  # a degenerate box is this file's error, as in a result file
                gt.as_box2d()
                if args.task != "2d" and gt.type in class_names:
                    gt.as_box3d()
            dets = []
            if det_file.exists():
                path = det_file
                for rec in parse_label_file(det_file):
                    if rec.type not in class_names:
                        continue
                    score = 1.0 if rec.score is None else rec.score
                    dets.append(Detection(class_names.index(rec.type), score,
                                          rec.as_box2d(), rec.as_box3d(), rec.alpha))
        except (OSError, ValueError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return USAGE_EXIT
        frames.append((dets, gts))
    if not frames:
        print(f"error: no ground-truth files in {gt_dir}", file=sys.stderr)
        return USAGE_EXIT

    cfg = EvalConfig(mode=args.mode, task=args.task)
    print(f"task={args.task} mode={args.mode}")
    print(f"{'class':<12}{'easy':>10}{'moderate':>10}{'hard':>10}")
    csv_lines = ["class,task,mode,easy,moderate,hard"]
    for cls in class_names:
        k = class_names.index(cls)
        own = [([det for det in dets if det.class_id == k], gts) for dets, gts in frames]
        aps = [evaluate_class(own, cls, cfg, difficulty=d) for d in DIFFICULTIES]
        fmt = lambda v: "n/a" if v != v else format(v, ".4f")
        print(f"{cls:<12}" + "".join(f"{fmt(v):>10}" for v in aps))
        csv_lines.append(f"{cls},{args.task},{args.mode}," + ",".join(fmt(v) for v in aps))
    print()
    print("\n".join(csv_lines))
    return 0


def cmd_gradcheck(args):
    from .suite import run_gradient_suite

    reports = run_gradient_suite(tol=args.tol, step=args.step, seed=args.seed)
    ok = True
    for r in reports:
        print(r)
        ok = ok and r.passed
    return 0 if ok else FAIL_EXIT


def cmd_viz_attention(args):
    from .attention import attention_map, write_pgm
    from .ops import ConvSpec
    from .tensor import load_tensor, no_grad
    from .train import ToyDetector, make_synthetic_scenes

    if args.tensor:
        try:
            feats = load_tensor(args.tensor)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE_EXIT
        # arbitrary channel count: a random attention conv of matching width
        attn_conv = ConvSpec.init_random(feats.shape[1], 1, (1, 1),
                                         rng=np.random.default_rng(args.seed))
    else:  # the map the model's attention block pools with
        scenes = make_synthetic_scenes(count=1, seed=args.seed)
        model = ToyDetector(scenes[0].image.shape[2:], seed=args.seed)
        with no_grad():
            feats = model.forward(scenes[0].image)["features"]
        attn_conv = model.anab.attention
    with no_grad():
        amap = attention_map(feats, attn_conv).data[0, 0]
    try:
        write_pgm(amap, args.out)
    except OSError as e:
        return _output_error(args.out, e)
    print(f"wrote {amap.shape[1]}x{amap.shape[0]} attention map to {args.out}")
    return 0


def cmd_train_toy(args):
    from .train import write_loss_trace

    if args.trace and _unwritable(args.trace, directory=False):
        return USAGE_EXIT
    _, trace, _ = _train(args)
    print(f"step 0: total {trace[0][5]:.4f}   step {args.steps - 1}: total {trace[-1][5]:.4f}")
    if args.trace:
        try:
            write_loss_trace(trace, args.trace)
        except OSError as e:
            return _output_error(args.trace, e)
        print(f"wrote loss trace to {args.trace}")
    return 0


def build_parser(defaults=None):
    """The mono3d parser; `defaults` (key -> string) override every subcommand's defaults."""
    parser = argparse.ArgumentParser(prog="mono3d",
                                     description="Monocular 3D detection blocks: demo, eval, oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="train the toy pipeline and report metrics")
    p.add_argument("--steps", type=positive_int, default=200)
    p.add_argument("--scenes", type=positive_int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--conf", type=probability, default=0.75)
    p.add_argument("--mode", choices=("r11", "r40"), default="r40")
    p.add_argument("--out", help="directory for result files")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("eval", help="AP evaluation of result files against labels")
    p.add_argument("--gt", required=True, help="ground-truth label directory")
    p.add_argument("--det", required=True, help="detection result directory")
    p.add_argument("--task", choices=("2d", "bev", "3d"), default="3d")
    p.add_argument("--mode", choices=("r11", "r40"), default="r40")
    p.add_argument("--classes", default="Car,Pedestrian,Cyclist")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference oracle suite")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("viz-attention", help="export an attention map as PGM")
    p.add_argument("--out", required=True)
    p.add_argument("--tensor", help="M3TN tensor file to use as features")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_viz_attention)

    p = sub.add_parser("train-toy", help="run the toy trainer, write the loss trace")
    p.add_argument("--steps", type=positive_int, default=200)
    p.add_argument("--scenes", type=positive_int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", help="CSV output path")
    p.set_defaults(fn=cmd_train_toy)
    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file")
        p.set_defaults(**(defaults or {}))
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args = _apply_config(args, parser, argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
