import argparse
import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mono3d import gradcheck
from mono3d.cli import FAIL_EXIT, USAGE_EXIT, main, probability
from mono3d.gradcheck import GradReport
from mono3d.kitti import write_result_file, LabelRecord
from mono3d.train import LR_TARGET

CAR = "Car 0.00 0 -1.58 100.00 100.00 160.00 150.00 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
# KITTI's 2D-only result line: CAR's box and score, the 3D fields at their sentinels
CAR_2D_ONLY = "Car -1 -1 -10 100.00 100.00 160.00 150.00 -1 -1 -1 -1000 -1000 -1000 -10 0.9"


def write_frames(gt_dir, det_dir):
    gt_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)
    for k in range(3):
        (gt_dir / f"{k:06d}.txt").write_text(CAR + "\n")
        (det_dir / f"{k:06d}.txt").write_text(CAR + " 0.900000\n")


def no_training(*args, **kwargs):
    """Stand-in for `train_toy` where an unwritable output must stop the
    command before any training."""
    raise AssertionError("trained before checking the output path")


class TestEval:
    def test_identical_dirs_perfect_ap(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        code = main(["eval", "--gt", str(gt), "--det", str(det),
                     "--task", "2d", "--mode", "r40", "--classes", "Car"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Car,2d,r40,1.0000,1.0000,1.0000" in out

    def test_other_class_detections_not_scored(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        ped = "Pedestrian 0.00 0 0.00 300.00 100.00 330.00 180.00 1.70 0.60 0.80 3.00 1.70 20.00 0.00"
        with open(det / "000000.txt", "a") as f:
            f.write(ped + " 0.990000\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det),
                     "--task", "2d", "--mode", "r40", "--classes", "Car,Pedestrian"])
        assert code == 0
        assert "Car,2d,r40,1.0000,1.0000,1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("classes", ["", "Car,", "Car,,Car"])
    def test_empty_class_name_is_a_usage_error(self, tmp_path, capsys, classes):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(gt), "--det", str(det), "--classes", classes])
        assert exc.value.code == USAGE_EXIT
        assert (f"argument --classes: expected comma-separated non-empty class names, "
                f"got {classes!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("classes", ["Car, Pedestrian", " Car", "Car\t", "Race car", " "])
    def test_class_name_with_whitespace_is_a_usage_error(self, tmp_path, capsys, classes):
        # a KITTI type field is one whitespace-free token: such a name never matches
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(gt), "--det", str(det), "--classes", classes])
        assert exc.value.code == USAGE_EXIT
        assert (f"argument --classes: expected class names without whitespace, "
                f"got {classes!r}") in capsys.readouterr().err

    def test_missing_dir_usage_exit(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "nope"), "--det", str(tmp_path)])
        assert code == USAGE_EXIT
        assert "not a directory" in capsys.readouterr().err

    def test_empty_gt_dir(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        gt.mkdir(), det.mkdir()
        code = main(["eval", "--gt", str(gt), "--det", str(det)])
        assert code == USAGE_EXIT

    @pytest.mark.parametrize("line,message", [
        (CAR.replace("100.00", "abc", 1) + " 0.9", "line 2, field 5: not numeric: 'abc'"),
        (CAR + " 1.5", "line 2: score must be in [0, 1], got 1.5"),
        (CAR.replace("100.00", "170.00", 1) + " 0.9", "line 2: degenerate 2D box (170.0, 100.0, 160.0"),
    ], ids=["non_numeric", "score_above_one", "x2_below_x1"])
    def test_bad_result_line_is_a_usage_error(self, tmp_path, capsys, line, message):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = det / "000001.txt"
        bad.write_text(CAR + " 0.9\n" + line + "\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"])
        assert code == USAGE_EXIT
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_range_error_names_its_line_past_blank_lines(self, tmp_path, capsys):
        # the line number counts the blank lines the parser skips
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = det / "000001.txt"
        bad.write_text("\n" + CAR + " 0.9\n\n" + CAR + " 1.5\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == USAGE_EXIT
        assert f"error: {bad}: line 4: score must be in [0, 1], got 1.5" in capsys.readouterr().err

    def test_bad_ground_truth_box_is_a_usage_error(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = gt / "000002.txt"
        bad.write_text(CAR + "\n" + CAR.replace("100.00", "170.00", 1) + "\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det), "--task", "2d", "--classes", "Car"])
        assert code == USAGE_EXIT
        assert f"error: {bad}: line 2: degenerate 2D box (170.0, 100.0, 160.0" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["gt", "det"])
    def test_reversed_box_of_an_unscored_class_is_a_usage_error(self, tmp_path, capsys, side):
        # a reversed box fails parsing, like a non-numeric field, whatever the
        # class; the score range is checked only for scored classes
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        car, van = (CAR, CAR.replace("Car", "Van")) if side == "gt" else (
            CAR + " 0.9", CAR.replace("Car", "Van") + " 1.5")
        bad = tmp_path / side / "000001.txt"
        bad.write_text(car + "\n" + van + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == 0
        capsys.readouterr()
        bad.write_text(car + "\n" + van.replace("100.00", "170.00", 1) + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == USAGE_EXIT
        assert f"error: {bad}: line 2: degenerate 2D box (170.0, 100.0, 160.0" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["bev", "3d"])
    def test_identical_dirs_perfect_ap_in_3d(self, tmp_path, capsys, task):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        code = main(["eval", "--gt", str(gt), "--det", str(det),
                     "--task", task, "--mode", "r40", "--classes", "Car"])
        assert code == 0
        assert f"Car,{task},r40,1.0000,1.0000,1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("dims", ["0.00 1.67 3.64", "1.65 -1.00 3.64", "1.65 1.67 0.00"])
    def test_flat_ground_truth_is_a_usage_error_in_3d(self, tmp_path, capsys, dims):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = gt / "000002.txt"
        bad.write_text(CAR.replace("1.65 1.67 3.64", dims) + "\n")
        for task in ("bev", "3d"):
            code = main(["eval", "--gt", str(gt), "--det", str(det), "--task", task,
                         "--classes", "Car"])
            assert code == USAGE_EXIT
            assert f"error: {bad}: line 1: non-positive 3D dimensions" in capsys.readouterr().err
        # the 2d task reads no dimensions, and other classes are not scored
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--task", "2d",
                     "--classes", "Car"]) == 0
        bad.write_text(CAR.replace("Car", "Van").replace("1.65 1.67 3.64", dims) + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == 0

    @pytest.mark.parametrize("where", ["gt", "det"])
    def test_flat_box_dimensions_print_in_file_order(self, tmp_path, capsys, where):
        # the file's (h, w, l), not Box3D's (w, h, l): (1.6, 0.0, 3.9), not (0.0, 1.6, 3.9)
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = tmp_path / where / "000002.txt"
        bad.write_text(bad.read_text().replace("1.65 1.67 3.64", "1.60 0.00 3.90"))
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--task", "3d",
                     "--classes", "Car"]) == USAGE_EXIT
        assert (f"error: {bad}: line 1: non-positive 3D dimensions (1.6, 0.0, 3.9)"
                in capsys.readouterr().err)

    def test_dontcare_sentinel_dimensions_accepted_in_3d(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        dontcare = "DontCare -1 -1 -10 400.00 100.00 450.00 150.00 -1 -1 -1 -1000 -1000 -1000 -10"
        with open(gt / "000001.txt", "a") as f:
            f.write(dontcare + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == 0
        assert "Car,3d,r40,1.0000,1.0000,1.0000" in capsys.readouterr().out


    def test_2d_only_result_line_scored_in_2d(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        (det / "000001.txt").write_text(CAR_2D_ONLY + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--task", "2d",
                     "--classes", "Car"]) == 0
        assert "Car,2d,r40,1.0000,1.0000,1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("task", ["bev", "3d"])
    def test_2d_only_result_line_is_a_usage_error_in_3d(self, tmp_path, capsys, task):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = det / "000001.txt"
        bad.write_text(CAR_2D_ONLY + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--task", task,
                     "--classes", "Car"]) == USAGE_EXIT
        assert (f"error: {bad}: line 1: non-positive 3D dimensions (-1.0, -1.0, -1.0)"
                in capsys.readouterr().err)

    def test_reader_closing_early_exits_quietly(self, tmp_path):
        # as in `mono3d eval ... | head -3`, but the pipe is closed before the
        # command starts, so its first write already fails with EPIPE
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "mono3d.cli", "eval", "--gt", str(gt),
                                 "--det", str(det)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == FAIL_EXIT
        assert err.decode() == ""


class TestGradcheck:
    """The command prints one line per report and exits by their verdicts;
    the suite itself runs once, in the acceptance tests."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def stub_suite(tol, step, seed):
            calls.append((tol, step, seed))
            return [GradReport(name, err, tol, err < tol) for name, err in (("op_a", 1e-9), ("op_b", 3e-8))]

        monkeypatch.setattr(gradcheck, "run_gradient_suite", stub_suite)
        return calls

    def test_passes(self, capsys, calls):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert calls == [(1e-4, 1e-5, 0)]
        assert [line.split(":")[0] for line in out.splitlines()] == ["PASS op_a", "PASS op_b"]

    def test_tight_tolerance_fails(self, capsys, calls):
        assert main(["gradcheck", "--tol", "1e-8", "--step", "1e-6", "--seed", "3"]) == FAIL_EXIT
        out = capsys.readouterr().out
        assert calls == [(1e-8, 1e-6, 3)]
        assert [line.split(":")[0] for line in out.splitlines()] == ["PASS op_a", "FAIL op_b"]


class TestArgumentValues:
    @pytest.mark.parametrize("argv", [
        ["demo", "--steps", "1.5"],
        ["demo", "--steps", "two"],
        ["demo", "--scenes", ""],
        ["demo", "--conf", "2"],
        ["demo", "--scenes", "0"],
        ["demo", "--steps", "0"],
        ["demo", "--scenes", "-1"],
        ["demo", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"],
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--tol", "-1"],
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT
        assert f"argument {argv[1]}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
    def test_conf_outside_unit_interval_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--conf", value])
        assert exc.value.code == USAGE_EXIT
        err = capsys.readouterr().err
        assert f"argument --conf: expected a probability in [0, 1], got {value!r}" in err

    def test_probability_keeps_both_ends(self):
        assert [probability(v) for v in ("0", "1", "0.75")] == [0.0, 1.0, 0.75]

    def test_removed_subcommand_is_a_usage_error(self, capsys):
        for command in ("bench-anab", "viz-attention", "train-toy"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == USAGE_EXIT
            assert f"invalid choice: '{command}'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:  # the removed config-file layer
            main(["demo", "--config", "f"])
        assert exc.value.code == USAGE_EXIT
        assert "unrecognized arguments: --config f" in capsys.readouterr().err


@pytest.fixture(scope="class")
def demo_run(tmp_path_factory):
    """One `demo --steps 3 --scenes 2 --seed 5 --out DIR` run, recording what
    it trained on and scored: a namespace of out, train_scenes, trace, model
    and held_out (the scenes `detect` saw, in order)."""
    import mono3d.detector as detector
    import mono3d.train as train

    run = argparse.Namespace(out=tmp_path_factory.mktemp("demo") / "results", held_out=[])
    train_toy, detect = train.train_toy, detector.detect

    def recording_train(scenes, **kwargs):
        run.train_scenes = scenes
        run.trace, run.model = train_toy(scenes, **kwargs)
        return run.trace, run.model

    def recording_detect(model, scene, **kwargs):
        run.held_out.append(scene)
        return detect(model, scene, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "train_toy", recording_train)
        mp.setattr(detector, "detect", recording_detect)
        assert main(["demo", "--steps", "3", "--scenes", "2", "--seed", "5",
                     "--out", str(run.out)]) == 0
    return run


def model_map_pgm(model, scene, path):
    """The PGM bytes of `model`'s attention map on `scene`, as `write_pgm` draws it."""
    from mono3d.attention import attention_map, write_pgm
    from mono3d.tensor import no_grad

    with no_grad():
        feats = model.forward(scene.image)["features"]
        write_pgm(attention_map(feats, model.anab.attention).data[0, 0], path)
    return path.read_bytes()


class TestDemo:
    def test_scores_held_out_scenes(self, demo_run):
        from mono3d.train import make_synthetic_scenes

        assert len(demo_run.train_scenes) == len(demo_run.held_out) == 2
        # the training scenes are bitwise those of a `--scenes 2` draw
        for got, want in zip(demo_run.train_scenes, make_synthetic_scenes(count=2, seed=5)):
            np.testing.assert_array_equal(got.image.data, want.image.data)
        for held in demo_run.held_out:
            for seen in demo_run.train_scenes:
                assert not np.array_equal(held.image.data, seen.image.data)

    def test_writes_the_loss_trace_of_its_training(self, demo_run, tmp_path):
        from mono3d.train import write_loss_trace

        write_loss_trace(demo_run.trace, tmp_path / "want.csv")
        assert (demo_run.out / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_attention_pgm_header_and_size(self, demo_run):
        raw = (demo_run.out / "attention.pgm").read_bytes()
        header = b"P5\n10 6\n255\n"  # the stride-8 feature grid of a 48x80 scene
        assert raw.startswith(header) and len(raw) == len(header) + 60

    def test_draws_the_trained_models_own_attention_map(self, demo_run, tmp_path):
        want = model_map_pgm(demo_run.model, demo_run.held_out[0], tmp_path / "want.pgm")
        assert (demo_run.out / "attention.pgm").read_bytes() == want

    def test_map_differs_from_the_untrained_models(self, demo_run, tmp_path):
        from mono3d.train import ToyDetector

        scene = demo_run.held_out[0]
        untrained = ToyDetector(scene.image.shape[2:], seed=5)
        assert (demo_run.out / "attention.pgm").read_bytes() != \
            model_map_pgm(untrained, scene, tmp_path / "untrained.pgm")

    @pytest.mark.filterwarnings("ignore:detect. dropped:RuntimeWarning")
    def test_non_finite_map_fails_after_the_results(self, tmp_path, capsys, monkeypatch):
        import mono3d.train as train

        train_toy = train.train_toy

        def diverged(scenes, **kwargs):  # a NaN attention bias: every map entry is NaN
            trace, model = train_toy(scenes, **kwargs)
            model.anab.attention.bias.data[:] = np.nan
            return trace, model

        monkeypatch.setattr(train, "train_toy", diverged)
        out = tmp_path / "results"
        assert main(["demo", "--steps", "1", "--scenes", "1", "--out", str(out)]) == FAIL_EXIT
        captured = capsys.readouterr()
        assert "task=3d mode=r40" in captured.out
        assert captured.err == (f"error: {out / 'attention.pgm'}: PGM export needs a finite map, "
                                "got 60 non-finite of 60 entries\n")
        assert sorted(p.name for p in out.iterdir()) == ["000000.txt", "trace.csv"]

    def test_writes_results_and_yaw_ground_truth(self, tmp_path, monkeypatch):
        import mono3d.evaluate as evaluate
        from mono3d.geometry import yaw_to_alpha

        evaluate_class = evaluate.evaluate_class
        seen = []

        def capture(frames, *args, **kwargs):
            seen.append(frames)
            return evaluate_class(frames, *args, **kwargs)

        monkeypatch.setattr(evaluate, "evaluate_class", capture)
        out = tmp_path / "results"
        assert main(["demo", "--steps", "3", "--scenes", "2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["000000.txt", "000001.txt",
                                                         "attention.pgm", "trace.csv"]
        gts = [gt for frames in seen for _, frame_gts in frames for gt in frame_gts]
        assert seen and gts
        for gt in gts:  # rotation_y is the yaw, as for detections, not alpha
            x, _, z = gt.location
            assert abs(yaw_to_alpha(gt.rotation_y, x, z) - gt.alpha) <= 1e-12

    def test_out_onto_existing_file_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mono3d.train.train_toy", no_training)
        out = tmp_path / "results"
        out.write_text("keep\n")
        code = main(["demo", "--steps", "1", "--scenes", "1", "--conf", "0", "--out", str(out)])
        assert code == USAGE_EXIT
        assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.EEXIST)}\n"
        assert out.read_text() == "keep\n"

    def test_result_file_that_cannot_be_written_is_named(self, tmp_path, capsys):
        out = tmp_path / "results"
        (out / "000000.txt").mkdir(parents=True)
        code = main(["demo", "--steps", "2", "--scenes", "2", "--conf", "0", "--out", str(out)])
        assert code == USAGE_EXIT
        assert capsys.readouterr().err == (f"error: {out / '000000.txt'}: "
                                           f"{os.strerror(errno.EISDIR)}\n")

    def test_warmup_capped_at_the_steps(self, tmp_path, monkeypatch):
        # 32 scenes ask for 8 warm-up steps, more than the run's 3
        monkeypatch.setattr("mono3d.detector.detect", lambda *args, **kwargs: [])
        out = tmp_path / "results"
        assert main(["demo", "--steps", "3", "--scenes", "32", "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        want = [LR_TARGET / 3, LR_TARGET * 2 / 3, LR_TARGET]
        assert [float(row.split(",")[1]) for row in rows] == [float(format(v, ".9g")) for v in want]
