import errno
import os

import numpy as np
import pytest

from mono3d import suite
from mono3d.cli import FAIL_EXIT, USAGE_EXIT, load_config, main, probability
from mono3d.gradcheck import GradReport
from mono3d.kitti import write_result_file, LabelRecord

CAR = "Car 0.00 0 -1.58 100.00 100.00 160.00 150.00 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"


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


class TestConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("steps = 5\n# comment\nmode=r11\n")
        assert load_config(path) == {"steps": "5", "mode": "r11"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)

    def test_applies_to_eval(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        cfg = tmp_path / "cfg"
        cfg.write_text("mode=r11\ntask=2d\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det),
                     "--classes", "Car", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "task=2d mode=r11" in out

    def test_explicit_flag_wins(self, tmp_path, capsys, monkeypatch):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        cfg = tmp_path / "cfg"
        cfg.write_text("task=2d\n")
        argv = ["mono3d", "eval", "--gt", str(gt), "--det", str(det),
                "--classes", "Car", "--task", "bev", "--config", str(cfg)]
        monkeypatch.setattr("sys.argv", argv)
        assert main(argv[1:]) == 0
        assert "task=bev" in capsys.readouterr().out


    @pytest.mark.parametrize("flag", [["--steps", "1"], ["--steps=1"], ["--step", "1"],
                                      ["--ste=1"]])
    def test_explicit_flag_in_given_argv_wins(self, tmp_path, capsys, flag, monkeypatch):
        # the flag is looked for in main's argv, not in sys.argv
        monkeypatch.setattr("sys.argv", ["mono3d"])
        cfg = tmp_path / "cfg"
        cfg.write_text("steps=5\nscenes=2\n")
        trace = tmp_path / "trace.csv"
        assert main(["train-toy", "--config", str(cfg), "--trace", str(trace)] + flag) == 0
        assert "step 0: total" in capsys.readouterr().out
        assert len(trace.read_text().splitlines()) == 1 + 1  # header + one step

    @pytest.mark.parametrize("key", ["fn", "command", "config"])
    def test_key_that_is_not_a_long_option_is_a_usage_error(self, tmp_path, capsys, key):
        # `fn` and `command` are parsed attributes but no flags; `config` names the file itself
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key}=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--config", str(cfg)])
        assert exc.value.code == USAGE_EXIT
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err
        assert str(cfg) in err

    def test_long_option_of_another_subcommand_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("steps=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--config", str(cfg)])
        assert exc.value.code == USAGE_EXIT
        assert "unknown config key 'steps'" in capsys.readouterr().err


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
        (CAR + " 1.5", "score must be in [0, 1], got 1.5"),
        (CAR.replace("100.00", "170.00", 1) + " 0.9", "degenerate 2D box (170.0, 100.0, 160.0"),
    ], ids=["non_numeric", "score_above_one", "x2_below_x1"])
    def test_bad_result_line_is_a_usage_error(self, tmp_path, capsys, line, message):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = det / "000001.txt"
        bad.write_text(CAR + " 0.9\n" + line + "\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"])
        assert code == USAGE_EXIT
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_bad_ground_truth_box_is_a_usage_error(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        bad = gt / "000002.txt"
        bad.write_text(CAR.replace("100.00", "170.00", 1) + "\n")
        code = main(["eval", "--gt", str(gt), "--det", str(det), "--task", "2d", "--classes", "Car"])
        assert code == USAGE_EXIT
        assert f"error: {bad}: degenerate 2D box" in capsys.readouterr().err

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
            assert f"error: {bad}: non-positive 3D dimensions" in capsys.readouterr().err
        # the 2d task reads no dimensions, and other classes are not scored
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--task", "2d",
                     "--classes", "Car"]) == 0
        bad.write_text(CAR.replace("Car", "Van").replace("1.65 1.67 3.64", dims) + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == 0

    def test_dontcare_sentinel_dimensions_accepted_in_3d(self, tmp_path, capsys):
        gt, det = tmp_path / "gt", tmp_path / "det"
        write_frames(gt, det)
        dontcare = "DontCare -1 -1 -10 400.00 100.00 450.00 150.00 -1 -1 -1 -1000 -1000 -1000 -10"
        with open(gt / "000001.txt", "a") as f:
            f.write(dontcare + "\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--classes", "Car"]) == 0
        assert "Car,3d,r40,1.0000,1.0000,1.0000" in capsys.readouterr().out


class TestGradcheck:
    """The command prints one line per report and exits by their verdicts;
    the suite itself runs once, in the acceptance tests."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def stub_suite(tol, step, seed):
            calls.append((tol, step, seed))
            return [GradReport(name, err, tol, err < tol) for name, err in (("op_a", 1e-9), ("op_b", 3e-8))]

        monkeypatch.setattr(suite, "run_gradient_suite", stub_suite)
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
        ["train-toy", "--scenes", "0"],
        ["demo", "--scenes", "0"],
        ["train-toy", "--steps", "0"],
        ["train-toy", "--scenes", "-1"],
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT
        assert f"argument {argv[1]}: expected " in capsys.readouterr().err

    def test_bad_value_in_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("steps=0\n")
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--config", str(cfg)])
        assert exc.value.code == USAGE_EXIT
        assert "argument --steps: expected a positive integer, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
    def test_conf_outside_unit_interval_is_a_usage_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"conf={value}\n")
        for argv in (["demo", "--conf", value], ["demo", "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == USAGE_EXIT
            err = capsys.readouterr().err
            assert f"argument --conf: expected a probability in [0, 1], got {value!r}" in err

    def test_probability_keeps_both_ends(self):
        assert [probability(v) for v in ("0", "1", "0.75")] == [0.0, 1.0, 0.75]

    def test_removed_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench-anab"])
        assert exc.value.code == USAGE_EXIT
        assert "invalid choice: 'bench-anab'" in capsys.readouterr().err


class TestVizAttention:
    def test_writes_pgm(self, tmp_path, capsys):
        out = tmp_path / "attn.pgm"
        assert main(["viz-attention", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n")

    def test_draws_the_models_own_attention_map(self, tmp_path):
        from mono3d.attention import attention_map, write_pgm
        from mono3d.train import ToyDetector, make_synthetic_scenes
        out = tmp_path / "attn.pgm"
        assert main(["viz-attention", "--out", str(out), "--seed", "3"]) == 0
        scene = make_synthetic_scenes(count=1, seed=3)[0]
        model = ToyDetector(scene.image.shape[2:], seed=3)
        feats = model.forward(scene.image)["features"]
        write_pgm(attention_map(feats, model.anab.attention).data[0, 0], tmp_path / "want.pgm")
        assert out.read_bytes() == (tmp_path / "want.pgm").read_bytes()

    def test_from_tensor_file(self, tmp_path):
        from mono3d.tensor import Tensor, save_tensor
        rng = np.random.default_rng(0)
        tpath = tmp_path / "feats.m3tn"
        save_tensor(Tensor(rng.normal(size=(1, 4, 6, 10))), tpath)
        out = tmp_path / "attn.pgm"
        assert main(["viz-attention", "--out", str(out), "--tensor", str(tpath)]) == 0
        header = out.read_bytes().split(b"\n", 2)
        assert header[1] == b"10 6"

    def test_truncated_tensor_file_is_a_usage_error(self, tmp_path, capsys):
        tpath = tmp_path / "feats.m3tn"
        tpath.write_bytes(b"M3TN\x01\x00")
        out = tmp_path / "attn.pgm"
        assert main(["viz-attention", "--out", str(out), "--tensor", str(tpath)]) == USAGE_EXIT
        assert "feats.m3tn" in capsys.readouterr().err
        assert not out.exists()

    def test_out_in_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "nope" / "attn.pgm"
        assert main(["viz-attention", "--out", str(out)]) == USAGE_EXIT
        assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"


class TestTrainToy:
    def test_quick_run_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["train-toy", "--steps", "3", "--scenes", "2",
                     "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 4
        assert "total" in capsys.readouterr().out

    def test_trace_in_missing_directory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mono3d.train.train_toy", no_training)
        trace = tmp_path / "nope" / "trace.csv"
        code = main(["train-toy", "--steps", "1", "--scenes", "1", "--trace", str(trace)])
        assert code == USAGE_EXIT
        assert capsys.readouterr().err == f"error: {trace}: {os.strerror(errno.ENOENT)}\n"

    def test_trace_probe_leaves_files_as_they_were(self, tmp_path, monkeypatch):
        # the writability probe runs before training: a new path is removed
        # again, an existing file is not truncated
        monkeypatch.setattr("mono3d.train.train_toy", no_training)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("keep\n")
        for trace in (new, old):
            with pytest.raises(AssertionError, match="trained"):
                main(["train-toy", "--steps", "1", "--scenes", "1", "--trace", str(trace)])
        assert not new.exists() and old.read_text() == "keep\n"


class TestDemo:
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
        assert sorted(p.name for p in out.iterdir()) == ["000000.txt", "000001.txt"]
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
