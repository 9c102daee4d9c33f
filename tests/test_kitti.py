import os
import re

import numpy as np
import pytest

from mono3d import kitti
from mono3d.geometry import Box2D, Box3D
from mono3d.kitti import (LabelRecord, detection_to_record, format_label, parse_label_file,
                          parse_label_line, write_result_file)
from mono3d.postproc import Detection

CAR_LINE = ("Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
            "1.65 1.67 3.64 -0.65 1.71 46.70 -1.59")


class TestParseLabel:
    def test_car_line_fields(self):
        rec = parse_label_line(CAR_LINE)
        assert rec.type == "Car"
        assert rec.truncation == 0.0
        assert rec.occlusion == 0
        assert rec.alpha == pytest.approx(-1.58)
        assert rec.box2d == pytest.approx((587.01, 173.33, 614.12, 200.12))
        assert rec.dims == pytest.approx((1.65, 1.67, 3.64))  # h, w, l
        assert rec.location == pytest.approx((-0.65, 1.71, 46.70))
        assert rec.rotation_y == pytest.approx(-1.59)
        assert rec.score is None

    def test_trailing_score(self):
        rec = parse_label_line(CAR_LINE + " 0.871234")
        assert rec.score == pytest.approx(0.871234)

    def test_dontcare_sentinels(self):
        line = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"
        rec = parse_label_line(line)
        assert rec.type == "DontCare"
        assert rec.occlusion == -1
        assert rec.location == (-1000.0, -1000.0, -1000.0)

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 3: expected 15 or 16"):
            parse_label_line("Car 1 2 3", line_no=3)

    def test_non_numeric_field(self):
        bad = CAR_LINE.replace("46.70", "oops")
        with pytest.raises(ValueError, match="field 14"):
            parse_label_line(bad)

    @pytest.mark.parametrize("box,coords", [
        ("614.12 173.33 587.01 200.12", "(614.12, 173.33, 587.01, 200.12)"),   # x2 < x1
        ("587.01 200.12 614.12 173.33", "(587.01, 200.12, 614.12, 173.33)"),   # y2 < y1
    ])
    def test_reversed_box_names_its_line(self, box, coords):
        bad = CAR_LINE.replace("587.01 173.33 614.12 200.12", box)
        with pytest.raises(ValueError, match=rf"^line 5: degenerate 2D box {re.escape(coords)}$"):
            parse_label_line(bad, line_no=5)

    @pytest.mark.parametrize("field", ["0.0", "-1", "2.000", "3"])
    def test_integral_occlusion_written_as_float(self, field):
        parts = CAR_LINE.split()
        parts[2] = field
        rec = parse_label_line(" ".join(parts))
        assert rec.occlusion == int(float(field)) and type(rec.occlusion) is int

    @pytest.mark.parametrize("field", ["1.5", "-0.5", "2.0001"])
    def test_non_integral_occlusion_rejected(self, field):
        parts = CAR_LINE.split()
        parts[2] = field
        with pytest.raises(ValueError, match=f"^line 4, field 3: occlusion not an integer: '{field}'$"):
            parse_label_line(" ".join(parts), line_no=4)

    # first numeric field, a middle one, the score
    @pytest.mark.parametrize("field_no", [2, 9, 16])
    @pytest.mark.parametrize("value", ["abc", "1.2.3", "0x10", "nan", "inf", "-inf", "1e999"])
    def test_error_text_is_the_per_field_text(self, field_no, value):
        parts = (CAR_LINE + " 0.5").split()
        parts[field_no - 1] = value
        if field_no < len(parts):
            parts[field_no] = "oops"   # a later bad field is not the one reported
        with pytest.raises(ValueError) as want:
            kitti._num(value, 7, field_no)
        with pytest.raises(ValueError) as got:
            parse_label_line(" ".join(parts), line_no=7)
        assert str(got.value) == str(want.value)

    def test_overflowing_sum_still_parses(self):
        parts = CAR_LINE.split()
        parts[11:14] = ["1e308", "1e308", "1e308"]   # finite fields whose sum is not
        rec = parse_label_line(" ".join(parts))
        assert rec.location == (1e308, 1e308, 1e308)

    def test_box_accessors(self):
        rec = parse_label_line(CAR_LINE)
        assert isinstance(rec.as_box2d(), Box2D)
        b3 = rec.as_box3d()
        assert isinstance(b3, Box3D)
        assert b3.z == pytest.approx(46.70)
        assert (b3.h, b3.w, b3.l) == pytest.approx((1.65, 1.67, 3.64))
        assert b3.yaw == pytest.approx(-1.59)

    def test_parse_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "000001.txt"
        path.write_text(CAR_LINE + "\n\n" + CAR_LINE + "\n")
        assert len(parse_label_file(path)) == 2


def reference_format_label(rec):
    """`format_label` as it was written field by field with f-strings."""
    parts = [
        rec.type,
        f"{rec.truncation:.2f}",
        str(int(rec.occlusion)),
        f"{rec.alpha:.6f}",
        *(f"{v:.2f}" for v in rec.box2d),
        *(f"{v:.2f}" for v in rec.dims),
        *(f"{v:.2f}" for v in rec.location),
        f"{rec.rotation_y:.6f}",
    ]
    if rec.score is not None:
        parts.append(f"{rec.score:.6f}")
    return " ".join(parts)


def seeded_records(rng, n):
    """Records with fields at every scale the writer rounds, signed zeros,
    half-way cases and numpy float64 fields, with and without a score."""
    specials = [0.0, -0.0, 0.005, -0.005, 0.125, 1e-7, -1e-7, 123456.785, 1e6, -1e6, 999999.995]

    def value():
        kind = rng.integers(4)
        if kind == 0:
            return float(rng.choice(specials))
        if kind == 1:
            return float(rng.normal(0.0, 10.0 ** rng.integers(-3, 7)))
        if kind == 2:
            return np.float64(rng.uniform(-1e6, 1e6))
        return float(np.round(rng.uniform(-100, 100), int(rng.integers(0, 4))))

    return [LabelRecord(str(rng.choice(["Car", "Pedestrian", "DontCare"])), value(),
                        int(rng.integers(-1, 4)) if rng.uniform() < 0.5 else np.int64(rng.integers(4)),
                        value(), tuple(value() for _ in range(4)), tuple(value() for _ in range(3)),
                        tuple(value() for _ in range(3)), value(),
                        None if rng.uniform() < 0.3 else value())
            for _ in range(n)]


class TestFormatParity:
    def test_byte_equal_to_field_by_field_format(self):
        records = seeded_records(np.random.default_rng(5), 3000)
        for rec in records:
            assert format_label(rec).encode() == reference_format_label(rec).encode(), rec
        assert any(rec.score is None for rec in records)
        assert any(isinstance(rec.alpha, np.float64) for rec in records)

    def test_negative_zero_and_float_occlusion(self):
        rec = LabelRecord("Car", -0.0, 1.0, -0.0, (-0.0, 0.0, 1e6, -1e6), (1.5, 1.6, 3.9),
                          (-0.001, 1.7, 40.0), -0.0, -0.0)
        assert format_label(rec) == reference_format_label(rec)
        assert format_label(rec).split()[1:4] == ["-0.00", "1", "-0.000000"]

    def test_result_file_is_the_lines(self, tmp_path):
        records = seeded_records(np.random.default_rng(6), 50)
        path = tmp_path / "000000.txt"
        write_result_file(records, path)
        assert path.read_bytes() == "".join(reference_format_label(r) + "\n"
                                            for r in records).encode()
        write_result_file([], path)
        assert path.read_bytes() == b""


class TestRewriteInPlace:
    """An existing result file is overwritten in place, then truncated: the
    bytes on disk are always those of a fresh `open(path, "w")` write."""

    @staticmethod
    def text(records):
        return "".join(reference_format_label(r) + "\n" for r in records).encode()

    def test_shrinking_rewrites_hold_only_the_new_lines(self, tmp_path):
        records = seeded_records(np.random.default_rng(7), 50)
        path = tmp_path / "000000.txt"
        write_result_file(records, path)
        write_result_file(records[:3], path)
        assert path.read_bytes() == self.text(records[:3])
        write_result_file([], path)
        assert path.read_bytes() == b""

    def test_missing_parent_directories_are_made(self, tmp_path):
        records = seeded_records(np.random.default_rng(8), 2)
        path = tmp_path / "a" / "b" / "000000.txt"
        write_result_file(records, path)
        assert path.read_bytes() == self.text(records)

    def test_a_hard_link_reads_the_rewrite(self, tmp_path):
        records = seeded_records(np.random.default_rng(9), 5)
        path, link = tmp_path / "000000.txt", tmp_path / "link.txt"
        write_result_file(records, path)
        os.link(path, link)
        write_result_file(records[:1], path)
        assert link.read_bytes() == path.read_bytes() == self.text(records[:1])

    def test_a_record_that_fails_formatting_leaves_the_file(self, tmp_path):
        records = seeded_records(np.random.default_rng(10), 4)
        path = tmp_path / "000000.txt"
        write_result_file(records, path)
        bad = LabelRecord("Car", 0.0, None, 0.0, (0, 0, 1, 1), (1, 1, 1), (0, 0, 9), 0.0)
        with pytest.raises(TypeError):
            write_result_file(records[:2] + [bad], path)
        assert path.read_bytes() == self.text(records)

    def test_a_directory_at_the_path_raises(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_result_file([], tmp_path)


class TestRoundtrip:
    def test_write_parse_write_fixed_point(self, tmp_path):
        rec = parse_label_line(CAR_LINE + " 0.900000")
        first = format_label(rec)
        second = format_label(parse_label_line(first))
        assert first == second

    def test_result_file(self, tmp_path):
        det = Detection(1, 0.92,
                        Box2D(587.01, 173.33, 614.12, 200.12),
                        Box3D(-0.65, 1.71, 46.70, 1.67, 1.65, 3.64, -1.59),
                        alpha=-1.58)
        rec = detection_to_record(det, ["Background", "Car"])
        path = tmp_path / "out" / "000001.txt"
        write_result_file([rec], path)
        back = parse_label_file(path)[0]
        assert back.type == "Car"
        assert back.score == pytest.approx(0.92, abs=1e-6)
        assert back.location[2] == pytest.approx(46.70, abs=0.01)
        assert back.dims == pytest.approx((1.65, 1.67, 3.64), abs=0.01)
        assert back.rotation_y == pytest.approx(-1.59, abs=1e-6)

    def test_non_finite_detection_stops_at_its_box(self):
        # it once went through detection_to_record to a result line with `nan`
        with pytest.raises(ValueError, match="^3D box x must be finite, got nan$"):
            Detection(1, 0.9, Box2D(0, 0, 10, 10), Box3D(np.nan, 1.5, 20, 1.7, 1.5, 4.2, 0.2),
                      0.0)

    def test_format_precision(self):
        rec = LabelRecord("Car", 0.0, 0, -1.5807, (1.234567, 2, 3, 4),
                          (1.5, 1.6, 3.9), (0.1, 1.7, 40.0), 0.123456789, 0.5)
        line = format_label(rec)
        parts = line.split()
        assert parts[3] == "-1.580700"   # alpha at 6 decimals
        assert parts[4] == "1.23"        # boxes at 2
        assert parts[14] == "0.123457"   # rotation at 6
        assert parts[15] == "0.500000"
