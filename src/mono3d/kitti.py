"""KITTI label / result file parsing and writing.

Label lines carry 15 whitespace-separated fields (16 with a trailing score):
type, truncation, occlusion, alpha, 2D box (x1 y1 x2 y2), dimensions
(h w l), location (x y z), rotation_y [, score].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import Box2D, Box3D

__all__ = [
    "LabelRecord",
    "parse_label_line",
    "parse_label_file",
    "format_label",
    "write_result_file",
    "detection_to_record",
]


@dataclass
class LabelRecord:
    type: str
    truncation: float
    occlusion: int
    alpha: float
    box2d: tuple  # x1, y1, x2, y2
    dims: tuple   # h, w, l
    location: tuple  # x, y, z
    rotation_y: float
    score: float = None

    def as_box2d(self):
        return Box2D(*self.box2d)

    def as_box3d(self):
        """The 3D box; a non-positive dimension raises ValueError naming the
        dimensions in the file's (h, w, l) order."""
        h, w, l = dims = tuple(map(float, self.dims))
        if min(dims) <= 0:
            raise ValueError(f"non-positive 3D dimensions {dims}")
        x, y, z = self.location
        return Box3D(x, y, z, w, h, l, self.rotation_y, alpha=self.alpha)


def _num(field_str, line_no, field_no):
    try:
        v = float(field_str)
    except ValueError:
        raise ValueError(f"line {line_no}, field {field_no}: not numeric: {field_str!r}")
    if not math.isfinite(v):
        raise ValueError(f"line {line_no}, field {field_no}: non-finite value {field_str!r}")
    return v


def parse_label_line(line, line_no=1):
    parts = line.split()
    if len(parts) not in (15, 16):
        raise ValueError(f"line {line_no}: expected 15 or 16 fields, got {len(parts)}")
    try:
        f = list(map(float, parts[1:]))
    except ValueError:
        f = None
    # a non-finite sum flags a non-finite field (or an overflow, which the
    # field-by-field pass accepts); that pass also names the failing field
    if f is None or not math.isfinite(sum(f)):
        f = [_num(p, line_no, i + 2) for i, p in enumerate(parts[1:])]
    occlusion = int(f[1])
    if occlusion != f[1]:
        raise ValueError(f"line {line_no}, field 3: occlusion not an integer: {parts[2]!r}")
    box2d = tuple(f[3:7])
    try:
        Box2D(*box2d)
    except ValueError as e:
        raise ValueError(f"line {line_no}: {e}") from None
    return LabelRecord(
        type=parts[0],
        truncation=f[0],
        occlusion=occlusion,
        alpha=f[2],
        box2d=box2d,
        dims=(f[7], f[8], f[9]),
        location=(f[10], f[11], f[12]),
        rotation_y=f[13],
        score=f[14] if len(parts) == 16 else None,
    )


def parse_label_file(path):
    records = []
    with open(path, newline="") as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                records.append(parse_label_line(line, line_no=i))
    return records


_LINE = "%s %.2f %d %.6f" + " %.2f" * 10 + " %.6f"


def format_label(rec):
    """Result-format line: boxes at 2 decimals, angles/scores at 6."""
    line = _LINE % (rec.type, rec.truncation, int(rec.occlusion), rec.alpha,
                    *rec.box2d, *rec.dims, *rec.location, rec.rotation_y)
    return line if rec.score is None else line + " %.6f" % rec.score


def detection_to_record(det, class_names):
    b3 = det.box3d
    return LabelRecord(
        type=class_names[det.class_id],
        truncation=0.0,
        occlusion=0,
        alpha=det.alpha,
        box2d=(det.box2d.x1, det.box2d.y1, det.box2d.x2, det.box2d.y2),
        dims=(b3.h, b3.w, b3.l),
        location=(b3.x, b3.y, b3.z),
        rotation_y=b3.yaw,
        score=det.score,
    )


def write_result_file(records, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("".join([format_label(rec) + "\n" for rec in records]))
