"""KITTI label / result file parsing and writing.

Label lines carry 15 whitespace-separated fields (16 with a trailing score):
type, truncation, occlusion, alpha, 2D box (x1 y1 x2 y2), dimensions
(h w l), location (x y z), rotation_y [, score].
"""

from __future__ import annotations

import math
import os
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
    """One label or result line as a LabelRecord. A ValueError names the line
    (`line_no`) for a field count other than 15 or 16, and also the field
    (numbered from 1, the type being field 1) for a field that is not a
    finite number or an occlusion that is not an integer; a 2D box whose
    corners are out of order (NaN included) is a ValueError naming the line
    and the box."""
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
    if not (f[3] <= f[5] and f[4] <= f[6]):   # Box2D's test, which words the message
        try:
            Box2D(*f[3:7])
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    return LabelRecord(parts[0], f[0], occlusion, f[2], tuple(f[3:7]), (f[7], f[8], f[9]),
                       (f[10], f[11], f[12]), f[13], f[14] if len(parts) == 16 else None)


def parse_label_file(path):
    """The LabelRecords of every non-blank line of a file, by
    `parse_label_line` with lines numbered from 1: the first line it
    rejects raises its ValueError, naming that line."""
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
    """The result-file LabelRecord of a Detection, its type looked up as
    `class_names[det.class_id]`, with zero truncation and occlusion. It
    checks nothing itself: a Detection rejects a score outside [0, 1] and
    its Box2D and Box3D reject degenerate boxes when they are built, and an
    unknown class id fails the lookup."""
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
    """Write one `format_label` line per record, creating the parent
    directories. It checks nothing: a non-finite number is written as `nan`
    or `inf`, which `parse_label_line` rejects when the file is read.

    The text is formatted before the file is opened, so a record that fails
    formatting raises with an existing file left as it was. An existing file
    is overwritten in place and then truncated to the new text, which leaves
    the same bytes as `open(path, "w")` without first freeing the file's
    blocks; the directories are made only when the open finds them missing.
    """
    text = "".join([format_label(rec) + "\n" for rec in records])
    path = Path(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        f.truncate()
