import math

import numpy as np
import pytest

from mono3d.anchors import (AnchorGrid, decode, default_sizes, encode, fit_anchor_3d_stats,
                            generate_anchor_grid)
from mono3d.geometry import Box2D, iou_2d, wrap_angle


def random_anchor(rng):
    """A (9,) anchor row [x, y, w2d, h2d, z, w, h, l, alpha]."""
    return np.array([rng.uniform(0.0, 1200.0), rng.uniform(0.0, 370.0),
                     rng.uniform(8.0, 300.0), rng.uniform(8.0, 300.0),
                     rng.uniform(5.0, 70.0), rng.uniform(0.5, 3.0),
                     rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0),
                     rng.uniform(-math.pi, math.pi)])


def center_box(cx, cy, w, h):
    """The Box2D of center (cx, cy) and size (w, h)."""
    return Box2D(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def anchor_row(x, y, w2d, h2d, alpha=0.0):
    return np.array([x, y, w2d, h2d, 30.0, 1.0, 1.0, 1.0, alpha])


def scalar_encode(anchor, box2d, params3d):
    """One anchor's (d2, d3) by scalar arithmetic: the reference for the
    row-wise `encode`."""
    cx, cy = (box2d.x1 + box2d.x2) / 2.0, (box2d.y1 + box2d.y2) / 2.0
    x, y, w, h, z0, w0, h0, l0, a0 = anchor
    d2 = [(cx - x) / w, (cy - y) / h, math.log(box2d.w / w), math.log(box2d.h / h)]
    xp, yp, zp, w3, h3, l3, ang = params3d
    d3 = [(xp - x) / w, (yp - y) / h, zp - z0,
          math.log(w3 / w0), math.log(h3 / h0), math.log(l3 / l0), wrap_angle(ang - a0)]
    return d2, d3


class TestSizeLadder:
    def test_endpoints(self):
        sizes = default_sizes()
        assert sizes[0] == 24.0
        assert sizes[-1] == pytest.approx(288.0, abs=1e-9)

    def test_second_rung(self):
        assert default_sizes()[1] == pytest.approx(24.0 * 12.0 ** (1.0 / 11.0), abs=1e-12)

    def test_monotone(self):
        assert np.all(np.diff(default_sizes()) > 0.0)


class TestAnchorGrid:
    def test_templates_per_position(self):
        grid = generate_anchor_grid((4, 6))
        assert grid.per_position == 36

    def test_full_scale_count(self):
        grid = generate_anchor_grid((48, 160))
        assert len(grid) == 48 * 160 * 36 == 276480

    def test_ratios_preserve_area(self):
        grid = generate_anchor_grid((1, 1), sizes=[50.0])
        for w, h in grid.templates:
            assert w * h == pytest.approx(2500.0, abs=1e-9)
            # and the ratio shows up as h/w
        ratios = grid.templates[:, 1] / grid.templates[:, 0]
        np.testing.assert_allclose(ratios, [0.5, 1.0, 1.5], atol=1e-9)

    @staticmethod
    def every_anchor(stride=8, sizes=(16.0, 32.0), hw=(2, 3)):
        """A (2, 3) grid with 2 sizes (A = 6) and distinct 3D stats per
        template, and the documented layout of its anchors: flat index
        (row * W + col) * A + template, templates by size then ratio, centers
        at cell centers. Gives the grid, then (flat, x, y, w, h, template)
        per anchor."""
        grid = generate_anchor_grid(hw, stride, sizes=list(sizes))
        grid.stats3d = np.arange(grid.per_position * 5.0).reshape(-1, 5) + 0.5
        templates = [(s / math.sqrt(q), s * math.sqrt(q)) for s in sizes for q in (0.5, 1.0, 1.5)]
        (H, W), A = hw, len(templates)
        want = [((r * W + c) * A + t, c * stride + stride / 2.0, r * stride + stride / 2.0, w, h, t)
                for r in range(H) for c in range(W) for t, (w, h) in enumerate(templates)]
        return grid, want

    def test_centers_at_cell_centers(self):
        grid, want = self.every_anchor()
        assert grid.per_position == 6 and len(grid) == len(want) == 36
        flat = np.array([f for f, *_ in want])
        assert flat.tolist() == list(range(len(grid)))
        rows = grid.rows(flat[::-1])[::-1]   # any order of indices
        for row, (_, x, y, w, h, t) in zip(rows, want):
            assert row.tolist() == [x, y, w, h, *grid.stats3d[t]]

    def test_boxes2d_agrees_with_anchor(self):
        grid, want = self.every_anchor()
        boxes = grid.boxes2d()
        assert boxes.shape == (len(want), 4)
        for f, x, y, w, h, _ in want:
            assert boxes[f].tolist() == [x - w / 2.0, y - h / 2.0, x + w / 2.0, y + h / 2.0]
            assert boxes[f].tolist() == center_box(x, y, w, h).as_array().tolist()


class TestCodec:
    def test_zero_deltas_reproduce_anchor(self):
        rng = np.random.default_rng(0)
        anc = random_anchor(rng)
        (x1, y1, x2, y2), p3 = decode(anc, np.zeros(4), np.zeros(7))
        assert ((x1 + x2) / 2.0, (y1 + y2) / 2.0) == pytest.approx(tuple(anc[:2]))
        assert (x2 - x1, y2 - y1) == pytest.approx(tuple(anc[2:4]))
        np.testing.assert_allclose(p3[:2], anc[:2], atol=1e-12)
        np.testing.assert_allclose(p3[2:], anc[4:], atol=1e-12)

    def test_log_width_delta(self):
        (x1, _, x2, _), _ = decode(anchor_row(100.0, 50.0, 24.0, 24.0),
                                   np.array([0.0, 0.0, math.log(2.0), 0.0]), np.zeros(7))
        assert x2 - x1 == pytest.approx(48.0, abs=1e-12)

    def test_roundtrip_many(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            anc = random_anchor(rng)
            d2 = rng.uniform(-1.0, 1.0, size=4)
            d3 = rng.uniform(-1.0, 1.0, size=7)
            box, p3 = decode(anc, d2, d3)
            back2, back3 = encode(anc[None], np.array([box]), np.array([p3]))
            np.testing.assert_allclose(back2[0], d2, atol=1e-9)
            np.testing.assert_allclose(back3[0], d3, atol=1e-9)

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            anc = random_anchor(rng)
            gt = center_box(rng.uniform(0, 1000), rng.uniform(0, 300),
                            rng.uniform(5, 200), rng.uniform(5, 200))
            p3 = (rng.uniform(0, 1000), rng.uniform(0, 300), rng.uniform(5, 70),
                  rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(1, 6),
                  rng.uniform(-math.pi, math.pi))
            d2, d3 = encode(anc[None], gt.as_array()[None], np.array([p3]))
            box, back3 = decode(anc, d2[0], d3[0])
            np.testing.assert_allclose(box, gt.as_array(), atol=1e-9)
            np.testing.assert_allclose(back3[:6], p3[:6], atol=1e-9)
            assert abs(wrap_angle(back3[6] - p3[6])) < 1e-9

    def test_angle_wrapped_into_range(self):
        _, p3 = decode(anchor_row(0.0, 0.0, 10.0, 10.0, alpha=3.0), np.zeros(4),
                       np.array([0, 0, 0, 0, 0, 0, 1.0]))
        assert -math.pi < p3[6] <= math.pi
        assert p3[6] == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)

    # a row one longer, or with a leading axis, is in the validation sweep
    @pytest.mark.parametrize("arg, bad, n", [
        ("anchor", [0.0] * 8, 9), ("d2", 0.0, 4), ("d3", [0.0] * 6, 7)])
    def test_decode_names_a_row_of_another_length_or_rank(self, arg, bad, n):
        rows = {"anchor": [1.0] * 9, "d2": [0.0] * 4, "d3": [0.0] * 7}
        with pytest.raises(ValueError, match=rf"^{arg} must be a \({n},\) row, got shape"):
            decode(**{**rows, arg: bad})

    # rows that unpack and then fail in the arithmetic, and a ragged row,
    # which numpy gives no shape
    @pytest.mark.parametrize("arg, bad, got", [
        ("d3", [[0.0]] * 7, r"shape \(7, 1\)"), ("d2", [[0.0]] * 4, r"shape \(4, 1\)"),
        ("anchor", [[0.0] * 9, [0.0]], "a ragged row")], ids=["d3_7x1", "d2_4x1", "anchor_ragged"])
    def test_decode_names_a_malformed_row(self, arg, bad, got):
        rows = {"anchor": [1.0] * 9, "d2": [0.0] * 4, "d3": [0.0] * 7}
        n = len(rows[arg])
        with pytest.raises(ValueError, match=rf"^{arg} must be a \({n},\) row, got {got}$"):
            decode(**{**rows, arg: bad})

    def test_decode_overflow_stays_an_overflow_error(self):
        with pytest.raises(OverflowError):
            decode([1.0] * 9, [0.0, 0.0, 1000.0, 0.0], [0.0] * 7)

    def test_encode_rejects_degenerate(self):
        anc = anchor_row(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="positive"):
            encode(anc[None], [[0, 0, 0, 0]], [(0, 0, 30, 1, 1, 1, 0)])
        with pytest.raises(ValueError, match="positive"):
            encode(anc[None], [[0, 0, 10, 10]], [(0, 0, 30, -1.0, 1, 1, 0)])

    def test_rows_match_scalar_oracle(self):
        rng = np.random.default_rng(6)
        n = 500
        anchors = [random_anchor(rng) for _ in range(n)]
        boxes = [center_box(rng.uniform(0, 1200), rng.uniform(0, 370),
                            rng.uniform(1, 300), rng.uniform(1, 300)) for _ in range(n)]
        p3 = np.column_stack([rng.uniform(0, 1200, n), rng.uniform(0, 370, n),
                              rng.uniform(1, 80, n), rng.uniform(0.3, 4, (n, 3)),
                              rng.uniform(-3 * math.pi, 3 * math.pi, n)])
        p3[:5, 6] = [a[8] + k * math.pi for a, k in zip(anchors, (-3, -1, 0, 1, 3))]
        rows = np.array(anchors)
        d2, d3 = encode(rows, np.array([b.as_array() for b in boxes]), p3)
        want = [scalar_encode(a, b, p) for a, b, p in zip(anchors, boxes, p3)]
        np.testing.assert_allclose(d2, [w[0] for w in want], rtol=1e-12, atol=0)
        np.testing.assert_allclose(d3, [w[1] for w in want], rtol=1e-12, atol=0)
        bad_box = np.array([b.as_array() for b in boxes])
        bad_box[7, 3] = bad_box[7, 1]
        with pytest.raises(ValueError, match="2D box must have positive size"):
            encode(rows, bad_box, p3)
        bad_p3 = p3.copy()
        bad_p3[9, 5] = 0.0
        with pytest.raises(ValueError, match="3D dimensions must be positive"):
            encode(rows, np.array([b.as_array() for b in boxes]), bad_p3)


def box_rows(*boxes):
    """(n, 4) corner rows of (cx, cy, w, h) boxes."""
    return np.array([center_box(*b).as_array() for b in boxes])


class TestFit3dStats:
    def test_single_object_single_template(self):
        grid = AnchorGrid((4, 4), 8, [(20.0, 20.0)])
        fit_anchor_3d_stats(grid, box_rows((12.0, 12.0, 20.0, 20.0)),
                            [(42.0, 1.5, 1.4, 3.8, 0.3)])
        np.testing.assert_allclose(grid.stats3d[0], [42.0, 1.5, 1.4, 3.8, 0.3])

    def test_mean_over_matches(self):
        grid = AnchorGrid((4, 4), 8, [(20.0, 20.0)])
        fit_anchor_3d_stats(grid, box_rows((12.0, 12.0, 20.0, 20.0), (20.0, 20.0, 20.0, 20.0)),
                            [(40.0, 1.0, 1.0, 3.0, 0.0), (60.0, 2.0, 2.0, 5.0, 0.4)])
        np.testing.assert_allclose(grid.stats3d[0], [50.0, 1.5, 1.5, 4.0, 0.2])

    def test_unmatched_template_gets_global_mean(self):
        # a tiny template never reaches IoU 0.5 with a large object
        grid = AnchorGrid((4, 4), 8, [(4.0, 4.0), (20.0, 20.0)])
        fit_anchor_3d_stats(grid, box_rows((12.0, 12.0, 20.0, 20.0)),
                            [(42.0, 1.5, 1.4, 3.8, 0.3)])
        np.testing.assert_allclose(grid.stats3d[0], [42.0, 1.5, 1.4, 3.8, 0.3])
        np.testing.assert_allclose(grid.stats3d[1], [42.0, 1.5, 1.4, 3.8, 0.3])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        grid = generate_anchor_grid((6, 8), stride=8, sizes=[12.0, 24.0, 48.0])
        boxes, params = [], []
        for _ in range(12):
            w = rng.uniform(8.0, 60.0)
            h = w * rng.uniform(0.6, 1.6)
            cx, cy = rng.uniform(0, 64), rng.uniform(0, 48)
            boxes.append(center_box(cx, cy, w, h))
            params.append(rng.uniform(1.0, 50.0, size=5))
        params = np.array(params)
        fit_anchor_3d_stats(grid, np.array([b.as_array() for b in boxes]), params)

        A = grid.per_position
        anchors = [center_box(*row[:4]) for row in grid.rows(np.arange(len(grid)))]
        global_mean = params.mean(axis=0)
        for t in range(A):
            matched = [k for k, box in enumerate(boxes)
                       if any(iou_2d(a, box) >= 0.5 for a in anchors[t::A])]
            want = params[matched].mean(axis=0) if matched else global_mean
            np.testing.assert_allclose(grid.stats3d[t], want, atol=1e-12)

    def test_object_order_invariance(self):
        rng = np.random.default_rng(4)
        boxes, params = [], []
        for _ in range(8):
            boxes.append((rng.uniform(5, 40), rng.uniform(5, 40),
                          rng.uniform(10, 30), rng.uniform(10, 30)))
            params.append(rng.uniform(1.0, 9.0, size=5))
        boxes, params = box_rows(*boxes), np.array(params)
        g1 = generate_anchor_grid((6, 6), sizes=[16.0, 24.0])
        g2 = generate_anchor_grid((6, 6), sizes=[16.0, 24.0])
        fit_anchor_3d_stats(g1, boxes, params)
        fit_anchor_3d_stats(g2, boxes[::-1], params[::-1])
        np.testing.assert_allclose(g1.stats3d, g2.stats3d, atol=1e-12)

    def test_empty_labels_error(self):
        grid = generate_anchor_grid((2, 2), sizes=[16.0])
        with pytest.raises(ValueError, match="empty"):
            fit_anchor_3d_stats(grid, np.zeros((0, 4)), np.zeros((0, 5)))

    def test_shape_errors(self):
        grid = generate_anchor_grid((2, 2), sizes=[16.0])
        boxes = box_rows((8.0, 8.0, 16.0, 16.0), (4.0, 4.0, 2.0, 2.0))
        with pytest.raises(ValueError, match=r"params must be \(n, 5\) rows, got shape \(2, 7\)"):
            fit_anchor_3d_stats(grid, boxes, np.ones((2, 7)))
        with pytest.raises(ValueError, match="one .* box per parameter row"):
            fit_anchor_3d_stats(grid, boxes, np.ones((1, 5)))
