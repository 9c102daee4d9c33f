import math

import numpy as np
import pytest

from mono3d.anchors import (Anchor, BoxDeltas, decode, default_sizes, encode,
                            fit_anchor_3d_stats, generate_anchor_grid, load_anchor_stats,
                            save_anchor_stats)
from mono3d.geometry import Box2D, iou_2d, wrap_angle


def random_anchor(rng):
    return Anchor(
        x=rng.uniform(0.0, 1200.0), y=rng.uniform(0.0, 370.0),
        w2d=rng.uniform(8.0, 300.0), h2d=rng.uniform(8.0, 300.0),
        stats3d=np.array([rng.uniform(5.0, 70.0), rng.uniform(0.5, 3.0),
                          rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0),
                          rng.uniform(-math.pi, math.pi)]),
    )


def scalar_encode(anchor, box2d, params3d):
    """One anchor's (d2, d3) by scalar arithmetic: the reference for the
    row-wise `encode`."""
    cx, cy = box2d.center
    w, h = anchor.w2d, anchor.h2d
    d2 = [(cx - anchor.x) / w, (cy - anchor.y) / h,
          math.log(box2d.w / w), math.log(box2d.h / h)]
    z0, w0, h0, l0, a0 = anchor.stats3d
    xp, yp, zp, w3, h3, l3, ang = params3d
    d3 = [(xp - anchor.x) / w, (yp - anchor.y) / h, zp - z0,
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
        grid = generate_anchor_grid((1, 1), sizes=[50.0], ratios=(0.5, 1.0, 1.5))
        for w, h in grid.templates:
            assert w * h == pytest.approx(2500.0, abs=1e-9)
            # and the ratio shows up as h/w
        ratios = grid.templates[:, 1] / grid.templates[:, 0]
        np.testing.assert_allclose(ratios, [0.5, 1.0, 1.5], atol=1e-9)

    def test_centers_at_cell_centers(self):
        grid = generate_anchor_grid((2, 3), stride=8, sizes=[24.0], ratios=(1.0,))
        a = grid.anchor(0)
        assert (a.x, a.y) == (4.0, 4.0)
        # flat index = (row * W + col) * A + template
        a = grid.anchor((1 * 3 + 2) * 1)
        assert (a.x, a.y) == (2 * 8 + 4.0, 1 * 8 + 4.0)

    def test_boxes2d_agrees_with_anchor(self):
        grid = generate_anchor_grid((2, 2), sizes=[16.0, 32.0])
        boxes = grid.boxes2d()
        for idx in (0, 5, len(grid) - 1):
            np.testing.assert_allclose(boxes[idx], grid.anchor(idx).box2d().as_array(),
                                       atol=1e-12)


class TestCodec:
    def test_zero_deltas_reproduce_anchor(self):
        rng = np.random.default_rng(0)
        anc = random_anchor(rng)
        box, p3 = decode(anc, BoxDeltas(np.zeros(4), np.zeros(7)))
        assert box.center == pytest.approx((anc.x, anc.y))
        assert (box.w, box.h) == pytest.approx((anc.w2d, anc.h2d))
        np.testing.assert_allclose(p3[:2], [anc.x, anc.y], atol=1e-12)
        np.testing.assert_allclose(p3[2:], anc.stats3d, atol=1e-12)

    def test_log_width_delta(self):
        anc = Anchor(100.0, 50.0, 24.0, 24.0, np.array([30.0, 1.0, 1.0, 1.0, 0.0]))
        box, _ = decode(anc, BoxDeltas([0.0, 0.0, math.log(2.0), 0.0], np.zeros(7)))
        assert box.w == pytest.approx(48.0, abs=1e-12)

    def test_roundtrip_many(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            anc = random_anchor(rng)
            d2 = rng.uniform(-1.0, 1.0, size=4)
            d3 = rng.uniform(-1.0, 1.0, size=7)
            box, p3 = decode(anc, BoxDeltas(d2, d3))
            back2, back3 = encode(anc.as_array()[None], box.as_array()[None], np.array([p3]))
            np.testing.assert_allclose(back2[0], d2, atol=1e-9)
            np.testing.assert_allclose(back3[0], d3, atol=1e-9)

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            anc = random_anchor(rng)
            gt = Box2D.from_center(rng.uniform(0, 1000), rng.uniform(0, 300),
                                   rng.uniform(5, 200), rng.uniform(5, 200))
            p3 = (rng.uniform(0, 1000), rng.uniform(0, 300), rng.uniform(5, 70),
                  rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(1, 6),
                  rng.uniform(-math.pi, math.pi))
            d2, d3 = encode(anc.as_array()[None], gt.as_array()[None], np.array([p3]))
            box, back3 = decode(anc, BoxDeltas(d2[0], d3[0]))
            np.testing.assert_allclose(box.as_array(), gt.as_array(), atol=1e-9)
            np.testing.assert_allclose(back3[:6], p3[:6], atol=1e-9)
            assert abs(wrap_angle(back3[6] - p3[6])) < 1e-9

    def test_angle_wrapped_into_range(self):
        anc = Anchor(0.0, 0.0, 10.0, 10.0, np.array([30.0, 1.0, 1.0, 1.0, 3.0]))
        _, p3 = decode(anc, BoxDeltas(np.zeros(4), np.array([0, 0, 0, 0, 0, 0, 1.0])))
        assert -math.pi < p3[6] <= math.pi
        assert p3[6] == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)

    def test_encode_rejects_degenerate(self):
        anc = Anchor(0.0, 0.0, 10.0, 10.0, np.array([30.0, 1.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            encode(anc.as_array()[None], [[0, 0, 0, 0]], [(0, 0, 30, 1, 1, 1, 0)])
        with pytest.raises(ValueError, match="positive"):
            encode(anc.as_array()[None], [[0, 0, 10, 10]], [(0, 0, 30, -1.0, 1, 1, 0)])

    def test_rows_match_scalar_oracle(self):
        rng = np.random.default_rng(6)
        n = 500
        anchors = [random_anchor(rng) for _ in range(n)]
        boxes = [Box2D.from_center(rng.uniform(0, 1200), rng.uniform(0, 370),
                                   rng.uniform(1, 300), rng.uniform(1, 300)) for _ in range(n)]
        p3 = np.column_stack([rng.uniform(0, 1200, n), rng.uniform(0, 370, n),
                              rng.uniform(1, 80, n), rng.uniform(0.3, 4, (n, 3)),
                              rng.uniform(-3 * math.pi, 3 * math.pi, n)])
        p3[:5, 6] = [a.stats3d[4] + k * math.pi for a, k in zip(anchors, (-3, -1, 0, 1, 3))]
        rows = np.array([a.as_array() for a in anchors])
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

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="deltas"):
            BoxDeltas(np.zeros(3), np.zeros(7))
        with pytest.raises(ValueError, match="non-finite"):
            BoxDeltas(np.zeros(4), np.full(7, np.inf))


class TestFit3dStats:
    def test_single_object_single_template(self):
        grid = generate_anchor_grid((4, 4), stride=8, sizes=[20.0], ratios=(1.0,))
        obj = (Box2D.from_center(12.0, 12.0, 20.0, 20.0), (42.0, 1.5, 1.4, 3.8, 0.3))
        fit_anchor_3d_stats(grid, [obj])
        np.testing.assert_allclose(grid.stats3d[0], [42.0, 1.5, 1.4, 3.8, 0.3])

    def test_mean_over_matches(self):
        grid = generate_anchor_grid((4, 4), stride=8, sizes=[20.0], ratios=(1.0,))
        objs = [
            (Box2D.from_center(12.0, 12.0, 20.0, 20.0), (40.0, 1.0, 1.0, 3.0, 0.0)),
            (Box2D.from_center(20.0, 20.0, 20.0, 20.0), (60.0, 2.0, 2.0, 5.0, 0.4)),
        ]
        fit_anchor_3d_stats(grid, objs)
        np.testing.assert_allclose(grid.stats3d[0], [50.0, 1.5, 1.5, 4.0, 0.2])

    def test_unmatched_template_gets_global_mean(self):
        # a tiny template never reaches IoU 0.5 with a large object
        grid = generate_anchor_grid((4, 4), stride=8, sizes=[4.0, 20.0], ratios=(1.0,))
        obj = (Box2D.from_center(12.0, 12.0, 20.0, 20.0), (42.0, 1.5, 1.4, 3.8, 0.3))
        fit_anchor_3d_stats(grid, [obj])
        np.testing.assert_allclose(grid.stats3d[0], [42.0, 1.5, 1.4, 3.8, 0.3])
        np.testing.assert_allclose(grid.stats3d[1], [42.0, 1.5, 1.4, 3.8, 0.3])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        grid = generate_anchor_grid((6, 8), stride=8, sizes=[12.0, 24.0, 48.0])
        objs = []
        for _ in range(12):
            w = rng.uniform(8.0, 60.0)
            h = w * rng.uniform(0.6, 1.6)
            cx, cy = rng.uniform(0, 64), rng.uniform(0, 48)
            objs.append((Box2D.from_center(cx, cy, w, h),
                         tuple(rng.uniform(1.0, 50.0, size=5))))
        fit_anchor_3d_stats(grid, objs)

        params = np.array([p for _, p in objs])
        A = grid.per_position
        global_mean = params.mean(axis=0)
        for t in range(A):
            matched = []
            for k, (box, p) in enumerate(objs):
                hit = any(
                    iou_2d(grid.anchor(flat).box2d(), box) >= 0.5
                    for flat in range(t, len(grid), A)
                )
                if hit:
                    matched.append(k)
            want = params[matched].mean(axis=0) if matched else global_mean
            np.testing.assert_allclose(grid.stats3d[t], want, atol=1e-12)

    def test_object_order_invariance(self):
        rng = np.random.default_rng(4)
        objs = [(Box2D.from_center(rng.uniform(5, 40), rng.uniform(5, 40),
                                   rng.uniform(10, 30), rng.uniform(10, 30)),
                 tuple(rng.uniform(1.0, 9.0, size=5))) for _ in range(8)]
        g1 = generate_anchor_grid((6, 6), sizes=[16.0, 24.0])
        g2 = generate_anchor_grid((6, 6), sizes=[16.0, 24.0])
        fit_anchor_3d_stats(g1, objs)
        fit_anchor_3d_stats(g2, objs[::-1])
        np.testing.assert_allclose(g1.stats3d, g2.stats3d, atol=1e-12)

    def test_empty_labels_error(self):
        grid = generate_anchor_grid((2, 2), sizes=[16.0])
        with pytest.raises(ValueError, match="empty"):
            fit_anchor_3d_stats(grid, [])


class TestStatsIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = generate_anchor_grid((3, 3), sizes=[16.0, 24.0])
        grid.stats3d = rng.uniform(0.5, 60.0, size=grid.stats3d.shape)
        path = tmp_path / "stats.txt"
        save_anchor_stats(grid, path)
        fresh = generate_anchor_grid((3, 3), sizes=[16.0, 24.0])
        load_anchor_stats(fresh, path)
        np.testing.assert_allclose(fresh.stats3d, grid.stats3d, atol=1e-7)
        np.testing.assert_allclose(fresh.templates, grid.templates, atol=1e-7)

    def test_load_rejects_wrong_bank(self, tmp_path):
        grid = generate_anchor_grid((2, 2), sizes=[16.0])
        path = tmp_path / "stats.txt"
        save_anchor_stats(grid, path)
        other = generate_anchor_grid((2, 2), sizes=[16.0, 24.0])
        with pytest.raises(ValueError, match="template bank"):
            load_anchor_stats(other, path)

    def test_load_rejects_short_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="8 fields"):
            load_anchor_stats(generate_anchor_grid((1, 1), sizes=[16.0]), path)
