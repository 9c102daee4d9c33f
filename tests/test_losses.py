import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d.gradcheck import grad_check
from mono3d.losses import (IOU_FLOOR, loss_2d, loss_3d, loss_cls, mine_hard,
                           per_sample_ce, smooth_l1, total_loss)
from mono3d.tensor import Tensor


def naive_ce(logits, targets):
    """Direct -log softmax probability, no stabilization tricks."""
    out = []
    for row, t in zip(logits, targets):
        p = np.exp(row) / np.exp(row).sum()
        out.append(-math.log(p[t]))
    return np.mean(out)


class TestLossCls:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        assert loss_cls(logits, [0, 1, 2], [3]).data[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=3.0, size=(8, 5))
        targets = rng.integers(0, 5, size=8)
        got = loss_cls(logits, targets, [8]).data[0]
        assert got == pytest.approx(naive_ce(logits, targets), abs=1e-12)

    def test_stable_for_huge_logits(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        val = loss_cls(logits, [0, 1], [2]).data[0]
        assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-12)

    def test_per_sample_agrees(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        targets = rng.integers(0, 3, size=6)
        per = per_sample_ce(logits, targets)
        assert per.mean() == pytest.approx(loss_cls(logits, targets, [6]).data[0], abs=1e-12)

    def test_target_shape_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            loss_cls(np.zeros((3, 2)), [0, 1], [3])

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=5)
        r = grad_check(lambda a: loss_cls(a, targets, [5]), [logits], name="ce")
        assert r.passed, str(r)


class TestLoss2d:
    def test_perfect_boxes(self):
        gt = np.array([[0.0, 0.0, 10.0, 10.0]])
        assert loss_2d(gt.copy(), gt, [1]).data[0] == pytest.approx(0.0, abs=1e-12)

    def test_half_width_overlap(self):
        gt = np.array([[0.0, 0.0, 10.0, 10.0]])
        pred = np.array([[5.0, 0.0, 15.0, 10.0]])
        assert loss_2d(pred, gt, [1]).data[0] == pytest.approx(-math.log(1.0 / 3.0), abs=1e-12)

    def test_disjoint_is_floor_clamped(self):
        gt = np.array([[0.0, 0.0, 1.0, 1.0]])
        pred = np.array([[50.0, 50.0, 51.0, 51.0]])
        assert loss_2d(pred, gt, [1]).data[0] == pytest.approx(-math.log(IOU_FLOOR), abs=1e-9)

    def test_mean_over_rows(self):
        gt = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 4.0, 4.0]])
        pred = np.array([[0.0, 0.0, 10.0, 10.0], [2.0, 0.0, 6.0, 4.0]])
        half = -math.log(8.0 / 24.0)
        assert loss_2d(pred, gt, [2]).data[0] == pytest.approx(half / 2.0, abs=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        gt = np.array([[0.0, 0.0, 12.0, 9.0], [4.0, 4.0, 20.0, 16.0]])
        pred = Tensor(gt + rng.uniform(-1.0, 1.0, size=gt.shape), requires_grad=True)
        r = grad_check(lambda a: loss_2d(a, gt, [2]), [pred], name="neglog_iou")
        assert r.passed, str(r)


class TestSmoothL1:
    def test_quadratic_branch(self):
        assert smooth_l1(Tensor(0.5)).item() == pytest.approx(0.125, abs=1e-12)

    def test_linear_branch(self):
        assert smooth_l1(Tensor(2.0)).item() == pytest.approx(1.5, abs=1e-12)
        assert smooth_l1(Tensor(-3.0)).item() == pytest.approx(2.5, abs=1e-12)

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_even_and_nonnegative(self, x):
        v = smooth_l1(Tensor(x)).item()
        assert v >= 0.0
        assert smooth_l1(Tensor(-x)).item() == pytest.approx(v, abs=1e-12)

    def test_continuous_at_knee(self):
        below = smooth_l1(Tensor(1.0 - 1e-9)).item()
        above = smooth_l1(Tensor(1.0 + 1e-9)).item()
        assert abs(above - below) < 1e-8
        assert smooth_l1(Tensor(1.0)).item() == pytest.approx(0.5, abs=1e-12)


class TestLoss3d:
    def test_sum_over_components_mean_over_rows(self):
        tgt = np.zeros((2, 7))
        pred = np.zeros((2, 7))
        pred[0, 0] = 0.5   # 0.125
        pred[1, 3] = 2.0   # 1.5
        assert loss_3d(pred, tgt, [2]).data[0] == pytest.approx((0.125 + 1.5) / 2.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            loss_3d(np.zeros((2, 7)), np.zeros((3, 7)), [2])

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        tgt = rng.normal(size=(3, 7))
        pred = Tensor(tgt + rng.uniform(-2, 2, size=tgt.shape), requires_grad=True)
        r = grad_check(lambda a: loss_3d(a, tgt, [3]), [pred], name="smooth_l1_3d")
        assert r.passed, str(r)


class TestMineHard:
    def test_top_fraction(self):
        keep = mine_hard(np.array([3.0, 1.0, 2.0, 5.0, 4.0]), 0.2, [5])
        np.testing.assert_array_equal(keep, [3])

    def test_ceil_budget(self):
        # ceil(0.2 * 6) = 2
        keep = mine_hard(np.arange(6.0), 0.2, [6])
        np.testing.assert_array_equal(keep, [4, 5])

    def test_full_fraction_keeps_all(self):
        keep = mine_hard(np.array([0.5, 0.1, 0.9]), 1.0, [3])
        np.testing.assert_array_equal(keep, [0, 1, 2])

    def test_ties_take_lower_index(self):
        keep = mine_hard(np.array([1.0, 1.0, 1.0, 1.0]), 0.25, [4])
        np.testing.assert_array_equal(keep, [0])

    def test_protected_always_kept(self):
        losses = np.array([0.1, 9.0, 0.2, 8.0, 0.3])
        keep = mine_hard(losses, 0.25, [5], protected=[0, 4])
        # budget ceil(0.25 * 3) = 1 over the unprotected pool {1, 2, 3}
        np.testing.assert_array_equal(keep, [0, 1, 4])

    def test_permutation_equivariance(self):
        # with distinct losses the chosen set ignores storage order
        rng = np.random.default_rng(5)
        losses = rng.normal(size=20)
        perm = rng.permutation(20)
        keep = {int(i) for i in mine_hard(losses, 0.3, [20])}
        keep_p = {int(perm[i]) for i in mine_hard(losses[perm], 0.3, [20])}
        assert keep_p == keep

    def test_empty(self):
        assert mine_hard(np.array([]), 0.2, [0]).size == 0


class TestSegmentMeans:
    """Each loss over several segments against one call per segment."""

    @staticmethod
    def inputs(rng, n):
        gt = np.concatenate([rng.uniform(0.0, 20.0, size=(n, 2)),
                             rng.uniform(25.0, 40.0, size=(n, 2))], axis=1)
        tgt = rng.normal(size=(n, 7))
        return [
            (loss_cls, rng.normal(size=(n, 3)), rng.integers(0, 3, size=n)),
            (loss_2d, gt + rng.uniform(-2.0, 2.0, size=gt.shape), gt),
            (loss_3d, tgt + rng.uniform(-2.0, 2.0, size=tgt.shape), tgt),
        ]

    def test_equal_per_segment_calls_and_empty_segment_reads_zero(self):
        rng = np.random.default_rng(6)
        counts = [4, 0, 1, 7]
        starts = np.cumsum(counts) - counts
        for loss, x, y in self.inputs(rng, sum(counts)):
            got = loss(x, y, segments=counts)
            assert got.shape == (4,) and got.data[1] == 0.0
            for i in (0, 2, 3):
                sl = slice(starts[i], starts[i] + counts[i])
                assert got.data[i] == pytest.approx(loss(x[sl], y[sl], [counts[i]]).data[0], rel=1e-14)

    def test_segments_must_partition_the_rows(self):
        for loss, x, y in self.inputs(np.random.default_rng(7), 3):
            with pytest.raises(ValueError, match="do not partition"):
                loss(x, y, segments=[1, 1])


def reference_mine_hard(losses, fraction, protected):
    """Hard-negative mining of one segment by a stable argsort of its pool."""
    pool = np.setdiff1d(np.arange(len(losses)), protected)
    k = int(np.ceil(fraction * pool.size))
    order = pool[np.argsort(-losses[pool], kind="stable")]
    return np.sort(np.concatenate([protected, order[:k]])).astype(np.intp)


class TestMineHardSegments:
    """The segment form against the concatenation of per-segment calls."""

    @staticmethod
    def per_segment(mine, losses, fraction, protected, counts):
        out, start = [], 0
        for c in counts:
            prot = np.array([p - start for p in protected if start <= p < start + c], dtype=np.intp)
            out.append(start + mine(losses[start:start + c], fraction, prot))
            start += c
        return np.concatenate(out).astype(np.intp)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_concatenated_per_segment_calls(self, seed):
        rng = np.random.default_rng(seed)
        # an empty segment and a fully protected one among random sizes
        counts = np.concatenate([rng.integers(1, 30, size=4), [0, 5]])
        rng.shuffle(counts)
        n = int(counts.sum())
        losses = np.round(rng.uniform(0.0, 2.0, size=n), 1)  # many ties
        starts = np.cumsum(counts) - counts
        full = starts[list(counts).index(5)] + np.arange(5)
        protected = np.union1d(full, rng.choice(n, size=n // 5, replace=False))
        fraction = float(rng.choice([0.2, 0.25, 0.5, 1.0]))
        got = mine_hard(losses, fraction, protected=protected, segments=counts)
        want = self.per_segment(reference_mine_hard, losses, fraction, protected, counts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        per_call = self.per_segment(lambda l, f, p: mine_hard(l, f, [len(l)], protected=p),
                                    losses, fraction, protected, counts)
        assert np.array_equal(got, per_call)

    def test_budget_is_per_segment(self):
        # ceil(0.25 * 3) = 1 per segment, though the global top two sit in segment 0
        keep = mine_hard(np.array([9.0, 8.0, 0.1, 0.3, 0.2, 0.4]), 0.25, segments=[3, 3])
        np.testing.assert_array_equal(keep, [0, 5])

    def test_segments_must_partition_the_rows(self):
        with pytest.raises(ValueError, match="do not partition"):
            mine_hard(np.zeros(4), 0.2, segments=[2, 1])


class TestTotalLoss:
    def test_unit_weights(self):
        assert total_loss(1.0, 2.0, 3.0).item() == pytest.approx(6.0, abs=1e-12)

    def test_gradient_flows_through_all_terms(self):
        a = Tensor(1.0, requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0, requires_grad=True)
        total_loss(a, b, c).backward()
        assert (a.grad, b.grad, c.grad) == (1.0, 1.0, 1.0)
