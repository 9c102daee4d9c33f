"""Host-speed calibration.

The shared host this benchmark was built on changes speed by up to ~1.6x from
one stretch of a few seconds to the next, and not uniformly: at times
large-array numpy slows while interpreter-bound code does not. Raw wall times
move far more than the changes the benchmark is meant to catch. So every
timed segment is followed by a fixed calibration kernel that never touches
mono3d, timed in four parts:

- `small`: interpreter-bound numpy on small arrays (like the toy network's
  per-tap convolution loops and its tape);
- `python`: plain Python arithmetic on tuples (like polygon clipping,
  matching and decoding);
- `big`: a matmul and elementwise numpy on arrays of the 64-channel block's
  size;
- `stream`: elementwise passes and a gather over 3 MB of such arrays, bound
  by memory rather than arithmetic (like `align_conv`'s sampling).

The parts weigh the same on every workload, so the weights are not fitted
to the balance of any workload's work as the code stands today. A
segment's normalized time is its wall time times
`sum(REFERENCE_S) / sum(mean of the part times measured before and after)`,
which reads as seconds on the reference host.
"""

from __future__ import annotations

import time

import numpy as np

PARTS = ("small", "python", "big", "stream")
CAL_MIN_S = 0.01   # calibration after each timed segment: at least this long,
CAL_SHARE = 0.1    # and at least this share of the segment's own time

# Part times, rounded, of the reference host in its faster state (2-vCPU Xeon
# VM, numpy 2.4, OpenBLAS 0.3.31, one thread); normalized times read as
# seconds on that host.
REFERENCE_S = np.array([0.0011, 0.0007, 0.0007, 0.0008])


class Calibration:
    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.small = rng.normal(size=(4, 8, 8, 12))
        self.small_w = rng.normal(size=(8, 8, 3, 3))
        self.points = [tuple(map(float, p)) for p in rng.normal(size=(8, 2))]
        self.big = rng.normal(size=(64, 24 * 80))
        self.big_w = rng.normal(size=(64, 64))
        self.big_out = np.empty_like(self.big)
        self.stream = rng.normal(size=(3, 64, 24 * 80))
        self.stream_out = np.empty_like(self.stream)
        self.gather_idx = rng.integers(self.big.size, size=self.stream.size // 4)
        self.gather_out = np.empty(self.gather_idx.size)

    def _small(self):
        out = np.zeros((4, 8, 6, 10))
        for _ in range(2):
            for i in range(3):
                for j in range(3):
                    for c in range(8):
                        out += self.small[:, c, i:i + 6, j:j + 10][:, None] \
                            * self.small_w[None, :, c, i, j, None, None]
        return float(out.sum())

    def _python(self):
        acc = 0.0
        for _ in range(1000):
            prev = self.points[-1]
            for p in self.points:
                acc += (p[0] - prev[0]) * (p[1] + prev[1]) if p[0] >= prev[0] else prev[1] - p[1]
                prev = p
        return acc

    def _big(self):
        # In place: a fresh result of this size comes from newly mapped pages,
        # and their page faults cost more or less depending on what the
        # workload left in the allocator, not on the host's speed.
        y = np.matmul(self.big_w, self.big, out=self.big_out)
        y *= 0.05
        np.tanh(y, out=y)
        y += self.big
        return float(y.sum())

    def _stream(self):
        y = np.multiply(self.stream, 0.5, out=self.stream_out)
        y += self.stream
        g = np.take(self.stream[0].ravel(), self.gather_idx, out=self.gather_out)
        return float(y[0, 0, 0] + g[0])

    def measure(self, budget_s):
        """Median time of each kernel part, over rounds filling about `budget_s`."""
        times = []
        deadline = time.perf_counter() + budget_s
        while not times or time.perf_counter() < deadline:
            row = []
            for part in (self._small, self._python, self._big, self._stream):
                t0 = time.perf_counter()
                part()
                row.append(time.perf_counter() - t0)
            times.append(row)
        return np.median(np.array(times), axis=0)


class Clock:
    """Times one operation or set-up in segments, calibrating between them.

    The calibration is never inside a segment. Long operations call
    `checkpoint()` between their steps so the normalization follows speed
    changes during the operation.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.kernel_times = [calibration.measure(CAL_MIN_S)]
        self.wall = self.normalized = 0.0
        self._t0 = 0.0

    def start(self):
        self.wall = self.normalized = 0.0
        self._t0 = time.perf_counter()

    def elapsed(self):
        """Wall time so far, calibration excluded."""
        return self.wall + time.perf_counter() - self._t0

    def pause(self):
        """Close the running segment; returns its wall time."""
        seconds = time.perf_counter() - self._t0
        self.wall += seconds
        return seconds

    def calibrate(self, seconds):
        """Measure the host after a segment of `seconds`; add its normalized time."""
        self.kernel_times.append(
            self.calibration.measure(max(CAL_MIN_S, CAL_SHARE * seconds)))
        host = 0.5 * (self.kernel_times[-2] + self.kernel_times[-1])
        self.normalized += seconds * REFERENCE_S.sum() / host.sum()

    def checkpoint(self):
        self.calibrate(self.pause())
        self._t0 = time.perf_counter()

    def stop(self):
        """End the timing; returns (wall seconds, normalized seconds)."""
        self.calibrate(self.pause())
        return self.wall, self.normalized
