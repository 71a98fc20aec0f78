"""Machine-speed calibration for the benchmark's end-to-end times.

The host this benchmark was tuned on (a shared 2-core Xeon VM) drifts in
speed by up to 50% over tens of seconds, far more than the bounds allow.
Every timed operation is therefore bracketed by `calibration_s()`, and its
times are scaled by `REF_CALIB_S / (mean of the two calibrations)`: they read
as times on a machine where the calibration takes REF_CALIB_S, about its
median on that VM. The calibration is the geometric mean of two fixed
pure-Python loops -- a tight arithmetic loop and one in the style of the
library's own code (small objects, method calls, trigonometry) -- which
tracked the benchmark's operations better together than either alone. It
does not touch wedgebm, so a change to the program still moves the metrics.
This module imports nothing from wedgebm, so setup can be bracketed too.
"""

import math
import time

REF_CALIB_S = 0.005
ARITH_STEPS = 25_000
OBJECT_STEPS = 5_000


class _Point:
    __slots__ = ("r", "theta")

    def __init__(self, r, theta):
        self.r = r
        self.theta = theta

    def cartesian(self):
        return self.r * math.cos(self.theta), self.r * math.sin(self.theta)


def _object_step(p, shift):
    x, y = p.cartesian()
    x += shift
    return _Point(math.hypot(x, y), math.atan2(y, x) % (2.0 * math.pi))


def calibration_s():
    """Current cost of a fixed amount of interpreter work, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(ARITH_STEPS):
        acc += (i * 0.5) % 3.0
    t1 = time.perf_counter()
    p = _Point(1.5, 0.3)
    for k in range(OBJECT_STEPS):
        p = _object_step(p, 0.1 * (k % 5 - 2))
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def speed_factor(calib_s):
    """Scale from raw times measured at calibration calib_s to reference
    times."""
    return REF_CALIB_S / calib_s
