"""Machine-speed calibration for the benchmark's times.

On a shared host the same pass of the same code can take anywhere from
one to two times its quiet-machine time, in phases lasting seconds to
minutes, as other tenants load the machine.  Such phases slow every kind
of work at once, so a fixed reference computation timed just before and
just after a stretch of work measures how fast the machine ran during it.

``Clock`` times stretches of work that way.  Each stretch is scaled by
REFERENCE_S / (mean of the reference times that bracket it): the result
is the time the work would take on a machine running at the speed at
which the reference takes REFERENCE_S seconds.  The reference uses no
kernel_lab code, so it is the same on every commit, and it mixes the
kinds of work kernel_lab does: an interpreted Python loop, numpy ufuncs
and FFTs on a 64k array, and scipy ``quad`` with a Python integrand.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

# Reference time: about the time of reference() in a fast phase of a
# 2-vCPU Xeon host; it only sets the scale of the scaled times.
REFERENCE_S = 0.2

# A reference run is made between operations once the work since the
# last one reaches this many seconds.
BRACKET_S = 1.0

_ARRAY = np.linspace(-3.0, 3.0, 65536)


def reference():
    """The fixed reference computation; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(360_000):
        acc += i * i % 7
    a = _ARRAY
    for _ in range(24):
        a = np.sqrt(np.abs(np.sin(a) * 1.0001)) + 1e-3 * np.fft.irfft(np.fft.rfft(a), n=a.size)
    for k in range(1, 801):
        quad(lambda x, k=k: math.cos(x) / (1.0 + k * x * x), 0.0, 10.0)
    return time.perf_counter() - t0


class Clock:
    """Splits work into stretches bracketed by reference runs.

    Call ``start()`` before the first piece of work, ``add(seconds)``
    after each piece, and ``split()`` to close the current stretch with a
    reference run; ``split(BRACKET_S)`` closes it only once it holds that
    much work.  ``stretches`` holds (wall seconds, scaled seconds) per
    closed stretch and ``reference_s`` every reference time.
    """

    def __init__(self):
        self.stretches = []
        self.reference_s = []
        self._pending = 0.0

    def start(self):
        self.reference_s.append(reference())

    def add(self, seconds):
        self._pending += seconds

    def split(self, min_s=0.0):
        if self._pending <= 0.0 or self._pending < min_s:
            return
        self.reference_s.append(reference())
        speed = REFERENCE_S / (0.5 * (self.reference_s[-2] + self.reference_s[-1]))
        self.stretches.append((self._pending, self._pending * speed))
        self._pending = 0.0

    def wall_s(self):
        return sum(wall for wall, _ in self.stretches)

    def scaled_s(self):
        return sum(scaled for _, scaled in self.stretches)
