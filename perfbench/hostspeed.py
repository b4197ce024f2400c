"""Host-speed correction for the benchmark's times.

The VM this benchmark was built on changes speed under its feet: identical
rounds ran 1.7x apart in runs minutes apart, a pure-Python loop slowed with
them, and process CPU time moved with wall time, so the spread is host
speed, not scheduling.  The correction times a fixed calibration kernel
between operations, at least every EVERY_S of measured time, and rescales
each stretch of measured time by REFERENCE_S over the mean of the two
kernel times that bracket it: the time the stretch would have taken on a host
where the kernel takes REFERENCE_S.  The kernel is benchmark code and
never changes with mmlab, so a change to mmlab moves corrected times as
it moves raw ones.

The kernel mixes the four kinds of work mmlab's time goes to, because the
host's slowdowns hit them unequally: an interpreter loop, many small numpy
calls (like the per-row searches of the constant fit), a broadcast
comparison (like the metric kernels' tiles) and gathers through a 4 MB
index (like the cube curves' bitset growth).  It takes about 50 ms and
holds about 20 MB, which the in-process workloads' peak_rss_mb includes.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.050   # the kernel's median time on the reference VM
EVERY_S = 0.5

_rng = np.random.default_rng(0)
_TILE = _rng.integers(0, 2, (300, 64), dtype=np.uint8)
_SORTED = np.sort(_rng.uniform(size=300))
_BITS = _rng.integers(0, 2, 1 << 20).astype(bool)
_INDEX = np.arange(1 << 20, dtype=np.int32) ^ 12345


def kernel_seconds():
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * 2
    for i in range(2_000):
        np.searchsorted(_SORTED, _SORTED[i % 300] + 0.1)
    (_TILE[:, None, :] != _TILE[None, :, :]).mean(axis=2)
    for b in range(4):
        _BITS[_INDEX ^ (1 << b)]
    return time.perf_counter() - t0


class Clock:
    """Adds up measured seconds, raw and corrected for host speed.  Call
    `add` after each operation and `close` at the end of a round."""

    def __init__(self):
        self._kernel = kernel_seconds()
        self._stretch = 0.0
        self.raw = 0.0
        self.corrected = 0.0

    def add(self, seconds):
        self.raw += seconds
        self._stretch += seconds
        if self._stretch >= EVERY_S:
            self.close()

    def close(self):
        """Time the kernel and rescale the stretch since the last one."""
        kernel = kernel_seconds()
        self.corrected += self._stretch * REFERENCE_S / ((self._kernel + kernel) / 2)
        self._kernel = kernel
        self._stretch = 0.0

    def take(self):
        """(raw, corrected) seconds since the last take; closes the stretch."""
        self.close()
        out = (self.raw, self.corrected)
        self.raw = self.corrected = 0.0
        return out
