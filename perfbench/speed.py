"""The speed of this core, sampled while a timed operation runs.

On a shared host, other tenants slow a core by up to 1.9x, in phases
that last from seconds to minutes, so a raw time measures the neighbours
as much as the program.  `SpeedProbe` runs a fixed reference kernel from
a SIGALRM handler every `INTERVAL_S` seconds while the operation runs,
and `EDGE_SAMPLES` times just before and just after it.  The kernel does
not touch hophase: it mixes the kinds of work the workloads do
(interpreted Python, small numpy and sparse operations on a 501-point
grid, numpy passes over 50 000 values, a pass over 8 MB that leaves the
caches), so it slows down with them.  The operation's wall time, less
the time spent in the kernel, divided by the kernel's mean time and
multiplied by `REFERENCE_S`, is its time at the reference speed
(`normalized`).  The samples taken just before the operation give the
speed of the set-up that precedes it (`entry_scale`).

Python runs signal handlers between bytecodes of the main thread, so a
sample never interrupts a numpy or scipy call half-way and never changes
a result; it waits for the next Python-level step.
"""

import signal
import time

import numpy as np
import scipy.sparse

INTERVAL_S = 0.25
EDGE_SAMPLES = 3
#: the kernel's mean time on an unloaded core of a 2-core Intel Xeon VM
#: (2.0 GHz): the speed that times are rescaled to
REFERENCE_S = 0.0058

_WIDE = np.random.default_rng(0).standard_normal(50_000)
_SMALL = np.linspace(-1.0, 1.0, 501)
_STENCIL = scipy.sparse.diags(
    [1.0, -2.0, 1.0], [-1, 0, 1], shape=(501, 501), format="csr"
)
_LARGE = np.random.default_rng(1).standard_normal(1_000_000)


def kernel():
    """A fixed mix of interpreted, small-array, wide-array and
    out-of-cache work."""
    table = {}
    for i in range(8000):
        table[i & 255] = i * i
    total = 0.0
    for _ in range(150):
        v = _STENCIL @ _SMALL
        y = v * v - 1.0
        total += float(y @ y)
    for _ in range(3):
        total += float(np.sum(np.sin(_WIDE) * _WIDE))
    total += float(np.dot(_LARGE, _LARGE)) + float(_LARGE[::7].sum())
    return total


class SpeedProbe:
    """Context manager that samples `kernel()` times during its block."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        kernel()  # the first call pays one-off costs; it is no sample
        self.samples = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return False

    @property
    def spent_s(self):
        """Time spent in the kernel during the block."""
        return sum(self.samples[EDGE_SAMPLES:-EDGE_SAMPLES])

    @property
    def mean_s(self):
        return sum(self.samples) / len(self.samples)

    @property
    def entry_scale(self):
        """Factor that rescales a time taken just before the block to the
        reference speed."""
        return REFERENCE_S * EDGE_SAMPLES / sum(self.samples[:EDGE_SAMPLES])

    def normalized(self, wall_s):
        """`wall_s`, measured around the block, net of the samples taken
        inside it and rescaled to the reference speed."""
        return (wall_s - self.spent_s) * REFERENCE_S / self.mean_s
