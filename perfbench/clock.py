"""Op timings scaled to a reference CPU speed.

On a shared 2-core box the CPU speed swings by about a third over a few
seconds. While a :class:`Clock` runs, a SIGALRM handler times a small
fixed kernel every ``PERIOD_S`` seconds: a Python loop, plus four 64x64
matrix products into preallocated buffers once :meth:`Clock.use_numpy`
has been called (numpy code slows down more than pure Python, and tracks
pinset's slowdown better). The handler runs the kernel twice and times
the second run only, so that the tick measures the CPU's speed rather
than what the measured code left in the caches: timed cold, the kernel
ran 19 to 22 % faster after small Python-heavy ops than after 8192x256
matrix products, and 9 to 22 % slower after 100 MB copies; timed warm,
0 to 2 % faster and 5 to 8 % slower. Each tick records the speed factor
``nominal / measured`` of its kernel. An op's time is its wall time less
the handler's own time inside it, multiplied by the median speed factor
of the ticks within ``WINDOW_S`` of the op. A scaled millisecond is therefore a millisecond at the speed
where the kernels take their nominal times, their typical times on a
quiet 2-core x86-64 box at one BLAS thread. Raw wall times are kept too.

The module imports only the standard library, so a clock can run while
numpy and pinset are imported. All times come from ``time.monotonic``,
which is system-wide, so a mark taken in one process can be compared
with one taken in another.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW_S = 0.5
NOMINAL_LOOP_MS = 0.06
NOMINAL_NUMPY_MS = 0.12


class Clock:
    def __init__(self):
        self.tick_at: list[float] = []  # end of each kernel run
        self.tick_ms: list[float] = []
        self.tick_factor: list[float] = []
        self.spent = 0.0  # seconds inside the handler so far
        self._np = None
        self._matrix = None
        self._product = None
        self._scaled = None

    def use_numpy(self, np) -> None:
        """Add the matrix products to the kernel from now on."""
        self._product = np.empty((64, 64))
        self._scaled = np.empty((64, 64))
        self._matrix = np.arange(4096.0).reshape(64, 64) / 4096.0
        self._np = np

    def _kernel(self) -> float:
        """Run the kernel; return its nominal milliseconds."""
        s = 0
        for i in range(1200):
            s += i * i
        if self._matrix is None:
            return NOMINAL_LOOP_MS
        np, m = self._np, self._matrix
        for _ in range(4):
            np.matmul(m, self._matrix, out=self._product)
            np.maximum(self._product, 0.0, out=self._product)
            m = np.multiply(self._product, 0.01, out=self._scaled)
        return NOMINAL_NUMPY_MS

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        self._kernel()  # warms the caches; only the second run is timed
        t1 = time.monotonic()
        nominal = self._kernel()
        t2 = time.monotonic()
        self.tick_at.append(t2)
        self.tick_ms.append((t2 - t1) * 1e3)
        self.tick_factor.append(nominal / self.tick_ms[-1])
        self.spent += t2 - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float]:
        return time.monotonic(), self.spent

    def speed_factor(self, start: float, end: float) -> float:
        """Median speed factor of the ticks near [start, end]."""
        lo = bisect.bisect_left(self.tick_at, start - WINDOW_S)
        hi = bisect.bisect_right(self.tick_at, end + WINDOW_S)
        if hi <= lo:  # no tick nearby: use the nearest ones
            mid = bisect.bisect_left(self.tick_at, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.tick_at), mid + 2)
        if hi <= lo:
            raise RuntimeError("the clock recorded no kernel times")
        return statistics.median(self.tick_factor[lo:hi])

    def interval(self, m0, m1) -> tuple[float, float]:
        """(raw ms, scaled ms) between two marks."""
        raw = ((m1[0] - m0[0]) - (m1[1] - m0[1])) * 1e3
        return raw, raw * self.speed_factor(m0[0], m1[0])
