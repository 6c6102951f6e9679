"""Host-speed calibration for the timed runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-30 % over seconds to minutes (a busy sibling hyperthread, another
tenant). A median over a 30 s run cannot remove that drift, so each
timing is scaled to a reference host speed instead.

While a ``Sampler`` is running, a SIGALRM timer interrupts the benchmark
every INTERVAL_S and the handler runs a small fixed pure-Python kernel
(object attributes, float arithmetic, a dict and a heap, like the
simulator's inner loops) and records how long it took. Everything happens
in the one benchmark thread: the simulator is paused while the kernel
runs, and the handler's own time is subtracted from every interval it
falls into. A unit of work taking ``t`` host seconds while the kernel took
on average ``k`` seconds is reported as ``t * REFERENCE_KERNEL_S / k``:
seconds on a host where the kernel takes REFERENCE_KERNEL_S, a round figure
near its mean time when it interrupts the simulator on a 2-vCPU x86-64
cloud sandbox with CPython 3.11. The kernel
lives here and does not touch the simulator, so a change to the simulator
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time

INTERVAL_S = 0.1
KERNEL_ROUNDS = 120
REFERENCE_KERNEL_S = 0.004


class _Point:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v

    def step(self, dt: float) -> float:
        self.x += self.v * dt
        return self.x


_POINTS = [_Point(0.0, 1.0 + i % 7) for i in range(64)]
_TABLE = {i: 0.0 for i in range(256)}


def kernel() -> None:
    """Fixed work: the same operations on the same data on every call."""
    for i, point in enumerate(_POINTS):
        point.x = float(i)
    heap: list[float] = []
    for _ in range(KERNEL_ROUNDS):
        for point in _POINTS:
            x = point.step(0.1)
            if x > 100.0:
                point.x = 0.0
            key = int(x) & 255
            _TABLE[key] = _TABLE.get(key, 0.0) * 0.5 + x
            heapq.heappush(heap, x)
        while heap:
            heapq.heappop(heap)


class Sampler:
    """Samples the kernel's time on a timer; use as a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # handler entry times, ascending
        self.kernel_s: list[float] = []  # kernel time per sample
        self.busy_s: list[float] = []  # whole handler time per sample
        self._previous = None

    def __enter__(self) -> "Sampler":
        kernel()  # warm up, then take a first sample outside the timed intervals
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)
        self.busy_s.append(0.0)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # The kernel allocates floats only; keep the cyclic collector
        # out so that its time does not grow with the simulator's heap.
        collecting = gc.isenabled()
        gc.disable()
        kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.busy_s.append(time.perf_counter() - t0)

    def _window(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1))

    def busy(self, t0: float, t1: float) -> float:
        """Handler seconds that fell between t0 and t1."""
        return sum(self.busy_s[self._window(t0, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time between t0 and t1.

        Falls back to every sample so far when none fell in the interval.
        """
        samples = self.kernel_s[self._window(t0, t1)] or self.kernel_s
        return REFERENCE_KERNEL_S / statistics.fmean(samples)
