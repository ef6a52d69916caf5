"""Reference-speed clock for the benchmark passes.

The benchmark runs on shared virtual machines whose speed drifts: passes
of identical work take up to twice as long in some minutes as in others,
and that drift swamps the differences a change makes.  A ``SpeedProbe``
measures the drift from inside the pass and divides it out.

While the probe runs, a timer signal interrupts the pass every
``INTERVAL_S`` seconds and times one of two fixed pure-Python loops, in
turn: one of dict and tuple work, one of method calls that allocate
small objects, both with the collector off.  Signal handlers run between
bytecodes of the main thread, so the probe needs no thread and touches no
program state.  After the pass, ``ref_seconds(a, b)`` converts an
interval of the pass into reference seconds: each stretch between two
probe samples is scaled by the machine's speed around it, and the probe
samples themselves count zero.  The speed is the geometric mean over the
two loops of the loop's reference duration over its median duration in
the ``NEIGHBOURS`` samples on each side.

The reference durations are the loops' durations at the fast end of the
machine the benchmark was defined on (2-vCPU Xeon virtual machine,
Python 3.11.7).  They are a unit, not a tuning knob: changing them
rescales every time metric.  On that machine, running at that speed, a
reference second is a wall-clock second.

A loop of integer arithmetic alone tracked the drift worse than these
two, which do the kind of work the program does; ``bench/README.md``
gives the measurements.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.025
NEIGHBOURS = 2

clock = time.perf_counter


def _dict_loop() -> None:
    d: dict = {}
    for i in range(2000):
        k = (i & 31, i & 7)
        d[k] = d.get(k, 0) + len(k)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, x):
        return _Pair(self.b, x + self.a)


def _call_loop() -> None:
    p = _Pair(1, 2)
    for i in range(600):
        p = p.step(i & 15)


# (loop, reference duration in seconds)
LOOPS = ((_dict_loop, 0.0004), (_call_loop, 0.00017))


def _timed(kind: int) -> tuple[int, float, float]:
    """Run one probe loop with the collector off, so that the program's
    heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    LOOPS[kind][0]()
    end = clock()
    if enabled:
        gc.enable()
    return kind, start, end


def _speed(durations: dict[int, list[float]]) -> float:
    return statistics.geometric_mean(
        LOOPS[kind][1] / statistics.median(ds) for kind, ds in durations.items()
    )


def loop_speed(rounds: int = 5) -> float:
    """Speed relative to the reference (above 1: faster), from a few
    rounds of the probe loops run back to back."""
    durations: dict[int, list[float]] = {kind: [] for kind in range(len(LOOPS))}
    for _ in range(rounds):
        for kind in durations:
            _, start, end = _timed(kind)
            durations[kind].append(end - start)
    return _speed(durations)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[int, float, float]] = []
        self._breaks: list[float] = []
        self._slopes: list[float] = []
        self._cum: list[float] = []
        self.speed = 0.0  # over the whole pass, relative to the reference

    def _sample(self, *_) -> None:
        self.samples.append(_timed(len(self.samples) % len(LOOPS)))

    def start(self) -> None:
        for _ in LOOPS:
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in LOOPS:
            self._sample()
        starts: dict[int, list[float]] = {kind: [] for kind in range(len(LOOPS))}
        durations: dict[int, list[float]] = {kind: [] for kind in range(len(LOOPS))}
        for kind, start, end in self.samples:
            starts[kind].append(start)
            durations[kind].append(end - start)
        self.speed = _speed(durations)
        # The rate is 0 inside a sample and, after it, the speed measured
        # by the samples of each loop nearest to it.
        for _, start, end in self.samples:
            around = {}
            for kind in starts:
                j = bisect.bisect_right(starts[kind], start)
                around[kind] = durations[kind][max(0, j - NEIGHBOURS):j + NEIGHBOURS]
            self._breaks += [start, end]
            self._slopes += [0.0, _speed(around)]
        self._cum = [0.0]
        for i in range(1, len(self._breaks)):
            self._cum.append(self._cum[-1] + self._slopes[i - 1] * (self._breaks[i] - self._breaks[i - 1]))

    def _ref(self, t: float) -> float:
        i = bisect.bisect_right(self._breaks, t) - 1
        if i < 0:  # before the first sample: the speed after it
            return (t - self._breaks[0]) * self._slopes[1]
        return self._cum[i] + self._slopes[i] * (t - self._breaks[i])

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds between clock readings ``a`` and ``b``."""
        return self._ref(b) - self._ref(a)

    def probe_seconds(self, a: float, b: float) -> float:
        """Wall-clock seconds the probe itself took between ``a`` and ``b``."""
        return sum(max(0.0, min(end, b) - max(start, a)) for _, start, end in self.samples)
