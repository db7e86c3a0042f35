"""Host time in reference seconds.

The host this benchmark runs on changes speed by up to half, in phases
from a fraction of a second to minutes, and the changes hit wall and
CPU time alike.  A run of the same code can therefore read a third
slower than the run before it.  ``SteadyClock`` takes that out: while
it runs, a timer signal pauses the measured code every ``INTERVAL``
seconds and times a fixed piece of interpreter work, the *reference*.
Each stretch of measured code is divided by the mean of the reference
samples on either side of it, and the sum is scaled by ``REF_S``.

The reference lives in this file, so it is the same on every commit
compared: a change to the program moves the result by the change's
own share, while a host that runs everything slower moves the
measured code and the reference together.  Time spent in the
reference is not counted.  The measured code is paused only between
bytecodes and nothing of its state is touched, so it computes exactly
what it would compute unobserved.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: Seconds of measured code between two reference samples.
INTERVAL = 0.05
#: Loop iterations of one reference pass.
REF_ITERATIONS = 1000
#: Passes per sample; a sample is the fastest, so that a pass cut by
#: an interrupt does not count.
REF_PASSES = 2
#: Nominal time of one reference pass.  On the 2-vCPU Intel Xeon VM the
#: benchmark was tuned on, passes took 1.4 to 2.8 ms as the host's speed
#: changed.  Results read as seconds on a host that runs a pass in
#: exactly this time.
REF_S = 0.0020


class _Event:
    __slots__ = ("at", "node", "size")

    def __init__(self, at, node, size) -> None:
        self.at = at
        self.node = node
        self.size = size


def _server(n: int):
    busy = 0.0
    for _ in range(n):
        busy += yield
    return busy


def reference(n: int = REF_ITERATIONS) -> int:
    """A small discrete-event loop of the simulator's kind: a heap of
    timed events, slotted objects, dict and tuple traffic, generators
    resumed with values.  Deterministic; returns a checksum."""
    heap = []
    table = {}
    servers = [_server(n) for _ in range(8)]
    for s in servers:
        next(s)
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(
            heap, (x % 9973 * 1e-6 + i * 1e-5, i, _Event(i, x & 7, x & 4095))
        )
        if len(heap) > 64:
            at, _seq, ev = heapq.heappop(heap)
            key = (ev.node, ev.size >> 6)
            table[key] = table.get(key, 0) + ev.size
            servers[ev.node].send(at)
    return len(table)


def _sample() -> tuple:
    """Fastest (wall, cpu) of ``REF_PASSES`` reference passes.  The
    collector is held off so the measured code's garbage is not
    collected on the reference's time, and the reference's own garbage
    is gone before the measured code resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall = cpu = float("inf")
        for _ in range(REF_PASSES):
            c0 = time.process_time()
            t0 = time.perf_counter()
            reference()
            wall = min(wall, time.perf_counter() - t0)
            cpu = min(cpu, time.process_time() - c0)
    finally:
        if enabled:
            gc.enable()
    return wall, cpu


class SteadyClock:
    """Times the code run inside ``with`` in reference seconds.

    After the block: ``wall_s`` and ``cpu_s`` are the normalized wall
    and CPU times, ``raw_wall_s`` and ``raw_cpu_s`` the plain host
    times of the measured code (reference time excluded)."""

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = 0.0
        self.raw_wall_s = self.raw_cpu_s = 0.0
        self._previous_handler = None
        self._stopped = False

    def __enter__(self) -> "SteadyClock":
        self._ref = _sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._start()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # A tick already pending runs before this flag is set (and is
        # charged in full) or finds it set and does nothing.
        self._stopped = True
        wall, cpu = self._lap()
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._charge(wall, cpu, _sample())

    def _start(self) -> None:
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()

    def _lap(self) -> tuple:
        return time.perf_counter() - self._t0, time.process_time() - self._c0

    def _charge(self, wall: float, cpu: float, ref: tuple) -> None:
        before = self._ref
        self.raw_wall_s += wall
        self.raw_cpu_s += cpu
        self.wall_s += wall * 2 * REF_S / (before[0] + ref[0])
        self.cpu_s += cpu * 2 * REF_S / (before[1] + ref[1])
        self._ref = ref

    def _tick(self, _signum, _frame) -> None:
        if self._stopped:
            return
        wall, cpu = self._lap()
        self._charge(wall, cpu, _sample())
        self._start()
