"""Host-speed reference: a fixed pure-Python kernel timed between episodes.

A shared host's speed drifts: on a 2-core x86 VM one identical paper-scale
episode took 210-375 ms within a single process, and the median episode of
a 30 s run moved by 20% from one run to the next. The kernel is timed right
after every episode, so each episode's host time can be scaled to a fixed
reference speed: ``ms * NOMINAL_MS / kernel_ms``. The kernel lives in the
benchmark, so a change to the program moves the episode times and not the
reference.

The kernel does the kinds of work the simulator does, in two halves of about
equal time: scattered reads of a dict of 20k entries feeding a heap, and an
event loop over objects with slot attributes and a heap of times. It runs with
the cyclic garbage collector off and allocates no tracked objects, so it
neither triggers nor shifts the program's collections.
"""
from __future__ import annotations

import gc
import heapq
import time

# Median kernel time on a 2-core x86 VM. Only a scale factor: scaled times
# read as host ms on a host where the kernel takes this long.
NOMINAL_MS = 11.0

_N = 20_000
_PODS = 500
_EVENTS = 6_000


class _Pod:
    __slots__ = ("busy", "load")

    def __init__(self) -> None:
        self.busy = 0.0
        self.load = 0


class HostRef:
    """The reference kernel and its data, built once per process."""

    def __init__(self) -> None:
        self.table = {i: (i * 7919) % 1_000_003 for i in range(_N)}
        self.order = [(i * 104_729) % _N for i in range(_N)]
        self.pods = [_Pod() for _ in range(_PODS)]
        self.gaps = [((i * 2_654_435_761) % 1000) / 1000.0 for i in range(4096)]
        self.sample()  # warm-up

    def _kernel(self) -> int:
        table, heap = self.table, []
        for key in self.order:
            value = table[key]
            if key & 7 == 0:
                heapq.heappush(heap, value)
        while heap:
            heapq.heappop(heap)
        pods, gaps = self.pods, self.gaps
        for pod in pods:
            pod.busy = 0.0
            pod.load = 0
        t, done = 0.0, 0
        for i in range(_EVENTS):
            t += gaps[i & 4095]
            pod = pods[(i * 37) % _PODS]
            if pod.busy <= t:
                pod.busy = t + gaps[(i * 7) & 4095] * 3.0
                pod.load += 1
                heapq.heappush(heap, pod.busy)
            while heap and heap[0] < t:
                heapq.heappop(heap)
                done += 1
        return done

    def sample(self) -> float:
        """One timing of the kernel, in ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            return (time.perf_counter() - t0) * 1e3
        finally:
            if enabled:
                gc.enable()
