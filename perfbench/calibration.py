"""Host-speed calibration, so that timings from a host whose speed drifts
can be compared.

On a shared 2-CPU VM the same Python code runs up to about 1.7 times
slower in some minutes than in others, and a run of the benchmark sees one
such stretch.  So every run also times a fixed kernel, interpreter dict
work plus a small numpy sort (the two kinds of work the program does), in
short bursts before, between and during its timed phases, and reports each
timing scaled to the host speed at which the kernel takes
:data:`REFERENCE_MS`::

    reported = measured * REFERENCE_MS / mean(burst medians of the phase)

The kernel is the benchmark's own code and runs none of the program's, so a
change to the program moves the reported timings in full; only the host's
speed cancels out.  The first sample of a burst warms the kernel's caches
and is dropped, so a burst times the host, not what the program left in
the caches.  ``host.kernel_ms`` among the traced run's metrics is the mean
kernel time, i.e. how fast the host was.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, List

import numpy as np

#: Kernel time, in ms, on the reference host (a 2-CPU Intel Xeon VM in its
#: fast state); reported timings are at this host speed.
REFERENCE_MS = 0.55

#: Seconds between bursts while the live phase runs.
INTERVAL_S = 0.25

#: Samples per burst, the first of which is dropped.
BURST = 6

#: Bursts per window, around the setup trials and the recoveries, and the
#: seconds between them.
WINDOW = 4
WINDOW_GAP_S = 0.1

_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 4096)


def kernel() -> int:
    """A fixed amount of interpreter and numpy work (about 0.55 ms).

    It allocates no object the garbage collector tracks but its one dict,
    so it never sets off a collection of the program's heap.
    """
    table = {}
    total = 0
    for i in range(1200):
        key = (i << 6) | (i & 63)
        table[key] = table.get(key, 0) + i
        total += len(table) & 7
    order = np.argsort(_KEYS, kind="stable")
    return total + int(np.cumsum(_KEYS[order])[-1] & 1)


class HostSpeed:
    """Kernel bursts taken while a cycle runs, by phase.

    :meth:`burst` times the kernel back to back and keeps the median.  The
    harness takes a :meth:`window` of bursts before and after the setup
    trials and around each recovery; in the live phase the crowd calls
    :meth:`poll` at every tick boundary, which bursts once
    :data:`INTERVAL_S` seconds have passed since the last burst, so the
    bursts cover the live phase evenly even where the campaigns never
    yield the event loop.  :meth:`kernel_ms` averages a phase's bursts,
    i.e. the host's speed over the phase, and :meth:`scale` is the factor
    that brings a timing measured in the phase to the reference host
    speed.
    """

    def __init__(self) -> None:
        self.bursts: Dict[str, List[float]] = {}
        #: Seconds spent in the kernel, so a phase's wall time can omit it.
        self.busy_s = 0.0
        self._last = 0.0

    def burst(self, phase: str) -> None:
        samples = []
        for _ in range(BURST):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        self.busy_s += sum(samples)
        self.bursts.setdefault(phase, []).append(
            statistics.median(samples[1:]) * 1e3
        )
        self._last = time.perf_counter()

    async def window(self, phase: str) -> None:
        """:data:`WINDOW` bursts, :data:`WINDOW_GAP_S` apart: the host's
        speed over a stretch of time rather than at one moment."""
        for index in range(WINDOW):
            if index:
                await asyncio.sleep(WINDOW_GAP_S)
            self.burst(phase)

    def poll(self, phase: str) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.burst(phase)

    def kernel_ms(self, phase: str = "") -> float:
        """The mean kernel time in ``phase`` (in every phase if empty)."""
        if phase:
            return statistics.fmean(self.bursts[phase])
        return statistics.fmean(b for v in self.bursts.values() for b in v)

    def scale(self, phase: str) -> float:
        return REFERENCE_MS / self.kernel_ms(phase)
