"""Times scaled to a reference speed of the host.

The virtual machines this benchmark runs on change speed by up to a factor
of two over tens of seconds (a fixed pure-Python loop, timed back to back,
reads anywhere between 0.20 and 0.41 s within a minute, in CPU time as well
as in wall time).  Medians over a run do not remove a change that lasts as
long as the run, so raw times of the same code differ by 20-30% from run to
run.

A ``RefClock`` measures the host's current speed while a pass runs: it
times a fixed reference kernel at the start, every ``INTERVAL_S`` of wall
time (from a SIGALRM handler, so long operations are sampled inside too)
and at the end.  ``scaled(a, b)`` is the time between ``a`` and ``b`` with
the kernel's own samples taken out, each stretch weighted by
``REF_S / (kernel time nearest to it)``: the time the interval would have
taken at the speed at which the kernel takes ``REF_S`` seconds.  A change
that makes the program faster or slower changes the scaled time by the same
share; a change of host speed cancels out.

The kernel is interpreter-bound work like the library's inner loops:
integer arithmetic modulo small numbers, tuple hashing and dict look-ups,
and a few small boolean matrix products in numpy.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time, in seconds, on the 2-vCPU virtual machine
# the benchmark was written on (it read 0.6 to 1.2 ms there).  Any constant
# would do: it only sets the scale of the reported times.
REF_S = 0.001
# Sampling every 25 ms costs 3-5% of a pass, which the scaled times leave out.
INTERVAL_S = 0.025

_VECTORS = [tuple((i * k) % 8 for k in (1, 3, 5, 7)) for i in range(48)]
_INDEX = {v: i for i, v in enumerate(_VECTORS)}
_MATRIX = (np.arange(48 * 48).reshape(48, 48) % 3 == 0)


def kernel() -> int:
    """A fixed piece of work of about a millisecond.

    It allocates no objects the garbage collector tracks, so sampling does
    not move the collector's schedule in the program under test.
    """
    acc = 0
    for a in _VECTORS:
        for b in _VECTORS[:12]:
            for x, y in zip(a, b):
                acc = (acc + _INDEX[_VECTORS[(x * y + acc) % 48]]) % 65521
    reach = _MATRIX
    for _ in range(2):
        reach = reach | (reach @ _MATRIX)
    return acc + int(reach.sum())


class RefClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speeds(self) -> list[float]:
        """Kernel time of each sample, as a running median of three."""
        raw = [end - start for start, end in self.samples]
        if len(raw) < 3:
            return raw
        inner = [statistics.median(raw[i - 1 : i + 2]) for i in range(1, len(raw) - 1)]
        return [inner[0], *inner, inner[-1]]

    def scaled(self, a: float, b: float, speeds: list[float] | None = None) -> float:
        """Seconds from ``a`` to ``b`` at the reference speed, kernel runs excluded."""
        speeds = speeds or self.speeds()
        mids = [(s + e) / 2 for s, e in self.samples]
        total = 0.0
        for i, ((s, e), ref) in enumerate(zip(self.samples, speeds)):
            # Sample i stands for the stretch between the midpoints to its
            # neighbours; the first and the last reach out to any a and b.
            lo = (mids[i - 1] + mids[i]) / 2 if i else a
            hi = (mids[i] + mids[i + 1]) / 2 if i + 1 < len(mids) else b
            own = max(0.0, min(b, hi) - max(a, lo))
            busy = max(0.0, min(b, e) - max(a, s))
            total += (own - busy) * REF_S / ref
        return total
