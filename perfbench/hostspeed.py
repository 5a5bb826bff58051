"""Host speed, sampled while a pass is measured.

The benchmark runs on shared hosts, where other tenants slow this process
by up to 2x in bursts of about a second and for stretches of a minute, so
the same pass can take 5 s in one run and 9 s in the next.  A probe timed
before and after a pass misses most of that; the sampler here times it
during the pass instead.  A SIGALRM timer interrupts the process every
INTERVAL_S and the handler times a fixed pure-Python probe, of the kind of
work the library does, that no change to the library can move.  The mean
probe time over a section, over REFERENCE_S, is the section's slowdown:
how much slower than the reference machine at full speed the host ran
while the section did.  The probes' own time is kept, so that callers can
subtract it.

Pool workers forked during a section inherit no timer; their time is
scaled by the slowdown the parent sees.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# probe() at full speed on the reference machine: 2.x GHz Xeon, CPython 3.11.7
REFERENCE_S = 0.00045


def probe() -> float:
    seen = set()
    base = tuple(range(8))
    t0 = time.perf_counter()
    for i in range(400):
        u = tuple(a - b if a > b else 0 for a, b in zip(base, (i & 7,) * 8))
        if u not in seen:
            seen.add(u)
    return time.perf_counter() - t0


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.busy += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> tuple[float, float]:
        """(slowdown, seconds spent probing) since the last take; then reset.

        A section too short for the timer to fire gets one probe now."""
        if not self.samples:
            self.samples.append(probe())
        slowdown = sum(self.samples) / len(self.samples) / REFERENCE_S
        busy = self.busy
        self.samples, self.busy = [], 0.0
        return slowdown, busy
