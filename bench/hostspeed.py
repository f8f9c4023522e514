"""The host's speed, sampled while a workload runs.

On a shared host the same code runs up to twice as slow from one
second to the next, and the slow spells last from seconds to minutes
(CPU time grows with wall time: it is a slower processor, not time
taken by other processes).  So while the work runs, a timer interrupts
it every ``SAMPLE_EVERY_S`` and times a fixed reference kernel, written
in plain Python and independent of the library, so that no change to
the library can change the kernel's time.  Each stretch of work between
two samples is then rescaled by the reference time over the mean of
the two samples: ``Meter.reference_s`` is the work's wall time as if
the host had run at the reference speed throughout.  The samples' own
time is left out of both the raw and the rescaled time.
"""

from __future__ import annotations

import signal
import time

# The kernel's work: one pass over KERNEL_KEYS tuple keys with dict,
# set and tuple operations, as in the library's inner loops.
KERNEL_KEYS = 1 << 10
# Seconds of one kernel run at the reference speed.
REFERENCE_KERNEL_S = 0.001
# Seconds of work between two samples.
SAMPLE_EVERY_S = 0.1


def kernel() -> int:
    """Fixed pure-Python work; returns a checksum."""
    table: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    acc = 0
    for i in range(KERNEL_KEYS):
        key = ((i * 40503) & (KERNEL_KEYS - 1), i & 7)
        table[key] = table.get(key, 0) + i
        if key not in seen:
            seen.add(key)
        acc = (acc + len(key) + (i if key[1] else 0)) & 0xFFFFFFFF
    pairs = sorted(frozenset(seen) | {(0, 0)})
    return (acc + len(pairs) + sum(table.values())) & 0xFFFFFFFF


CHECKSUM = kernel()


def timed_kernel() -> float:
    """Seconds of one kernel run."""
    t = time.perf_counter()
    if kernel() != CHECKSUM:
        raise AssertionError("reference kernel is not deterministic")
    return time.perf_counter() - t


class Meter:
    """Use as ``with Meter() as m: work()``; then read ``work_s`` and
    ``reference_s``.  Main thread only.  With ``sampling=False`` only
    the samples before and after the work are taken (for traced runs,
    whose spans must not contain samples)."""

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.starts: list[float] = []  # when each sample began
        self.kernel_s: list[float] = []  # the kernel's time in each
        self.ends: list[float] = []  # when each sample ended
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a timer tick during a sample
            return
        self._busy = True
        t = time.perf_counter()
        self.kernel_s.append(timed_kernel())
        self.starts.append(t)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._sample()
        if self.sampling:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def stretches(self) -> list[float]:
        """Seconds of work between consecutive samples."""
        return [self.starts[i + 1] - self.ends[i] for i in range(len(self.starts) - 1)]

    @property
    def sample_s(self) -> float:
        """Wall time of the samples themselves."""
        return sum(e - s for s, e in zip(self.starts, self.ends))

    @property
    def work_s(self) -> float:
        """Wall time of the work, samples left out."""
        return sum(self.stretches())

    @property
    def reference_s(self) -> float:
        """Wall time of the work rescaled to the reference speed."""
        k = self.kernel_s
        return sum(
            wall * REFERENCE_KERNEL_S * 2 / (k[i] + k[i + 1])
            for i, wall in enumerate(self.stretches())
        )
