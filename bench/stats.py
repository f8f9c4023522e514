"""The benchmark's own arithmetic: tail percentiles, failure ratios,
span self times and ``-X importtime`` parsing.

Everything here is pure and stdlib-only, so ``test_stats.py`` can check
it on tiny synthetic inputs without importing the library.
"""

from __future__ import annotations

import math

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile must leave at least this many samples above it.
TAIL_MIN_ABOVE = 10


def tail_percentile(values):
    """The highest percentile of ``TAIL_LADDER`` that leaves at least
    ``TAIL_MIN_ABOVE`` samples strictly above its rank.

    Returns ``(percentile, value, samples_above)``, or ``None`` when even
    the median leaves too few samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank, 1-based
        if n - rank >= TAIL_MIN_ABOVE:
            return pct, ordered[rank - 1], n - rank
    return None


class OpLog:
    """Attempted and failed operations of one run.

    Every operation counts in the base, whether it returned, failed its
    check or raised; the first few failure messages are kept.
    """

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(message)

    def merge(self, attempted: int, failed: int, messages=()):
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(list(messages)[: max(0, self.KEEP - len(self.messages))])

    @property
    def fail_ratio(self) -> float:
        if self.attempted == 0:
            raise ValueError("fail_ratio needs at least one attempted operation")
        return self.failed / self.attempted


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the durations of its
    direct children.

    ``parents[i]`` is the index of the parent span or -1.  A
    single-threaded tracer's spans nest, so children never overlap and
    never outlast their parent.
    """
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [end - start - c for start, end, c in zip(starts, ends, covered)]


def sum_by_name(names, values):
    out: dict = {}
    for name, value in zip(names, values):
        out[name] = out.get(name, 0.0) + value
    return out


def parse_importtime(stderr_text):
    """Cumulative import seconds per top-level module name from the
    ``-X importtime`` lines on stderr (first occurrence wins)."""
    out: dict[str, float] = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the header line
        out.setdefault(fields[2].strip(), cumulative_us / 1e6)
    return out
