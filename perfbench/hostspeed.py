"""Host speed: a fixed reference kernel timed next to the set-up probes.

On a shared host the same work can take 1.75x as long for minutes at a
time.  Measured on a 2-vCPU 2.1 GHz host, :func:`kernel` took either
~0.08 s or ~0.14 s, flipping within seconds and sitting in the slow mode
for minutes; set-up probes slowed by the same factor, and the median of
a run's probes moved by up to 70% between runs.  So each probe is
divided by a kernel sample taken just before it and multiplied by
``REF_SECONDS``: ``setup_s`` is reported in seconds at the host speed
where the kernel takes ``REF_SECONDS``.  Over the same stretch of host
time, that cut the run-to-run spread of the median probe from 42% to 5%.

The kernel uses nothing from ``repro``, so a change to the program moves
a scaled timing exactly as much as the raw one.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: The kernel's time at the host speed timings are reported at: its
#: full-speed time on the 2-vCPU 2.1 GHz host the bounds were set on.
REF_SECONDS = 0.08

#: Kernel runs per sample; a sample is the fastest of them.
REPEATS = 3


def kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    the two kinds of work the placement code does."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    counts: dict[int, int] = {}
    for i in range(150_000):
        k = rng.randrange(2000)
        counts[k] = counts.get(k, 0) + i
    a = np.arange(20_000.0)
    total = 0.0
    for _ in range(300):
        total += float(np.sort(a[::-1] * 1.0001)[:5].sum())
    return time.perf_counter() - t0


def sample() -> float:
    """The fastest of ``REPEATS`` kernel runs, in seconds."""
    return min(kernel() for _ in range(REPEATS))


def scale(ref_seconds: float) -> float:
    """Factor taking a timing made while the kernel took ``ref_seconds``
    to seconds at reference speed."""
    return REF_SECONDS / ref_seconds
