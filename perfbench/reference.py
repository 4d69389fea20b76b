"""Reference kernel that the benchmark's in-process times are scaled by.

The shared host the benchmark runs on changes speed by up to three quarters,
for pure-Python loops and BLAS calls alike, in spells that last from seconds
to many minutes. A run of 30 seconds can fall wholly inside one, so raw
times of the same code spread by a quarter between runs. To take the host's
speed out, every timed part of a pass that runs in one long-lived process
(``study-2x2``, ``exact-5x4``) runs between two measurements of this fixed
kernel. The kernel does the kind of work ``daglm`` does: interpreter-bound
dict and integer loops, and numpy calls on small arrays. A part's time over
the mean of the two kernel times does not depend on the host's speed at
that moment. The benchmark reports that ratio times ``REFERENCE_S``: the
part's time in seconds on a host where one kernel run takes
``REFERENCE_S``. Whole processes (set-up probes, ``csv-4x4`` commands) are
timed raw: the kernel does not track their import, file and memory work.

The raw times stay in the detail line of every run.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal time of one kernel run, the scale of every reported time
REFERENCE_S = 0.010

#: kernel runs per measurement; the fastest counts, since the first run
#: after ``daglm`` work starts with cold caches
RUNS = 2

_PY_STEPS = 13_000
_NP_STEPS = 450
_VECTOR = np.linspace(0.5, 1.5, 64)
_MATRIX = np.outer(_VECTOR[:8], _VECTOR[:8])


def run() -> float:
    """Run the kernel once and return its time in seconds."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(_PY_STEPS):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        total += (i * 7) % 13
    for _ in range(_NP_STEPS):
        cumulative = np.cumsum(_VECTOR) / _VECTOR.sum()
        _MATRIX @ _MATRIX
        np.argsort(cumulative)
    return time.perf_counter() - start


def measure() -> float:
    """The kernel's time now: the fastest of ``RUNS`` runs."""
    return min(run() for _ in range(RUNS))


class Meter:
    """Times parts, each between two kernel measurements.

    With ``scale`` false the kernel never runs, so traced runs time only
    ``daglm``.
    """

    def __init__(self, scale: bool = True):
        self.scale = scale
        self.parts: list[tuple[str, float, float | None]] = []
        self._last = measure() if scale else None

    def time(self, key: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as part ``key`` with its time
        and the mean time of the kernel measurements before and after it."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            before, self._last = self._last, measure() if self.scale else None
            reference = (before + self._last) / 2 if self.scale else None
            self.parts.append((key, seconds, reference))


def scaled_s(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a kernel run of ``reference`` seconds,
    expressed at the nominal kernel time."""
    return seconds / reference * REFERENCE_S
