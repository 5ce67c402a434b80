"""Machine-speed reference used to adjust the end-to-end times.

On a shared host the speed of one core drifts by a third or more over
seconds to minutes with the work unchanged, so raw wall times of two runs
differ more than any change worth detecting.  While a timed region runs, a
``SIGALRM`` handler in the same thread times a fixed ~3 ms computation
(pure-Python loops, small numpy ops and JSON, the mix the program runs, and
no code of the program) every ``PERIOD_S`` seconds.  The region's wall time,
less the time spent in the handler, is scaled by the mean of
``NOMINAL_S / sample``: on a core that runs the reference in exactly
``NOMINAL_S`` the adjusted time equals the wall time.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 0.003
_X = np.linspace(0.0, 1.0, 55)
_DOC = {"rows": [{"id": f"q-{i:04d}", "v": i * 0.5, "t": "<answer>x</answer>"} for i in range(40)]}


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def _work() -> int:
    total = _edit_distance("kitten sitting on the mat", "sitting kitten at the mall")
    for _ in range(4):
        total += _edit_distance("a person walks near", "the person walked near")
    for _ in range(75):
        p = np.exp(3.0 * _X - 3.0)
        p = p / p.sum()
        order = np.argsort(-p, kind="stable")
        total += int(np.searchsorted(np.cumsum(p[order]), 0.9))
    for _ in range(4):
        total += len(json.loads(json.dumps(_DOC, sort_keys=True))["rows"])
    return total


def reference_s() -> float:
    """Median wall time of five runs of the reference, after one warm-up."""
    _work()
    times = []
    for _ in range(5):
        t0 = perf_counter()
        _work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Samples the reference every PERIOD_S seconds while active.

    Use as a context manager in the main thread; ``time`` runs a region and
    returns its result, wall seconds and reference-speed seconds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        # With the collector off the sample's cost cannot depend on the size
        # of the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _work()
            dt = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(fn(), wall seconds, reference-speed seconds), sampling excluded."""
        self.sample()
        first, spent = len(self.samples) - 1, self.spent
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0 - (self.spent - spent)
        self.sample()
        speedup = statistics.fmean(NOMINAL_S / s for s in self.samples[first:])
        return result, wall, wall * speedup
