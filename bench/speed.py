"""A clock that reads in nominal seconds on a host whose speed swings.

On a shared host the same code can run at half speed for seconds or minutes
at a time; wall-clock medians of one run then spread by 25-30 % from run to
run. The program and a fixed interpreter-bound kernel slow down alike, so
``NominalClock`` samples the kernel every ``PERIOD_S`` from a SIGALRM timer
and scales each stretch of wall time after a sample by
``CAL_REF_S / (that sample's kernel time)``, both when a stretch is closed at
the next sample and when ``now()`` is read inside it, so the clock never runs
backwards. The kernel's own time is left out. The result is the time the work
would take on a host where the kernel takes ``CAL_REF_S``.
"""
from __future__ import annotations

import math
import signal
import time

#: Kernel seconds on the nominal host: the 2-core host the benchmark was
#: defined on, in its fast state.
CAL_REF_S = 0.001
PERIOD_S = 0.1


class _Body:
    def __init__(self, i: int):
        self.id = f"AC{i:04d}"
        self.x, self.y = (i % 97) * 31.0, (i % 89) * 17.0
        self.z = 1000.0 + 500.0 * (i % 5)
        self.enroute = i % 3 != 0


# Like the simulator's inner loops: attribute reads on a few thousand small
# objects, distance arithmetic and tuple-keyed dict lookups.
_BODIES = [_Body(i) for i in range(3000)]
_PAIRS = {(a.id, b.id) for a, b in zip(_BODIES, _BODIES[1:])}


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc, hits = 0.0, 0
    for i in range(0, len(_BODIES), 10):
        a = _BODIES[i]
        for b in _BODIES[i + 1:i + 12]:
            if b.enroute:
                acc += math.hypot(math.hypot(a.x - b.x, a.y - b.y), (a.z - b.z) * 0.3048)
                hits += (a.id, b.id) in _PAIRS
    return time.perf_counter() - t0


class NominalClock:
    """``now()`` counts nominal seconds while started; stops with ``stop()``."""

    def __init__(self):
        # (nominal seconds at the last sample, wall time after that sample,
        # its kernel seconds): one tuple, replaced whole, so that ``now()``
        # reads a consistent state even if the timer fires while it runs.
        self._state = (0.0, 0.0, CAL_REF_S)
        self._saved_handler = None
        self.samples = 0

    def start(self) -> None:
        kernel = kernel_seconds()
        self._state = (0.0, time.perf_counter(), kernel)
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler or signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        nominal = self.now()
        kernel = kernel_seconds()
        self._state = (nominal, time.perf_counter(), kernel)
        self.samples += 1

    def now(self) -> float:
        # The wall time is read first. If the timer fires before the state is
        # read, ``t`` is earlier than the new sample, and the clamp returns the
        # nominal time of that sample: later, never earlier, than ``t``.
        t = time.perf_counter()
        nominal, last, kernel = self._state
        return nominal + max(0.0, t - last) * CAL_REF_S / kernel
