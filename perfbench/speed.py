"""Machine-speed probe: latencies in reference milliseconds.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 2× from one millisecond-scale stretch to the next and drifts by 20 to 25%
between 25-second windows (a fixed pure-Python loop, nothing else running).
Raw wall-clock latencies of the same code then spread across runs by more
than any useful regression bound.  So the benchmark times a fixed piece of
pure-Python work, the *probe*, right before every operation it measures, and
scales the operation's duration by ``REFERENCE_S / (median of the last
WINDOW probes)``.  A set-up, which takes seconds, is timed as a sum of short
steps with a probe before each.  A duration then reads the same whether the
host was fast or slow when it was taken; it is given in seconds of a host
on which one probe takes :data:`REFERENCE_S`.

The probe uses only the standard library and none of the program, so a change
to the program moves the scaled figures exactly as it moves the raw ones.
It allocates no container objects and runs with the garbage collector off,
so its time does not depend on the size of the program's heap.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from typing import Callable, TypeVar

T = TypeVar("T")

#: Nominal duration of one probe: the fast state of the host the bounds were
#: set on (2 vCPU Intel Xeon, Python 3.11).  Only its constancy matters.
REFERENCE_S = 0.0005
#: Probes in the sliding median that scales a duration: few, because the
#: host changes speed within tens of milliseconds.
WINDOW = 3

_WORDS = tuple(
    "select fno into answer reservation where fno in select fno from flights "
    "where dest paris and seats and price choose".split()
)
_TABLE = {word: len(word) for word in _WORDS}
_ROUNDS = 150


def _work() -> int:
    total = 0
    for round_ in range(_ROUNDS):
        for word in _WORDS:
            total += _TABLE[word] * round_ % 7
            if word.startswith("s") and word != "seats":
                total ^= hash(word) & 0xFF
    return total


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probes taken during one run and the scale they give."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)

    def sample(self, count: int = 1) -> None:
        taken = [probe() for _ in range(count)]
        self.probes.extend(taken)
        self._recent.extend(taken)

    def scale(self) -> float:
        """Factor that turns a duration measured now into reference seconds."""
        return REFERENCE_S / statistics.median(self._recent)

    def timed(self, step: Callable[[], T]) -> tuple[T, float]:
        """Probe, then run one step of a set-up: its result and reference seconds."""
        self.sample()
        scale = self.scale()
        started = time.perf_counter()
        value = step()
        return value, (time.perf_counter() - started) * scale
