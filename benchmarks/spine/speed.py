"""CPU-speed normalisation: why the benchmark's times repeat at all.

This box's two virtual cores each flip, independently and for seconds
at a time, between two speeds ~25 % apart (and a third, slower still,
when the host is busy), and drift by several percent within each.  Raw
wall-clock medians of identical work differed by up to 40 % from run
to run.  A run therefore pins itself (and the server it spawns) to one
core and times a fixed pure-python loop next to every ~50 ms of
measurement; each sample is multiplied by ``PROBE_NOMINAL_S`` ÷ the
probe time measured around it.  Reported times are thus seconds *at
reference speed*; the ``speed_factor`` line of the output says how far
this run's box was from it.
"""

from __future__ import annotations

import os
import time
from typing import List, Set, Tuple

_PROBE_LOOPS = 40_000
#: What the probe takes on this box in its usual (slower) state.
PROBE_NOMINAL_S = 2.0e-3
_CHUNK_S = 0.05


def probe() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(_PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def pin_to_one_cpu(smoke: bool) -> Set[int]:
    """Pin this process (children inherit) to its highest allowed CPU;
    returns the CPUs it was allowed before.  Smoke runs check shape, not
    speed, and overlap their children: they stay unpinned."""
    allowed = os.sched_getaffinity(0)
    if not smoke:
        os.sched_setaffinity(0, {max(allowed)})
    return allowed


class SpeedScale:
    """Scales samples, in place, by the CPU speed measured around them.

    A *chunk* is the stretch between two probes.  Whoever measures
    something inside it calls :meth:`note` with the list and index the
    seconds were stored at; closing the chunk multiplies them all by
    the chunk's factor.
    """

    def __init__(self) -> None:
        self._before = probe()
        self._chunk_started = time.perf_counter()
        self._open: List[Tuple[list, int]] = []
        self.factors: List[float] = []

    def note(self, samples: list, index: int) -> None:
        """``samples[index]`` was measured in the current chunk."""
        self._open.append((samples, index))

    def tick(self) -> None:
        """Close the chunk if it has run its ~50 ms."""
        if time.perf_counter() - self._chunk_started >= _CHUNK_S:
            self.close_chunk()

    def close_chunk(self) -> None:
        after = probe()
        factor = PROBE_NOMINAL_S / ((self._before + after) / 2.0)
        for samples, index in self._open:
            samples[index] *= factor
        self._open.clear()
        self.factors.append(factor)
        self._before = after
        self._chunk_started = time.perf_counter()
