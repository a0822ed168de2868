"""Reference-speed clock: times that do not wander with the host's speed.

The sandbox this ledger was sized on runs the *same* pure-Python loop in
anything from 11.3 ms to 21 ms depending on what its neighbours are doing,
in episodes of seconds to minutes (README, "Why times are reference-speed
times").  Wall-clock latencies inherit that factor of 1.8, which is wider
than any regression bound worth having.  So the harness interleaves a
small fixed computation — the *speed probe* — with the requests, and
reports every duration on a virtual clock that advances at
``REFERENCE_PROBE_SECONDS / observed probe duration`` of the wall clock:
"seconds on the reference machine at its uncontended speed".  A change to
the program cannot move the probe, so regressions still show in full; the
raw wall-clock numbers are reported beside the normalised ones as
per-layer metrics (``raw.*``, ``machine.speed``).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence

import numpy as np

#: What one probe takes on the sizing box when nothing contends with it.
#: Only the absolute scale of the reported times depends on it; ratios
#: between two commits measured on one machine do not.
REFERENCE_PROBE_SECONDS = 0.00046

#: Probes whose median sets the speed at one instant.
SMOOTHING = 5

#: A load loop probes once this much wall time has passed since the last
#: probe: two probe runs (one untimed, one timed) in every fifty.
PROBE_INTERVAL_SECONDS = 0.05

_PROBE_ARRAY = np.linspace(0.0, 1.0, 2048)


def _probe_work() -> None:
    """A fixed mix of what a request does: bytecode, dicts, heaps of
    tuples, small numpy calls.  Deterministic and allocation-bounded."""
    total = 0
    table = {}
    for i in range(3000):
        total += i * i
        table[i & 255] = (i, total)
    for _ in range(16):
        np.argsort(_PROBE_ARRAY * 1.0001)[:8].sum()


class VirtualClock:
    """Collects speed probes and maps wall instants to reference time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._mid: List[float] = []
        self._dur: List[float] = []
        self._last = 0.0

    def maybe_probe(self) -> None:
        """Probe if the last one is older than the interval."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_SECONDS:
            self.probe()

    def probe(self) -> float:
        """Run one probe now; returns the CPU time it took.

        CPU time of this thread, not wall time: while the probe waits for
        a core that the program's own workers occupy it is not running,
        and that wait is the program's doing, not the host's.  A slower
        host shows in CPU time just the same.
        """
        started = time.perf_counter()
        _probe_work()  # untimed: refill what a sleep or a switch evicted
        cpu_started = time.thread_time()
        _probe_work()
        spent = time.thread_time() - cpu_started
        ended = time.perf_counter()
        with self._lock:
            self._mid.append((started + ended) / 2.0)
            self._dur.append(spent)
            self._last = ended
        return spent

    def __len__(self) -> int:
        with self._lock:
            return len(self._dur)

    def speed(self) -> float:
        """Host speed now, as a share of the reference speed."""
        with self._lock:
            recent = self._dur[-SMOOTHING:]
        if not recent:
            self.probe()
            return self.speed()
        return REFERENCE_PROBE_SECONDS / statistics.median(recent)

    def speeds(self) -> np.ndarray:
        """The smoothed speed at every probe, in time order."""
        with self._lock:
            order = np.argsort(self._mid)
            dur = np.asarray(self._dur)[order]
        half = SMOOTHING // 2
        padded = np.pad(dur, half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING)
        return REFERENCE_PROBE_SECONDS / np.median(windows, axis=1)

    def virtual(self, stamps: Sequence[float]) -> np.ndarray:
        """Map ``perf_counter`` instants onto the reference clock.

        The virtual clock runs at the smoothed probe speed, linearly
        interpolated between probes and held constant outside them.
        """
        stamps = np.asarray(stamps, dtype=np.float64)
        with self._lock:
            mid = np.sort(np.asarray(self._mid))
        if mid.size == 0:
            raise ValueError("no speed probe was taken")
        speed = self.speeds()
        # Cumulative virtual time at each probe (trapezoid between probes).
        steps = np.diff(mid) * (speed[1:] + speed[:-1]) / 2.0
        at_probe = np.concatenate(([0.0], np.cumsum(steps)))
        inside = np.interp(stamps, mid, at_probe)
        before = np.minimum(stamps - mid[0], 0.0) * speed[0]
        after = np.maximum(stamps - mid[-1], 0.0) * speed[-1]
        return inside + before + after

    def median_speed(self) -> float:
        return float(np.median(self.speeds()))

    def spread(self) -> float:
        """Quartile distance of the raw probe durations over their median."""
        with self._lock:
            dur = list(self._dur)
        if len(dur) < 4:
            return 0.0
        q1, q2, q3 = statistics.quantiles(dur, n=4)
        return (q3 - q1) / q2
