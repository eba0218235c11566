"""Host-speed probe: scales a measured time to a reference host speed.

The benchmark runs on one CPU (``run.py`` pins it).  A :class:`HostProbe`
thread shares that CPU with the work being timed and times a fixed unit of
work at regular intervals; :func:`scaled_s` turns a measured time into the
time it would have taken on a host whose probe unit takes ``REF_UNIT_S``.
See ``README.md`` for why and for what it costs.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PROBE_PERIOD_S = 0.02
PROBE_STEPS = 60            # one unit: about 0.5 ms of small numpy steps
# Probe unit time that ``wall_s`` is scaled to: about the tuning host's
# typical speed, so that scaled and raw pass times read alike there.
REF_UNIT_S = 5e-4


class HostProbe(threading.Thread):
    """A thread that, every ``PROBE_PERIOD_S``, times one fixed unit of
    small numpy steps in its own CPU time (``time.thread_time``), so time
    spent waiting for the GIL or the CPU does not count.

    The benchmark was tuned on 2 vCPUs of a shared host whose speed changes
    by 10-40% within seconds and drifts over minutes, and a process's CPU
    time slows with it as much as its wall time does.  The probe shares the
    CPU of the work it times and runs while that works, so its unit time
    follows the speed the work got; see :func:`scaled_s`.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.units: list[tuple[float, float]] = []  # (perf_counter at start, CPU s)
        self._A = 0.1 * np.random.default_rng(0).normal(size=(6, 6))

    def run(self):
        while not self.halt.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            c0 = time.thread_time()
            x = np.ones(6)
            last = {}
            for i in range(PROBE_STEPS):
                k1 = self._A @ x
                x = x + 0.01 * (self._A @ (x + 0.005 * k1))
                last[i % 7] = float(x[0])
            self.units.append((start, time.thread_time() - c0))

    def stop(self) -> list[tuple[float, float]]:
        self.halt.set()
        self.join()
        return self.units


def scaled_s(spans, units) -> tuple[float, float]:
    """(time in ``spans`` scaled to the reference host speed, mean probe
    unit time).

    The time is the length of the ``(start, end)`` spans minus the probe's
    own CPU time in them, times ``REF_UNIT_S`` over the mean time of the
    probe units that started inside them (of all ``units`` when none did).
    """
    inside = [cpu for start, cpu in units
              if any(t0 <= start < t1 for t0, t1 in spans)]
    busy = sum(t1 - t0 for t0, t1 in spans) - sum(inside)
    sample = inside or [cpu for _, cpu in units] or [REF_UNIT_S]
    mean_unit = sum(sample) / len(sample)
    return busy * REF_UNIT_S / mean_unit, mean_unit
