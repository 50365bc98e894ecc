"""Timings at a fixed reference speed.

On a 2-core container of a shared Intel Xeon host, the speed of the same
Python code drifts by 15-20 %, over seconds and over minutes: a fixed loop
timed in one-second blocks ranged from 85 to 113 ms, and one seed of
certify_batch gave 12.8 and 17.8 operations per second in two runs a few
minutes apart.  That drift alone is
wider than any regression bound worth having.

So every operation is followed, outside its timed window, by one run of a
fixed calibration loop that uses no towercalc code.  An operation's time
is scaled by REFERENCE_S over the median calibration time of the last
WINDOW operations: it reads as the time the operation would take on a host
that runs the loop in REFERENCE_S.  Raw times are reported alongside.

Set-ups are process starts and imports, which that loop does not track.
Each set-up sample is scaled instead by REFERENCE_START_S over the time to
start a bare interpreter that imports a few standard modules, measured
just before and just after the sample.
"""
from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from collections import deque

REFERENCE_S = 0.0006   # calibration time that defines the reference speed
WINDOW = 21            # calibrations in the running median
REFERENCE_START_S = 0.1    # start_time() that defines the reference speed for set-ups
START_IMPORTS = "import argparse, dataclasses, fractions, functools, itertools, json, random"


def calibrate() -> float:
    """Seconds for a fixed mix of integer arithmetic, dict stores and a
    keyed sort: interpreter-bound work like the library's own.  The garbage
    collector is paused, so the time does not grow with the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(3000):
            acc += (i * 2654435761) % 97
            table[i & 63] = acc
        order = sorted(range(500), key=lambda x: (x * 7919) % 500)
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc + order[3] < 0:
        raise AssertionError("unreachable")
    return seconds


class Scaler:
    """Scales each operation by a running median of calibrations."""

    def __init__(self):
        # A full window from the start, so the first operations of a fresh
        # worker (the ladder starts one after every timeout) are scaled as
        # steadily as later ones.
        self.recent: deque[float] = deque((calibrate() for _ in range(WINDOW)), maxlen=WINDOW)

    def scale(self, seconds: float) -> float:
        self.recent.append(calibrate())
        return seconds * REFERENCE_S / statistics.median(self.recent)


def start_time() -> float:
    """Wall seconds to start an interpreter that imports START_IMPORTS: the
    same kind of work as a worker's set-up, with no towercalc code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_IMPORTS], check=True)
    return time.perf_counter() - t0
