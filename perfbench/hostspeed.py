"""Timing at a reference host speed.

On a shared host, co-tenants slow the CPU itself: a fixed pure-Python loop
runs up to a third slower for minutes at a time, with no steal time to show
for it, and no in-process measure removes that. So the benchmark times each
interval twice over: its wall time and its CPU time. The waiting part (wall
minus CPU) counts as measured; the CPU part is scaled by the host speed seen
during the interval, relative to REFERENCE_S. Latency-bound work is hardly
touched; CPU-bound work is reported as it would have run at the reference
speed.

The host speed comes from a daemon thread that, every PERIOD_S, runs a small
calibration unit twice and times the second, cache-warm run by its own
thread CPU time, so neither the program's cache footprint nor waiting for
the interpreter lock counts. The sampler costs about 2 % of the timed work.
"""

from __future__ import annotations

import json
import statistics
import threading
from time import perf_counter, process_time, thread_time

# Seconds the warm calibration unit takes on the reference host (2-CPU Intel
# Xeon at 2.1 GHz, Python 3.11, while the pipeline runs). Only ratios between
# runs matter; the value keeps figures near what that host shows uncontended.
REFERENCE_S = 0.00045
PERIOD_S = 0.05

_DOC = [{"id": f"x{i}", "text": " ".join(f"w{j}" for j in range(i % 30)), "v": [i, i * 1.5, None]}
        for i in range(60)]


def _unit() -> None:
    """JSON round trip, string splitting, sorting and dict counting, like the pipeline."""
    rows = json.loads(json.dumps(_DOC))
    counts: dict[str, int] = {}
    for w in sorted(w for r in rows for w in r["text"].split()):
        counts[w] = counts.get(w, 0) + 1


def _warm_unit_seconds() -> float:
    _unit()
    t0 = thread_time()
    _unit()
    return thread_time() - t0


class Clock:
    """Times intervals at the reference host speed; use as a context manager."""

    def __init__(self):
        self._samples = [_warm_unit_seconds()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> "Clock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._samples.append(_warm_unit_seconds())

    def time(self, fn):
        """(fn's result, wall seconds, seconds at the reference host speed)."""
        n0 = len(self._samples)
        w0, c0 = perf_counter(), process_time()
        result = fn()
        wall = perf_counter() - w0
        cpu = min(process_time() - c0, wall)
        during = self._samples[n0:] or self._samples[-1:]
        speed = REFERENCE_S / statistics.fmean(during)
        return result, wall, wall - cpu + cpu * speed
