"""The speed reference: a separate process that times a fixed loop all
through a run, so that wall times can be scaled to a reference speed.

On a shared host the CPU speed drifts with other tenants' load: on a 2-vCPU
x86-64 VM a fixed pure-Python loop ran 1.8 times slower in some runs of a
ten-run set than in others, and the slow-down differed between the two
vCPUs.  So the loop runs on the workload's CPU, where it sees the same
slow-down, but in a process of its own, so that nothing the program does in
its process (memory growth, allocator or collector state) slows the
reference and is divided out of the program's timings.

    python3 perfbench/speed.py        # started by Speedometer

samples until its stdin is closed, then prints the samples as JSON: a list
of [time, seconds], time on the system-wide monotonic clock that
time.perf_counter reads on Linux.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_S = 0.002     # the loop's time at reference speed
EVERY_S = 0.1           # one sample per interval: 2 % of the CPU
WINDOW_S = 0.5          # an interval is scaled by the samples this close to it
MIN_SAMPLES = 9         # ... and by at least this many of the nearest ones
START_TIMEOUT_S = 30.0


def reference_sample() -> float:
    """Wall time of a fixed integer loop, about REFERENCE_S at reference
    speed.  It allocates no containers, so the garbage collector never runs
    inside it."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def _serve() -> None:
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        seconds = reference_sample()
        samples.append([time.perf_counter() - seconds / 2, seconds])
    print(json.dumps(samples), flush=True)


class Speedometer:
    """Starts the reference process; after `stop()`, `factor(t0, t1)` is how
    much slower than the reference speed the machine ran from t0 to t1.

    The calling process, every process it starts later and the reference
    are pinned to one CPU, the first one allowed."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        if not ready or self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed reference process did not start")
        self.times: list[float] = []
        self.samples: list[float] = []

    def stop(self) -> None:
        """End the reference process, wait for it and collect its samples."""
        if self.proc.poll() is not None:
            return
        try:
            out, _ = self.proc.communicate(input="", timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        pairs = json.loads(out.strip().splitlines()[-1]) if out.strip() else []
        self.times = [t for t, _ in pairs]
        self.samples = [s for _, s in pairs]

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S


if __name__ == "__main__":
    _serve()
