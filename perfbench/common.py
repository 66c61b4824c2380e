"""Shared helpers: paths, the failure tally, statistics and set-up timing."""

from __future__ import annotations

import heapq
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in; the program is ``src/repro``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times set-up is repeated in one run (the median is reported).
SETUP_REPEATS = 5

#: What a fresh interpreter does before its first job can start: import
#: the package, build the backend registry, digest the sources for the
#: cache key.
_SETUP_PROBE = (
    "import repro.backends as b; b.names();"
    " from repro.core.cache import code_version; code_version()"
)


#: Median seconds :meth:`HostSpeed.sample` takes on the reference host
#: (a 2-vCPU x86-64 VM running CPython 3.11, in its slow state).
CALIBRATION_REF_S = 0.24


class HostSpeed:
    """Rescales host times to a reference host speed.

    The benchmark's shared host alternates between states whose speeds
    differ by a third, for minutes at a time, which would swamp any
    change to the program.  Between passes this class times one fixed
    loop that does the interpreter work the simulator does: resuming a
    thousand generators in rotation, chasing a shuffled table too large
    for the caches, pushing and popping a heap.  :meth:`factor` is the
    reference time of that loop over its median time in this run; every
    time the benchmark reports is multiplied by it, so a slow host
    stretches the loop and the workload alike and the two cancel.  The
    loop lives in the benchmark, so a change to the program never moves
    it.
    """

    _TABLE_BITS = 17
    _GENERATORS = 1000
    _STEPS = 150_000

    def __init__(self):
        rng = random.Random(1)
        self._table = list(range(1 << self._TABLE_BITS))
        rng.shuffle(self._table)
        self._gens = [self._stream() for _ in range(self._GENERATORS)]
        for g in self._gens:
            next(g)
        self.samples: list[float] = []

    @staticmethod
    def _stream():
        acc = 0
        while True:
            v = yield acc
            acc = (acc + v) & 0xFFFF

    def sample(self, n: int = 1) -> None:
        mask = len(self._table) - 1
        for _ in range(n):
            heap: list = []
            j = 0
            t0 = time.perf_counter()
            for i in range(self._STEPS):
                a = self._gens[i % self._GENERATORS].send(i)
                j = self._table[(j + a) & mask]
                heapq.heappush(heap, (j, i))
                if len(heap) > 64:
                    heapq.heappop(heap)
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        f = CALIBRATION_REF_S / median(self.samples)
        print(f"perfbench: host speed factor {f:.4f} over"
              f" {len(self.samples)} calibration samples", file=sys.stderr)
        return f


def src_env() -> dict:
    """Environment for a child Python that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Tally:
    """Operations attempted and failed; failure reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def note(self, message: str) -> None:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)


def median(values) -> float:
    return float(statistics.median(list(values)))


def p95(values) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * 95 // 100))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_interpreter_setup_s() -> float:
    """Median wall time of a fresh interpreter's set-up probe."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=ROOT, env=src_env(), check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return median(times)
