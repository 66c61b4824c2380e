#!/usr/bin/env python3
"""Run ``repro serve`` instrumented from outside, for traced runs.

Usage::

    python3 perfbench/traced_serve.py --timings T.json [--profile P.prof] -- serve ARGS

Times every ``SweepCache.get`` hit and ``put`` (written to ``T.json``
at exit).  With ``--profile``, every thread runs under its own
``cProfile`` with a per-thread CPU clock, so time the event loop and
the executor threads spend waiting counts for nothing; the merged
profile is written to ``P.prof`` when the server has drained.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--timings", required=True)
    ap.add_argument("--profile", default=None)
    args = ap.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    # import what the server would import lazily on its first jobs, so
    # the profile holds steady-state work rather than module loading
    import repro.backends  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro import cli
    from repro.core.cache import SweepCache

    timings = {"get_hit_s": [], "put_s": []}
    get, put = SweepCache.get, SweepCache.put

    def timed_get(self, key):
        t0 = time.perf_counter()
        record = get(self, key)
        if record is not None:
            timings["get_hit_s"].append(time.perf_counter() - t0)
        return record

    def timed_put(self, key, record):
        t0 = time.perf_counter()
        put(self, key, record)
        timings["put_s"].append(time.perf_counter() - t0)

    SweepCache.get, SweepCache.put = timed_get, timed_put

    profiles: list[cProfile.Profile] = []
    if args.profile:
        thread_run = threading.Thread.run

        def profiled_run(self):
            prof = cProfile.Profile(time.thread_time)
            profiles.append(prof)
            prof.enable()
            try:
                thread_run(self)
            finally:
                prof.disable()

        threading.Thread.run = profiled_run
        main_prof = cProfile.Profile(time.thread_time)
        profiles.append(main_prof)
        main_prof.enable()
    try:
        return cli.main(serve_args)
    finally:
        if args.profile:
            main_prof.disable()
            pstats.Stats(*profiles).dump_stats(args.profile)
        Path(args.timings).write_text(json.dumps(timings))


if __name__ == "__main__":
    raise SystemExit(main())
