"""Service overhead — what the job server costs over the bare runner.

The experiment service (``repro.service``) wraps the sweep runner in
an asyncio HTTP server with admission control and coalescing.  Its
design goal is that the wrapper costs microseconds-to-milliseconds per
submission while executions dominate, and that a warm (fully cached)
submission answers in roughly an HTTP round trip.  This benchmark
measures exactly that, end to end through real sockets:

* cold sweep through the service vs ``run_jobs`` directly — the
  wrapper overhead on a real execution;
* warm resubmission — answered from the cache at admission, one
  submit and one poll;
* a burst — N identical submissions of the finished sweep, each
  answered at admission: no execution, N responses.

Output: ``benchmarks/results/service_roundtrip.txt``.
"""

from __future__ import annotations

import asyncio
import threading
import time


from repro.core import run_jobs, write_jsonl
from repro.service import ExperimentService, ServiceClient
from repro.workloads import jobs_for

from .conftest import once

SPEC = "fig1-tiny"
BURST = 8


class _Host:
    """The service on a background thread (same shape as the e2e tests)."""

    def __init__(self, cache_dir):
        self.loop = asyncio.new_event_loop()
        self._cache_dir = cache_dir
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.service = ExperimentService(cache=str(self._cache_dir))
        self.port = self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.service.stop(drain=True), self.loop
        ).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()


def test_service_roundtrip(benchmark, results_dir, tmp_path):
    jobs = jobs_for(SPEC)

    t0 = time.perf_counter()
    direct = write_jsonl(run_jobs(jobs, cache=False))
    direct_s = time.perf_counter() - t0

    def drive():
        with _Host(tmp_path / "cache") as host, ServiceClient("127.0.0.1", host.port) as c:
            t0 = time.perf_counter()
            cold = c.wait(c.submit({"spec": SPEC})["id"], timeout=600)
            cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = c.wait(c.submit({"spec": SPEC})["id"], timeout=600)
            warm_s = time.perf_counter() - t0

            # a burst of identical submissions of the finished sweep
            t0 = time.perf_counter()
            views = [c.submit({"spec": SPEC, "priority": 1}) for _ in range(BURST)]
            finals = [c.wait(v["id"], timeout=600) for v in views]
            burst_s = time.perf_counter() - t0
            metrics = c.metrics()
        return cold, warm, finals, burst_s, cold_s, warm_s, metrics

    cold, warm, finals, burst_s, cold_s, warm_s, metrics = once(benchmark, drive)

    # correctness gates: byte-identical to the direct runner, everywhere
    assert cold["results_jsonl"] == direct
    assert warm["results_jsonl"] == direct
    assert all(f["results_jsonl"] == direct for f in finals)
    assert warm["result"]["jobs_cached"] == len(jobs)

    lines = [
        f"service roundtrip — spec {SPEC} ({len(jobs)} jobs)",
        "",
        f"{'path':<34}{'host seconds':>14}",
        f"{'run_jobs direct (no cache)':<34}{direct_s:>14.3f}",
        f"{'service cold submit':<34}{cold_s:>14.3f}",
        f"{'service warm submit (cached)':<34}{warm_s:>14.3f}",
        f"{'burst of ' + str(BURST) + ' identical submits':<34}{burst_s:>14.3f}",
        "",
        f"wrapper overhead on cold path: {cold_s - direct_s:+.3f}s",
        f"answered at admission: {metrics['counters']['cache_answers']}",
        f"executions total: {metrics['counters']['executions']}",
    ]
    out = results_dir / "service_roundtrip.txt"
    out.write_text("\n".join(lines) + "\n")

    # the wrapper must not multiply the cold path, and warm must beat cold
    assert cold_s < direct_s * 3 + 5.0
    assert warm_s < cold_s
