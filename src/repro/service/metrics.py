"""Live service metrics, built on :mod:`repro.obs.counters`.

One :class:`ServiceMetrics` per service instance aggregates:

* **admission** — submissions accepted / rejected (``queue_full``,
  ``shutting_down``);
* **coalescing** — how many submissions attached to an in-flight
  execution instead of executing, and how many the cache answered at
  admission (``cache_answers``);
* **execution** — sweeps handed to an executor, completed, failed,
  timed out, cancelled, plus per-job disk-cache traffic summed from the
  :class:`~repro.core.cache.SweepCache` counters of each execution and
  each admission answer;
* **latency** — submit→terminal wall time, exported as count/mean/
  p50/p95/max over a sliding window.

Gauges (queue depth, in-flight executions, drain state) live on the
server and are injected at snapshot time, so this module stays free of
any event-loop coupling.
"""

from __future__ import annotations

import time

from ..obs.counters import CounterSet, LatencyWindow

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Counters + latency window + uptime for ``GET /v1/metrics``."""

    def __init__(self, latency_window: int = 2048):
        self.counters = CounterSet()
        self.latency = LatencyWindow(maxlen=latency_window)
        self._started = time.monotonic()

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        self.counters.inc(name, delta)

    def observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)

    def record_cache_traffic(self, cache) -> None:
        """Fold one execution's or admission answer's :class:`SweepCache`
        counters in."""
        if cache is None:
            return
        self.counters.inc("cache_hits", cache.hits)
        self.counters.inc("cache_misses", cache.misses)
        self.counters.inc("cache_stores", cache.stores)
        self.counters.inc("cache_evictions", cache.evictions)

    # -- export ------------------------------------------------------------------

    def snapshot(
        self, *, queue_depth: int, in_flight: int, jobs_tracked: int, draining: bool
    ) -> dict:
        """The ``GET /v1/metrics`` body."""
        return {
            "uptime_s": time.monotonic() - self._started,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "jobs_tracked": jobs_tracked,
            "draining": draining,
            "counters": self.counters.as_dict(),
            "latency": self.latency.as_dict(),
        }
