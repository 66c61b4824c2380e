"""The ``cost-xval`` backend: cross-validation as a declarative workload.

Wrapping :func:`repro.xval.run_xval` behind the
:class:`~repro.backends.base.Backend` interface buys the xval
subsystem everything the sweep runner already provides: the on-disk
result cache (a divergence report is re-derived from cache, never
re-simulated), deterministic seeding, pool workers, and job
coalescing.  The engine's phase record is preserved on the returned
:class:`~repro.obs.RunSummary`; the full
:class:`~repro.xval.DivergenceReport` rides in ``detail["xval"]`` as a
plain dict, so it round-trips through the cache's canonical JSON
byte-identically.
"""

from __future__ import annotations

from .base import Backend, RunHandle

__all__ = ["CostXvalBackend", "make_cost_xval"]


class CostXvalBackend(Backend):
    """Pair an analytic model's per-phase predictions with an engine run.

    ``kinds`` lists every kind an engine can execute, but only pairs
    with an analytic counterpart succeed — the rest raise a structured
    :class:`~repro.errors.ConfigurationError` naming the supported
    pairs (``repro xval`` prints it as an error, not a traceback).
    """

    name = "cost-xval"
    level = "xval"
    kinds = ("rank", "cc", "chase")
    description = "Model-vs-engine per-phase divergence (repro.xval)"

    def prepare(self, workload) -> RunHandle:
        # Input generation happens inside run_xval through the engine
        # backend's own memoized prepare (both stacks must see the
        # identical input), so the handle carries only the workload.
        super_supports = self.supports(workload)
        if not super_supports:
            return super().prepare(workload)  # raises the standard error
        return RunHandle(workload=workload)

    def execute(self, handle: RunHandle):
        from ..xval import run_xval

        report, summary = run_xval(handle.workload)
        summary.name = f"xval.{report.workload}.{report.machine}"
        summary.detail["backend"] = self.name
        summary.detail["xval"] = report.to_dict()
        return summary


def make_cost_xval():
    return CostXvalBackend()
