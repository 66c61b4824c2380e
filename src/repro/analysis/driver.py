"""Run the concurrency checker over registered workload/backend pairs.

This is the layer behind ``repro analyze``: it builds a backend from
the registry, executes the workload with a
:class:`~repro.analysis.checker.ConcurrencyChecker` attached, converts
engine aborts (deadlocks, cycle-budget trips) into findings instead of
letting them kill the process, and returns the finalized report.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..backends.base import Workload
from ..backends.engine import create_engine
from ..errors import DeadlockError, SimulationError
from ..sim.hooks import CheckerHook
from .checker import ConcurrencyChecker
from .findings import AnalysisReport


def analyze_workload(
    workload: Workload,
    backend_name: str = "mta-engine",
    *,
    strict: bool = False,
    max_findings: Optional[int] = None,
) -> AnalysisReport:
    """Execute ``workload`` on ``backend_name`` under the checker.

    Only cycle-engine backends can be analyzed — analytic-model
    backends never materialize an op stream.  Engine deadlocks and
    simulation aborts become findings rather than exceptions, so a
    buggy program yields a report, not a crash.  ``max_findings`` keeps
    the first findings and counts the rest in
    ``stats["dropped_findings"]``; the capped report's ``errors`` and
    ``ok()`` see only the kept ones.
    """
    backend = create_engine(backend_name)
    checker = ConcurrencyChecker(
        strict=strict, program=f"{workload.kind}/{backend_name}"
    )
    handle = backend.prepare(workload)
    try:
        backend.execute(handle, hooks=(CheckerHook(checker),))
    except DeadlockError as exc:
        # The engine already reported the blocked inventory via end_run;
        # only synthesize a finding if that somehow produced nothing.
        report_so_far = [
            f for f in checker.findings
            if f.check in ("deadlock", "barrier-mismatch", "sync-init")
        ]
        if not report_so_far:
            checker.note_abort("deadlock", str(exc))
    except SimulationError as exc:
        checker.note_abort("aborted", str(exc))
    report = checker.report()
    if max_findings is not None and len(report.findings) > max_findings:
        dropped = len(report.findings) - max_findings
        report.findings = report.findings[:max_findings]
        report.stats["dropped_findings"] = dropped
    report.stats["backend"] = backend_name
    report.stats["workload"] = workload.canonical()
    return report


def analyze_suite(
    *, strict: bool = False, max_findings: Optional[int] = None
) -> List[Tuple[str, AnalysisReport]]:
    """Analyze every registered paper program (see ``workloads.analysis_suite``)."""
    from ..workloads import paper_programs

    out: List[Tuple[str, AnalysisReport]] = []
    for name, workload, backend_name in paper_programs():
        report = analyze_workload(
            workload, backend_name, strict=strict, max_findings=max_findings
        )
        for f in report.findings:
            f.program = name
        out.append((name, report))
    return out
