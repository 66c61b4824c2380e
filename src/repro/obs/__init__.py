"""Observability subsystem: phase tracing, contention profiling, trace export.

The engines in :mod:`repro.sim` accept an optional :class:`Tracer`;
when one is present they emit phase spans (and, at ``op`` level,
per-operation events) onto a shared cycle timeline.  Traces export to Chrome
``trace_event`` JSON (open in Perfetto) or a compact JSONL used by the
golden-trace tests; :class:`RunSummary` condenses a run into the
per-phase cycle/instruction/memory-op table the benchmarks report, and
:class:`ContentionProfile` renders the fetch-add / full-empty /
barrier / cache contention counters the engines record.

See ``docs/OBSERVABILITY.md`` for the trace format and workflow.
"""

from .contention import (
    ContentionProfile,
    bucket_range,
    fa_concentration,
    log2_bucket,
)
from .counters import CounterSet, LatencyWindow
from .events import TraceEvent
from .export import (
    chrome_trace_dict,
    chrome_trace_json,
    jsonl_dumps,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .summary import PhaseSummary, RunSummary
from .tracer import Tracer

__all__ = [
    "TraceEvent",
    "Tracer",
    "CounterSet",
    "LatencyWindow",
    "RunSummary",
    "PhaseSummary",
    "ContentionProfile",
    "fa_concentration",
    "log2_bucket",
    "bucket_range",
    "chrome_trace_dict",
    "chrome_trace_json",
    "write_chrome_trace",
    "jsonl_dumps",
    "write_jsonl",
    "read_jsonl",
]
