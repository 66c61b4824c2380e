"""Golden records of the SMP model's trace mode.

With ``collect_traces`` the list-ranking kernels hand the SMP model
their exact per-processor address streams, and the model times each
step from the hit counts of :class:`repro.arch.cache.CacheHierarchy`
instead of the working-set heuristic.  These records pin those timings:
``tests/golden/smp_trace_mode.jsonl`` holds, one per line, the
``repro run --json --no-cache`` records of

* ``--workload rank --backend smp-model --n 16384 --p 4 --opt collect_traces=1``
  on a random and an ordered list (Helman–JáJá), and
* the same at ``--p 8`` with ``--opt algorithm=mta-walks`` and with
  ``--opt algorithm=helman-jaja-branch-avoiding``.

To regenerate after an *intended* change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_smp_trace_mode.py

then review the diff like any other code change.
"""

from __future__ import annotations

import os
import pathlib

from repro.backends import Workload
from repro.core.runner import Job, run_jobs

GOLDEN = pathlib.Path(__file__).parent / "golden" / "smp_trace_mode.jsonl"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

_TRACES = {"collect_traces": 1}
JOBS = [
    Job(Workload("rank", 4, 0, {"n": 16384}, _TRACES), "smp-model"),
    Job(Workload("rank", 4, 0, {"n": 16384, "list": "ordered"}, _TRACES), "smp-model"),
    Job(Workload("rank", 8, 0, {"n": 16384}, dict(_TRACES, algorithm="mta-walks")), "smp-model"),
    Job(
        Workload("rank", 8, 0, {"n": 16384}, dict(_TRACES, algorithm="helman-jaja-branch-avoiding")),
        "smp-model",
    ),
]


def test_trace_mode_records_match_golden():
    text = "".join(r.jsonl() + "\n" for r in run_jobs(JOBS, workers=1, cache=False))
    if REGEN:
        GOLDEN.write_text(text)
    assert text == GOLDEN.read_text(), (
        "smp-model trace-mode records deviate from the golden snapshot; if the "
        "change is intended, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )

