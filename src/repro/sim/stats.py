"""Result records for cycle-level simulation runs."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhaseSlice", "SimReport", "combine_reports"]


@dataclass(frozen=True)
class PhaseSlice:
    """One named phase of an engine run on the run's cycle timeline.

    Slices partition ``[0, cycles)``: the run's first slice starts at 0,
    each ``PHASE`` marker closes the current slice and opens the next,
    and the final slice ends at the run's total cycles — so per-phase
    cycles always sum to the run total exactly.

    Attributes
    ----------
    name:
        Phase label (the run name until the first ``PHASE`` marker).
    start / end:
        Slice boundaries in cycles (floats on the event-driven SMP
        engine, whole numbers on the MTA engine).
    issued:
        Instructions issued machine-wide during the slice.
    op_counts:
        Instructions by opcode tag within the slice.
    """

    name: str
    start: float
    end: float
    issued: int
    op_counts: dict = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.end - self.start

    def shifted(self, offset: float) -> "PhaseSlice":
        """The same slice moved ``offset`` cycles later (for combining runs)."""
        return PhaseSlice(
            name=self.name,
            start=self.start + offset,
            end=self.end + offset,
            issued=self.issued,
            op_counts=dict(self.op_counts),
        )


@dataclass
class SimReport:
    """Measured outcome of one engine run (one parallel phase).

    Attributes
    ----------
    name:
        Phase label.
    p:
        Number of processors simulated.
    cycles:
        Total machine cycles from start to last thread completion.
    issued:
        Instructions issued per processor (length-``p`` array).
    clock_hz:
        Clock rate for seconds conversion.
    op_counts:
        Instructions by opcode tag (``{"LD": ..., "C": ..., ...}``).
    detail:
        Engine-specific extras (fetch-add serialization stalls, cache
        hit rates, barrier waits, …); run totals in a report combined by
        :func:`combine_reports`.
    phases:
        :class:`PhaseSlice` decomposition of the run (empty when the
        program emitted no ``PHASE`` markers and the report was not
        combined from multiple runs — the whole run is then one
        implicit phase).
    """

    name: str
    p: int
    cycles: int
    issued: np.ndarray
    clock_hz: float
    op_counts: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)

    @property
    def total_issued(self) -> int:
        return int(self.issued.sum())

    @property
    def utilization(self) -> float:
        """Fraction of issue slots used — the paper's Table 1 metric."""
        if self.cycles == 0:
            return 1.0
        return self.total_issued / (self.p * self.cycles)

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.cycles} cycles ({self.seconds * 1e3:.3f} ms),"
            f" util {self.utilization:.1%}"
        )


def combine_reports(name: str, reports: list[SimReport]) -> SimReport:
    """Aggregate sequential phases into one run-level report.

    Cycles add; issued instructions and op counts add; utilization
    becomes the cycle-weighted whole-run figure (phases must share ``p``
    and clock); each run's phase slices move onto the combined timeline;
    and the runs' machine counters (``detail``) add up — see
    :func:`_add_detail`.
    """
    if not reports:
        raise ValueError("need at least one report")
    p = reports[0].p
    clock = reports[0].clock_hz
    if any(r.p != p or r.clock_hz != clock for r in reports):
        raise ValueError("cannot combine reports from different machines")
    op_counts: dict = {}
    phases: list[PhaseSlice] = []
    offset = 0.0
    for r in reports:
        for k, v in r.op_counts.items():
            op_counts[k] = op_counts.get(k, 0) + v
        if r.phases:
            phases.extend(s.shifted(offset) for s in r.phases)
        else:
            phases.append(
                PhaseSlice(
                    name=r.name,
                    start=offset,
                    end=offset + r.cycles,
                    issued=r.total_issued,
                    op_counts=dict(r.op_counts),
                )
            )
        offset += r.cycles
    return SimReport(
        name=name,
        p=p,
        cycles=sum(r.cycles for r in reports),
        issued=np.sum([r.issued for r in reports], axis=0),
        clock_hz=clock,
        op_counts=op_counts,
        detail=dict(functools.reduce(_add_detail, [r.detail for r in reports])),
        phases=phases,
    )


def _add_detail(a, b, key=None):
    """Run totals of two runs' machine counters (``SimReport.detail``).

    Dicts merge per key (a key only one run has is copied), tuples and
    lists add elementwise, and numbers add — except a barrier's
    ``max_wait``, which keeps the larger.  Builds new containers; the
    runs' own reports are left as they were.
    """
    if isinstance(a, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = _add_detail(out[k], v, k) if k in out else v
        return out
    if isinstance(a, (tuple, list)):
        return type(a)(_add_detail(x, y) for x, y in zip(a, b, strict=True))
    if key == "max_wait":
        return max(a, b)
    return a + b
