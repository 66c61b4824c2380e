"""Run-level summaries derived from traces and phase reports.

A :class:`RunSummary` is the single report both simulation levels
produce: named phases with per-phase cycle / instruction / memory-op
counts, whole-run utilization (the paper's Table 1 metric), and the
contention detail the engines record.  Benchmarks consume it instead of
recomputing utilization ad hoc, so the number printed in a table is by
construction the number the trace shows.

Invariant (checked by :meth:`RunSummary.validate` and the golden
tests): phase cycles partition the run, so per-phase cycles sum to the
run's total cycles exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["PhaseSummary", "RunSummary"]


@dataclass(frozen=True)
class PhaseSummary:
    """One named phase of a run."""

    name: str
    cycles: float
    issued: float
    op_counts: dict = field(default_factory=dict)

    @property
    def mem_ops(self) -> int:
        """Memory operations issued in this phase (all flavours)."""
        return int(
            sum(v for k, v in self.op_counts.items() if k not in ("C", "B"))
        )


@dataclass
class RunSummary:
    """Aggregate observability report for one simulated run."""

    name: str
    machine: str
    p: int
    clock_hz: float
    cycles: float
    issued: float
    phases: list[PhaseSummary] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    # -- derived ---------------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Issue-slot utilization — identical formula to the engines'."""
        if self.cycles == 0:
            return 1.0
        return self.issued / (self.p * self.cycles)

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def total_cycles(self) -> float:
        """Total cycles — the documented cross-stack accessor.

        :class:`repro.core.machine.MachineResult` and ``RunSummary``
        both expose ``total_cycles`` and :meth:`phase_breakdown` with
        identical semantics, so consumers (``repro.xval`` above all)
        never need per-stack field-name special-casing.
        """
        return self.cycles

    def phase_breakdown(self) -> list[tuple[str, float]]:
        """Ordered ``(phase name, cycles)`` pairs, one per phase.

        The shared shape of the per-phase breakdown on both result
        surfaces; see :attr:`total_cycles`.
        """
        return [(ph.name, float(ph.cycles)) for ph in self.phases]

    @property
    def op_counts(self) -> dict:
        out: dict = {}
        for ph in self.phases:
            for k, v in ph.op_counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def phase(self, name: str) -> PhaseSummary:
        """Look up a phase by (unique) name."""
        for ph in self.phases:
            if ph.name == name:
                return ph
        raise KeyError(f"no phase named {name!r} in run {self.name!r}")

    def validate(self, tol: float = 1e-6) -> None:
        """Assert phase cycles partition the run's total cycles."""
        total = sum(ph.cycles for ph in self.phases)
        if abs(total - self.cycles) > tol * max(1.0, abs(self.cycles)):
            raise ConfigurationError(
                f"phase cycles sum to {total}, run reports {self.cycles}"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_report(cls, report, machine: str = "") -> "RunSummary":
        """Summarize one engine :class:`~repro.sim.stats.SimReport`.

        Uses the report's phase slices when present (PHASE markers or
        combined multi-run reports), else a single whole-run phase; a
        combined report's ``detail`` already holds run totals.
        """
        if report.phases:
            phases = [
                PhaseSummary(
                    name=s.name,
                    cycles=float(s.cycles),
                    issued=float(s.issued),
                    op_counts=dict(s.op_counts),
                )
                for s in report.phases
            ]
        else:
            phases = [
                PhaseSummary(
                    name=report.name,
                    cycles=float(report.cycles),
                    issued=float(report.total_issued),
                    op_counts=dict(report.op_counts),
                )
            ]
        return cls(
            name=report.name,
            machine=machine,
            p=report.p,
            clock_hz=report.clock_hz,
            cycles=float(report.cycles),
            issued=float(report.total_issued),
            phases=phases,
            detail=dict(report.detail),
        )

    @classmethod
    def from_machine_result(cls, result) -> "RunSummary":
        """Summarize an analytic-model :class:`~repro.core.machine.MachineResult`.

        Model steps become phases; ``busy_cycles`` plays the role of
        issued instructions, so ``utilization`` reproduces
        ``MachineResult.utilization`` (modulo its clamp at 1.0).
        """
        phases = [
            PhaseSummary(name=s.name, cycles=float(s.cycles), issued=float(s.busy_cycles))
            for s in result.steps
        ]
        return cls(
            name=result.machine,
            machine=result.machine,
            p=result.p,
            clock_hz=result.clock_hz,
            cycles=float(result.cycles),
            issued=float(sum(s.busy_cycles for s in result.steps)),
            phases=phases,
        )

    # -- rendering --------------------------------------------------------------

    def table(self) -> str:
        """Per-phase breakdown as an aligned text table."""
        width = max([len(ph.name) for ph in self.phases], default=5)
        width = max(width, len("phase"))
        lines = [
            f"{self.name} (p={self.p}): {self.cycles:.0f} cycles,"
            f" {self.seconds * 1e3:.3f} ms, utilization {self.utilization:.1%}",
            f"{'phase'.ljust(width)}  {'cycles':>12}  {'share':>6}"
            f"  {'issued':>12}  {'mem ops':>10}  {'util':>6}",
        ]
        total = self.cycles or 1.0
        for ph in self.phases:
            util = ph.issued / (self.p * ph.cycles) if ph.cycles else 1.0
            lines.append(
                f"{ph.name.ljust(width)}  {ph.cycles:>12.0f}  {ph.cycles / total:>6.1%}"
                f"  {ph.issued:>12.0f}  {ph.mem_ops:>10}  {util:>6.1%}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the CLI's ``--json``)."""
        return {
            "name": self.name,
            "machine": self.machine,
            "p": self.p,
            "clock_hz": self.clock_hz,
            "cycles": self.cycles,
            "issued": self.issued,
            "utilization": self.utilization,
            "phases": [
                {
                    "name": ph.name,
                    "cycles": ph.cycles,
                    "issued": ph.issued,
                    "op_counts": dict(ph.op_counts),
                }
                for ph in self.phases
            ],
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        """Inverse of :meth:`to_dict` (the sweep cache round-trip)."""
        return cls(
            name=d["name"],
            machine=d.get("machine", ""),
            p=int(d["p"]),
            clock_hz=float(d["clock_hz"]),
            cycles=float(d["cycles"]),
            issued=float(d["issued"]),
            phases=[
                PhaseSummary(
                    name=ph["name"],
                    cycles=float(ph["cycles"]),
                    issued=float(ph["issued"]),
                    op_counts=dict(ph.get("op_counts", {})),
                )
                for ph in d.get("phases", [])
            ],
            detail=dict(d.get("detail", {})),
        )
