"""Event-trace recorder threaded through the simulators.

A :class:`Tracer` collects :class:`~repro.obs.events.TraceEvent`
records from one or more engine runs onto a single run-global cycle
timeline.  Every consumer of a tracer treats ``None`` as "tracing off",
so the disabled path costs the engines one attribute test per run and —
at ``op`` level — one boolean test per issued instruction.

Two recording levels:

``"phase"``
    Phase spans, one per :class:`~repro.sim.stats.PhaseSlice`.  Cheap
    enough for full benchmark runs.
``"op"``
    Additionally one span per simulated machine operation (loads,
    stores, fetch-adds, sync-op waits, barrier waits).  Intended for
    tiny programs — golden-trace tests, kernel close-ups in Perfetto.

Engines are sequenced onto the shared timeline through
:meth:`Tracer.record_run`: after an engine finishes a run it records
the run's phase slices and advances the tracer's offset by the run's
cycle count, so the next engine run starts where the previous ended —
matching how multi-phase simulations (e.g. Alg. 1's four phases)
execute back to back.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .events import INSTANT, METADATA, SPAN, TraceEvent

__all__ = ["Tracer", "PHASE_TRACK_TID"]

#: tid used for engine-global tracks (phase spans) on the phase pid.
PHASE_TRACK_TID = 0

_LEVELS = ("phase", "op")


class Tracer:
    """Accumulates trace events across sequential simulation runs.

    Parameters
    ----------
    level:
        ``"phase"`` (default) or ``"op"`` — see the module docstring.
    """

    def __init__(self, level: str = "phase") -> None:
        if level not in _LEVELS:
            raise ConfigurationError(
                f"trace level must be one of {_LEVELS}, got {level!r}"
            )
        self.level = level
        self.events: list[TraceEvent] = []
        self._offset = 0.0
        self._named: set[int] = set()

    # -- timeline ---------------------------------------------------------------

    @property
    def op_level(self) -> bool:
        """True when per-operation events should be emitted."""
        return self.level == "op"

    @property
    def offset(self) -> float:
        """Cycle offset of the current run on the global timeline."""
        return self._offset

    def advance(self, cycles: float) -> None:
        """Move the timeline past a finished run of ``cycles`` cycles."""
        self._offset += cycles

    # -- emission ---------------------------------------------------------------

    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        pid: int = 0,
        tid: int = 0,
        cat: str = "",
        args: dict | None = None,
    ) -> None:
        """A complete event covering ``[start, end)`` in run-local cycles."""
        self.events.append(
            TraceEvent(
                name=name,
                ph=SPAN,
                ts=self._offset + start,
                dur=end - start,
                pid=pid,
                tid=tid,
                cat=cat,
                args=args or {},
            )
        )

    def instant(
        self,
        name: str,
        ts: float,
        *,
        pid: int = 0,
        tid: int = 0,
        cat: str = "",
        args: dict | None = None,
    ) -> None:
        """A zero-duration marker at run-local cycle ``ts``."""
        self.events.append(
            TraceEvent(
                name=name,
                ph=INSTANT,
                ts=self._offset + ts,
                pid=pid,
                tid=tid,
                cat=cat,
                args=args or {},
            )
        )

    def name_process(self, pid: int, name: str) -> None:
        """Attach a display name to ``pid`` (idempotent)."""
        if pid in self._named:
            return
        self._named.add(pid)
        self.events.append(
            TraceEvent(name="process_name", ph=METADATA, pid=pid, ts=0.0, args={"name": name})
        )

    # -- engine integration -----------------------------------------------------

    def record_run(self, report) -> None:
        """Record a finished engine run and advance the timeline.

        Emits one span per phase slice of the
        :class:`~repro.sim.stats.SimReport` (a report without explicit
        slices contributes a single whole-run span) on the dedicated
        phase track, then advances the offset by the run's cycles so
        subsequent runs append after it.
        """
        phase_pid = report.p  # one past the last processor id
        self.name_process(phase_pid, "phases")
        slices = report.phases
        if not slices:
            from ..sim.stats import PhaseSlice

            slices = [
                PhaseSlice(
                    name=report.name,
                    start=0.0,
                    end=float(report.cycles),
                    issued=report.total_issued,
                    op_counts=dict(report.op_counts),
                )
            ]
        for s in slices:
            self.span(
                s.name,
                s.start,
                s.end,
                pid=phase_pid,
                tid=PHASE_TRACK_TID,
                cat="phase",
                args={"issued": s.issued, "op_counts": dict(s.op_counts)},
            )
        self.advance(float(report.cycles))
