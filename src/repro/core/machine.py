"""Abstract machine model interface.

A *machine model* converts the per-step costs measured by an
instrumented algorithm run (:class:`repro.core.cost.StepCost`) into
simulated execution time on a concrete architecture.  Two models ship
with the library — :class:`repro.core.smp_machine.SMPMachine` (Sun
E4500-style cache-based SMP) and
:class:`repro.core.mta_machine.MTAMachine` (Cray MTA-2-style
multithreaded machine) — and users can model hypothetical machines by
subclassing :class:`MachineModel` (see ``examples/custom_machine.py``).

Time is reported both in machine cycles and in seconds at the machine's
clock rate, so cross-architecture comparisons (a 400 MHz SMP vs a
220 MHz MTA) are apples-to-apples in seconds, exactly as the paper
plots them.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterable

from ..errors import ConfigurationError
from .cost import StepCost

__all__ = ["StepTime", "PhasePrediction", "MachineResult", "MachineModel"]


@dataclass(frozen=True)
class PhasePrediction:
    """One phase of an analytic prediction, in the shared xval schema.

    This is the prediction side of the contract that
    :mod:`repro.xval` pairs against the cycle engines' PHASE slices:
    both stacks describe a run as an ordered list of named phases with
    cycle totals, so divergence can be computed per phase rather than
    only per run.

    Attributes
    ----------
    name:
        Phase label (the :class:`StepCost` step name).
    cycles:
        Predicted machine cycles for the phase.
    busy_cycles:
        Predicted useful-work cycles summed over processors.
    t_m:
        The phase's ⟨T_M⟩ term — max per-processor non-contiguous accesses.
    t_c:
        The phase's ⟨T_C⟩ term — max per-processor operations.
    b:
        The phase's ⟨B⟩ term — barrier count.
    branch_cycles:
        Cycles the model charged to branch mispredictions (zero on
        branch-blind models such as the MTA).
    detail:
        Machine-specific breakdown copied from the :class:`StepTime`.
    """

    name: str
    cycles: float
    busy_cycles: float
    t_m: float
    t_c: float
    b: int
    branch_cycles: float = 0.0
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StepTime:
    """Timing verdict for one algorithm step on one machine.

    Attributes
    ----------
    name:
        The step's label (copied from the :class:`StepCost`).
    cycles:
        Simulated machine cycles charged to the step, including any
        barrier at its end.
    busy_cycles:
        Cycles during which processors were doing useful work, summed
        over processors.  ``busy_cycles / (p * cycles)`` is the step's
        processor utilization — the quantity in the paper's Table 1.
    detail:
        Machine-specific breakdown (e.g. ``{"mem_cycles": ..., "bus_cycles": ...}``)
        for reporting and tests.
    """

    name: str
    cycles: float
    busy_cycles: float
    detail: dict = field(default_factory=dict)


@dataclass
class MachineResult:
    """Aggregate timing of a full algorithm run on one machine."""

    machine: str
    p: int
    clock_hz: float
    steps: list[StepTime]

    @property
    def cycles(self) -> float:
        """Total simulated cycles."""
        return sum(s.cycles for s in self.steps)

    @property
    def total_cycles(self) -> float:
        """Total simulated cycles — the documented cross-stack accessor.

        ``MachineResult`` and :class:`repro.obs.RunSummary` both expose
        ``total_cycles`` and :meth:`phase_breakdown` with identical
        semantics, so consumers (``repro.xval`` above all) never need
        per-stack field-name special-casing.
        """
        return self.cycles

    def phase_breakdown(self) -> list[tuple[str, float]]:
        """Ordered ``(phase name, cycles)`` pairs, one per step/phase.

        The shared shape of the per-phase breakdown on both result
        surfaces; see :attr:`total_cycles`.
        """
        return [(s.name, float(s.cycles)) for s in self.steps]

    @property
    def seconds(self) -> float:
        """Total simulated wall-clock seconds at the machine's clock rate."""
        return self.cycles / self.clock_hz

    @property
    def utilization(self) -> float:
        """Fraction of issue slots doing useful work across the whole run."""
        total = self.p * self.cycles
        if total == 0:
            return 1.0
        return min(1.0, sum(s.busy_cycles for s in self.steps) / total)

    def step(self, name: str) -> StepTime:
        """Look up a step's timing by (unique) name.

        Raises ``KeyError`` when the name is missing and
        :class:`~repro.errors.ConfigurationError` when it is ambiguous —
        silently returning the first of several same-named steps hid
        phase-accounting bugs.
        """
        matches = [s for s in self.steps if s.name == name]
        if not matches:
            raise KeyError(f"no step named {name!r} in result for {self.machine}")
        if len(matches) > 1:
            raise ConfigurationError(
                f"step name {name!r} is ambiguous in result for {self.machine}:"
                f" {len(matches)} steps share it"
            )
        return matches[0]

    def summary(self):
        """This result as a :class:`repro.obs.RunSummary`.

        Model steps become phases (``busy_cycles`` standing in for
        issued instructions), so benchmarks can report model and engine
        runs through one record type.
        """
        from ..obs.summary import RunSummary

        return RunSummary.from_machine_result(self)

    def breakdown(self, top: int | None = None) -> str:
        """Per-step cost table, most expensive first.

        Columns: step name, cycles, share of the run, and the dominant
        machine-specific detail entry — the quickest answer to "where
        did the time go?".  ``top`` limits the number of rows.
        """
        total = self.cycles or 1.0
        rows = sorted(self.steps, key=lambda s: -s.cycles)
        if top is not None:
            rows = rows[:top]
        width = max([len(s.name) for s in rows], default=4)
        lines = [
            f"{self.machine} p={self.p}: {self.seconds * 1e3:.3f} ms total,"
            f" utilization {self.utilization:.1%}",
            f"{'step'.ljust(width)}  {'cycles':>12}  {'share':>6}  dominant detail",
        ]
        for s in rows:
            numeric = {
                k: v for k, v in s.detail.items() if isinstance(v, (int, float)) and v > 0
            }
            dom = max(numeric, key=numeric.get) if numeric else "-"
            dom_txt = f"{dom}={numeric[dom]:.3g}" if numeric else "-"
            lines.append(
                f"{s.name.ljust(width)}  {s.cycles:>12.0f}  {s.cycles / total:>6.1%}  {dom_txt}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.machine}(p={self.p}): {self.seconds * 1e3:.3f} ms"
            f" ({self.cycles:.3g} cycles, util {self.utilization:.1%})"
        )


def validate_config(
    config, *, at_least_one=(), positive=(), non_negative=(), nested=None
) -> None:
    """Check a machine config dataclass's field values (call it from the
    config's ``__post_init__``).

    Every field but ``name`` must hold a real number (a bool is not one),
    and an ``int``-annotated field an integer, except the fields
    ``nested`` maps to the dataclass their value must be an instance of.
    Then the fields named in ``at_least_one`` must be ``>= 1``, those in
    ``positive`` ``> 0`` and those in ``non_negative`` ``>= 0``.  The
    first bad field raises :class:`~repro.errors.ConfigurationError`
    naming it.
    """
    nested = nested or {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in nested:
            if not isinstance(value, nested[f.name]):
                raise ConfigurationError(
                    f"{f.name} must be a {nested[f.name].__name__}, got {value!r}"
                )
        elif f.name == "name":
            continue
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{f.name} must be a number, got {value!r}")
        elif f.type in (int, "int") and not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
    # written as "not (ok)" so NaN fails every check
    for name in at_least_one:
        if not getattr(config, name) >= 1:
            raise ConfigurationError(f"{name} must be >= 1")
    for name in positive:
        if not getattr(config, name) > 0:
            raise ConfigurationError(f"{name} must be positive")
    for name in non_negative:
        if not getattr(config, name) >= 0:
            raise ConfigurationError(f"{name} must be >= 0")


class MachineModel(abc.ABC):
    """Converts instrumented step costs into simulated time.

    Subclasses implement :meth:`step_time`; :meth:`run` handles the
    aggregation.  Models must be stateless with respect to runs — a
    single model instance may be reused across experiments.
    """

    #: Human-readable machine name, e.g. ``"Sun-E4500"``.
    name: str = "machine"

    @property
    @abc.abstractmethod
    def clock_hz(self) -> float:
        """Clock rate used to convert cycles to seconds."""

    @property
    @abc.abstractmethod
    def p(self) -> int:
        """Number of processors this model instance is configured for."""

    @abc.abstractmethod
    def step_time(self, step: StepCost) -> StepTime:
        """Charge one algorithm step with machine cycles."""

    def run(self, steps: Iterable[StepCost]) -> MachineResult:
        """Time a whole sequence of algorithm steps."""
        timed = [self.step_time(s) for s in steps]
        return MachineResult(machine=self.name, p=self.p, clock_hz=self.clock_hz, steps=timed)

    def predict_phases(self, steps: Iterable[StepCost]) -> list[PhasePrediction]:
        """Per-phase ⟨T_M; T_C; B⟩-derived cycle predictions.

        One :class:`PhasePrediction` per input step, in order, carrying
        the step's triplet terms alongside the model's cycle charge.
        The default implementation times the steps with :meth:`run`
        (so stateful models like the SMP's persistent cache hierarchy
        behave exactly as in a normal run) and reads the branch charge
        from the ``branch_cycles`` detail key when the model emits one.
        """
        steps = list(steps)
        result = self.run(steps)
        out: list[PhasePrediction] = []
        for cost, timed in zip(steps, result.steps, strict=True):
            out.append(
                PhasePrediction(
                    name=timed.name,
                    cycles=float(timed.cycles),
                    busy_cycles=float(timed.busy_cycles),
                    t_m=cost.max_noncontig,
                    t_c=cost.max_ops,
                    b=cost.barriers,
                    branch_cycles=float(timed.detail.get("branch_cycles", 0.0)),
                    detail=dict(timed.detail),
                )
            )
        return out

    def seconds(self, steps: Iterable[StepCost]) -> float:
        """Shortcut: total simulated seconds for ``steps``."""
        return self.run(steps).seconds
