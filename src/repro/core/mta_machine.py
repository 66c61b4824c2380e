"""Analytic timing model of a Cray MTA-2-style multithreaded machine.

The MTA-2 has no data caches and no local memory: every reference goes
to a flat, hashed shared memory with ~100-cycle latency.  Each 220 MHz
processor holds 128 hardware streams and issues one instruction per
cycle from *some* ready stream; as long as enough streams have a ready
instruction, the processor never stalls and execution time is just
``instructions / issue rate`` — the paper's central claim.

The model therefore computes, per algorithm step:

``instructions``
    Every memory access is one instruction slot.  An MTA instruction is
    three-wide (memory op + fused multiply-add + add/control), so up to
    ``fused_ops_per_mem`` arithmetic operations ride along with each
    memory access for free; leftover arithmetic packs
    ``ops_per_instruction`` per instruction.

``utilization``
    A stream can issue ``lookahead`` instructions past an outstanding
    load before blocking (the MTA allows 8 outstanding refs/stream; the
    compiler typically finds 2–3 issuable instructions — the paper's
    "40 to 80 threads per processor are usually sufficient" corresponds
    to ``latency / lookahead``).  With ``W`` concurrent work items
    feeding ``W/p`` streams per processor,

    .. math::  u = \\min(1,\\ (W/p) · g / L)

    where ``g`` is the lookahead and ``L`` the memory latency.  When the
    step's parallelism saturates the streams, ``u = 1`` and the step
    runs at full issue rate.

``hotspots``
    Atomic updates aimed at a single word (``int_fetch_add`` loop
    counters, reduction cells) are serviced one per cycle by the owning
    memory bank and serialize against each other.

``phase overhead``
    Each parallel step pays a fork/join ramp: the first loads of a phase
    take a full memory latency before any stream can retire work, and
    the phase drains as the last walks finish.  Modeled as
    ``phase_overhead_cycles`` plus one memory latency.

``barriers``
    Implemented with full/empty bits; cheap but not free
    (``barrier_cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .cost import StepCost
from .machine import MachineModel, StepTime, validate_config

__all__ = ["MTAConfig", "CRAY_MTA2", "MTAMachine"]


@dataclass(frozen=True)
class MTAConfig:
    """Parameters of a multithreaded (MTA-style) machine.

    Latencies are in processor cycles.  Defaults describe the Cray MTA-2
    of the paper (see :data:`CRAY_MTA2`).
    """

    name: str = "Cray-MTA2"
    clock_hz: float = 220e6
    max_p: int = 40
    streams_per_proc: int = 128
    mem_latency_cycles: float = 100.0
    #: Instructions a stream can issue past an outstanding memory ref
    #: before blocking (compiler-found lookahead; 2–3 on real codes).
    lookahead: float = 2.0
    #: Maximum outstanding memory refs per stream (hardware limit).
    max_outstanding: int = 8
    #: Arithmetic ops that ride along free in a memory instruction's
    #: remaining two slots (FMA + add/control).
    fused_ops_per_mem: float = 2.0
    #: Arithmetic ops per instruction when no memory op is present.
    ops_per_instruction: float = 2.0
    #: Fork/join cost of starting and draining one parallel phase.
    phase_overhead_cycles: float = 400.0
    barrier_cycles: float = 500.0

    def __post_init__(self) -> None:
        validate_config(
            self,
            at_least_one=("max_p", "streams_per_proc", "max_outstanding"),
            positive=("clock_hz", "mem_latency_cycles", "lookahead", "ops_per_instruction"),
            non_negative=("fused_ops_per_mem", "phase_overhead_cycles", "barrier_cycles"),
        )

    @property
    def saturating_streams(self) -> float:
        """Streams per processor needed to hide memory latency completely."""
        return self.mem_latency_cycles / self.lookahead


#: The paper's multithreaded platform.
CRAY_MTA2 = MTAConfig()


class MTAMachine(MachineModel):
    """Timing model instance for ``p`` processors of an :class:`MTAConfig`.

    Parameters
    ----------
    p:
        Processor count to model.
    config:
        Machine description; defaults to the paper's Cray MTA-2.
    """

    def __init__(self, p: int = 1, config: MTAConfig = CRAY_MTA2) -> None:
        if not 1 <= p <= config.max_p:
            raise ConfigurationError(
                f"p={p} outside [1, {config.max_p}] for machine {config.name!r}"
            )
        self._p = p
        self.config = config
        self.name = config.name

    @property
    def clock_hz(self) -> float:
        return self.config.clock_hz

    @property
    def p(self) -> int:
        return self._p

    # -- model ---------------------------------------------------------------

    def instructions(self, step: StepCost) -> np.ndarray:
        """Per-processor instruction counts for one step.

        Memory accesses each occupy an instruction; arithmetic first
        fills the free slots of memory instructions, then packs into
        pure-arithmetic instructions.
        """
        c = self.config
        mem = step.contig + step.noncontig + step.contig_writes + step.noncontig_writes
        fused_capacity = mem * c.fused_ops_per_mem
        leftover = np.maximum(0.0, step.ops - fused_capacity)
        return mem + leftover / c.ops_per_instruction

    def utilization_for(self, parallelism: float) -> float:
        """Issue-slot utilization achievable with ``parallelism`` work items."""
        c = self.config
        streams = min(parallelism / self.p, float(c.streams_per_proc))
        return min(1.0, streams * c.lookahead / c.mem_latency_cycles)

    def step_time(self, step: StepCost) -> StepTime:
        if step.p != self.p:
            raise ConfigurationError(
                f"step {step.name!r} instrumented for p={step.p}, machine has p={self.p}"
            )
        c = self.config
        instrs = self.instructions(step)
        max_instr = float(instrs.max()) if len(instrs) else 0.0
        u = self.utilization_for(step.effective_parallelism)
        issue_cycles = max_instr / u if max_instr else 0.0
        overhead = 0.0
        if max_instr:
            overhead = c.phase_overhead_cycles + c.mem_latency_cycles
        hotspot = float(step.hotspot_ops)  # one atomic serviced per cycle, globally serialized
        barrier = step.barriers * c.barrier_cycles
        cycles = max(issue_cycles, hotspot) + overhead + barrier
        busy = float(instrs.sum())
        detail = dict(
            utilization=u,
            issue_cycles=issue_cycles,
            overhead_cycles=overhead,
            hotspot_cycles=hotspot,
            barrier_cycles=barrier,
            instructions=float(instrs.sum()),
        )
        return StepTime(name=step.name, cycles=cycles, busy_cycles=busy, detail=detail)

    def with_p(self, p: int) -> "MTAMachine":
        """A copy of this machine configured for a different processor count."""
        return MTAMachine(p=p, config=self.config)
