"""Analytic timing model of a cache-based symmetric multiprocessor.

Models the Sun E4500 of the paper: p identical 400 MHz UltraSPARC II
processors, each with a 16 KB direct-mapped L1 and a 4 MB direct-mapped
external L2, sharing a UMA memory over a single split-transaction bus,
with software barriers.

The model charges each algorithm step per processor:

``compute``
    ``ops × cpi`` cycles.  The UltraSPARC II is 4-way superscalar; graph
    codes typically sustain ~2 IPC on register work, hence the default
    ``cpi = 0.5``.

``contiguous accesses``
    A streamed sweep pays one L1 hit per word plus an amortized line
    fill every ``line_words`` words.  Hardware prefetch and the
    split-transaction bus overlap successive fills, modeled by
    ``stream_overlap`` concurrent fills.

``non-contiguous accesses``
    The heart of the paper's SMP story.  Two fidelity levels:

    * *counts mode* (default): each access costs an L2 hit when the
      step's working set fits in L2, and a full memory round-trip
      otherwise (plus the L1-resident fraction for tiny working sets).
    * *trace mode*: when the step carries exact address streams, the
      hierarchy of :mod:`repro.arch.cache` is simulated and the access
      cost uses the *measured* per-level hit counts.

``bus``
    All line fills from memory share the bus; a step cannot complete
    faster than the total transferred bytes divided by bus bandwidth.
    This is what caps SMP scalability at higher processor counts.

``barrier``
    Software barriers cost ``barrier_base + barrier_per_log_p × log2 p``
    cycles — the usual tournament/ dissemination barrier shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arch.cache import CacheConfig, CacheHierarchy
from ..errors import ConfigurationError
from .cost import StepCost
from .machine import MachineModel, StepTime, validate_config

__all__ = ["SMPConfig", "SUN_E4500", "SMPMachine"]


@dataclass(frozen=True)
class SMPConfig:
    """Parameters of a cache-based SMP.

    All latencies are in processor cycles.  Capacities are in *elements*
    — the paper's arrays (successor lists, the ``D`` array, edge lists)
    are 4-byte C ``int``\\ s, so one element is 4 bytes: the E4500's
    16 KB L1 holds 4096 of them, its 4 MB L2 holds 2²⁰ (which is exactly
    why the paper's 1M-vertex ``D`` array behaves mostly cache-resident
    while its 20M-node lists do not).  The defaults (see
    :data:`SUN_E4500`) describe the paper's Sun Enterprise 4500 with its
    measured ~300 ns (≈120-cycle) UMA memory latency.
    """

    name: str = "Sun-E4500"
    clock_hz: float = 400e6
    max_p: int = 14
    l1: CacheConfig = CacheConfig(size_words=4096, line_words=8)  # 16 KB, 32 B lines
    l2: CacheConfig = CacheConfig(size_words=1 << 20, line_words=16)  # 4 MB, 64 B lines
    l1_hit_cycles: float = 1.0
    l2_hit_cycles: float = 25.0
    mem_cycles: float = 120.0
    cpi: float = 0.5
    #: Concurrent outstanding line fills achievable on streamed access
    #: (hardware prefetch + split-transaction bus).
    stream_overlap: float = 2.0
    #: Shared bus bandwidth in elements (4 B) per processor cycle.  The
    #: E4500 Gigaplane moves ~2.6 GB/s ≈ 1.6 elements per 400 MHz cycle.
    bus_words_per_cycle: float = 1.6
    #: Fraction of L2 effectively available to a scattered working set —
    #: streamed data (edge arrays, sweep buffers) competes for the same
    #: lines, so a working set nominally equal to L2 does not fully hit.
    l2_effective_fraction: float = 0.7
    #: Outstanding stores the write buffer retires concurrently: a
    #: scattered store costs latency/depth cycles of occupancy instead
    #: of stalling the processor for a full round-trip.
    store_buffer_depth: float = 8.0
    #: Software barrier cost model: ``base + per_log_p * ceil(log2 p)``.
    barrier_base_cycles: float = 2000.0
    barrier_per_log_p_cycles: float = 1000.0
    #: Cycles lost per branch mispredict.  The default of 0 keeps the
    #: classic branch-blind model; the branch-aware variant used by
    #: ``repro.xval`` sets ~4 (the UltraSPARC II refetch bubble) and
    #: charges ``mispredicts × penalty`` extra compute cycles per
    #: processor, which is what separates branch-avoiding kernels from
    #: their branchy originals.
    mispredict_penalty_cycles: float = 0.0

    def __post_init__(self) -> None:
        validate_config(
            self,
            nested={"l1": CacheConfig, "l2": CacheConfig},
            at_least_one=("max_p",),
            positive=("clock_hz", "bus_words_per_cycle", "stream_overlap", "store_buffer_depth"),
            non_negative=(
                "l1_hit_cycles", "l2_hit_cycles", "mem_cycles", "cpi",
                "barrier_base_cycles", "barrier_per_log_p_cycles", "mispredict_penalty_cycles",
            ),
        )
        if not 0 < self.l2_effective_fraction <= 1:
            raise ConfigurationError("l2_effective_fraction must be in (0, 1]")

    def barrier_cycles(self, p: int) -> float:
        """Cycles one barrier costs with ``p`` participants."""
        if p <= 1:
            # a single thread still executes the barrier code
            return self.barrier_base_cycles
        return self.barrier_base_cycles + self.barrier_per_log_p_cycles * math.ceil(math.log2(p))


#: The paper's SMP platform.
SUN_E4500 = SMPConfig()


class SMPMachine(MachineModel):
    """Timing model instance for ``p`` processors of an :class:`SMPConfig`.

    Parameters
    ----------
    p:
        Processor count to model (1 ≤ p ≤ ``config.max_p``).
    config:
        Machine description; defaults to the paper's Sun E4500.
    use_traces:
        When ``True`` (default) steps carrying exact address traces are
        timed through the cache simulator; otherwise the counts-mode
        classification is always used.
    """

    def __init__(self, p: int = 1, config: SMPConfig = SUN_E4500, use_traces: bool = True) -> None:
        if not 1 <= p <= config.max_p:
            raise ConfigurationError(
                f"p={p} outside [1, {config.max_p}] for machine {config.name!r}"
            )
        self._p = p
        self.config = config
        self.use_traces = use_traces
        self.name = config.name

    @property
    def clock_hz(self) -> float:
        return self.config.clock_hz

    @property
    def p(self) -> int:
        return self._p

    # -- cost components ------------------------------------------------------

    def _contig_cycles_per_word(self) -> float:
        """Cycles per word of a streamed (unit-stride) sweep."""
        c = self.config
        fill = c.mem_cycles / c.stream_overlap / c.l1.line_words
        return c.l1_hit_cycles + fill

    def _noncontig_cycles_per_word(self, working_set: float) -> float:
        """Cycles per scattered access for a given working-set size (elements)."""
        c = self.config
        if working_set <= c.l1.size_words:
            return c.l1_hit_cycles
        l2_eff = c.l2.size_words * c.l2_effective_fraction
        if working_set <= l2_eff:
            # L1 misses, L2 hits; a small fraction still lands in L1.
            l1_frac = c.l1.size_words / working_set
            return l1_frac * c.l1_hit_cycles + (1 - l1_frac) * c.l2_hit_cycles
        # Working set exceeds the effectively available L2: most accesses
        # go to memory, with the cache-resident fraction served faster.
        l2_frac = l2_eff / working_set
        return l2_frac * c.l2_hit_cycles + (1 - l2_frac) * c.mem_cycles

    def run(self, steps):
        """Time a step sequence, carrying trace-mode cache state across steps.

        A run's steps execute back to back on the real machine, so the
        lines one step leaves in L2 (e.g. Helman–JáJá's step-1 stream of
        the successor array) serve the next step's accesses.  Trace-mode
        simulation therefore keeps one persistent hierarchy per
        processor for the whole run; :meth:`step_time` called standalone
        still assumes cold caches.
        """
        from .machine import MachineResult

        cache_state = (
            [CacheHierarchy(self.config.l1, self.config.l2) for _ in range(self.p)]
            if self.use_traces
            else None
        )
        timed = [self.step_time(s, _cache_state=cache_state) for s in steps]
        return MachineResult(machine=self.name, p=self.p, clock_hz=self.clock_hz, steps=timed)

    def step_time(self, step: StepCost, *, _cache_state=None) -> StepTime:
        if step.p != self.p:
            raise ConfigurationError(
                f"step {step.name!r} instrumented for p={step.p}, machine has p={self.p}"
            )
        c = self.config
        detail: dict = {}

        branch = step.mispredicts * c.mispredict_penalty_cycles
        comp = step.ops * c.cpi + branch

        if self.use_traces and step.traces is not None:
            mem = np.zeros(self.p)
            mem_words_from_dram = 0.0
            for i, trace in enumerate(step.traces):
                hier = (
                    _cache_state[i]
                    if _cache_state is not None
                    else CacheHierarchy(c.l1, c.l2)
                )
                s1, s2 = hier.simulate_stream(trace)
                mem[i] = (
                    s1.hits * c.l1_hit_cycles
                    + s2.hits * c.l2_hit_cycles
                    + s2.misses * c.mem_cycles
                )
                mem_words_from_dram += s2.misses * c.l2.line_words
            detail["mode"] = "trace"
        else:
            ws = step.working_set
            if ws is None:
                ws = step.total_accesses
            per_word = self._noncontig_cycles_per_word(float(ws))
            contig_per_word = self._contig_cycles_per_word()
            # Stores don't stall (write buffer); they cost occupancy of
            # latency/depth per scattered store, stream bandwidth when contiguous.
            write_per_word = per_word / c.store_buffer_depth
            mem = (
                step.contig * contig_per_word
                + step.noncontig * per_word
                + step.contig_writes * contig_per_word
                + step.noncontig_writes * write_per_word
            )
            # Elements that actually cross the bus: every contiguous line
            # fill plus every non-contiguous access that misses L2
            # (write-allocate makes scattered stores pull lines too).
            l2_eff = c.l2.size_words * c.l2_effective_fraction
            if ws > l2_eff:
                miss_frac = 1 - l2_eff / float(ws)
            else:
                miss_frac = 0.0
            scattered = float(step.noncontig.sum() + step.noncontig_writes.sum())
            streamed = float(step.contig.sum() + step.contig_writes.sum())
            mem_words_from_dram = streamed + scattered * miss_frac * c.l2.line_words
            detail["mode"] = "counts"
            detail["noncontig_cycles_per_word"] = per_word

        per_proc = comp + mem
        work_cycles = float(per_proc.max()) if len(per_proc) else 0.0
        bus_cycles = mem_words_from_dram / c.bus_words_per_cycle
        barrier = step.barriers * c.barrier_cycles(self.p)
        cycles = max(work_cycles, bus_cycles) + barrier

        busy = float(comp.sum() + mem.sum())
        detail.update(
            work_cycles=work_cycles,
            bus_cycles=bus_cycles,
            barrier_cycles=barrier,
            compute_cycles=float(comp.sum()),
            memory_cycles=float(mem.sum()),
            branch_cycles=float(branch.sum()),
        )
        return StepTime(name=step.name, cycles=cycles, busy_cycles=busy, detail=detail)

    def with_p(self, p: int) -> "SMPMachine":
        """A copy of this machine configured for a different processor count."""
        return SMPMachine(p=p, config=self.config, use_traces=self.use_traces)
