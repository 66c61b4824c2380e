"""``mta-next``: the paper's hypothetical third-generation machine, in-tree.

The paper's conclusions announce the (then-upcoming) commodity-parts
Cray multithreaded machine: "In particular, the memory system will not
be as flat as in the MTA-2.  We will reconduct our studies on this
architecture as soon as it is available."  This module *is* that study
seam, and it is also the demonstration that the kernel / machine-model
split works: a new cycle-level machine with zero edits to
``kernel.py`` — a :class:`~repro.sim.mta_engine.MTAMachine` subclass
flips the parameters the commodity redesign would change, a two-line
:class:`~repro.sim.kernel.Engine` subclass points at it, and one
:func:`repro.backends.register_machine` call (next to the built-in
``mta`` one) puts ``mta-next-engine`` in the backend registry.

What the commodity redesign changes relative to the MTA-2:

* **The memory system is not flat.**  Latency quadruples (DRAM over a
  commodity interconnect instead of the MTA-2's uniform network) and
  bank modeling is on by default: the hash still spreads addresses,
  but hot spots now queue at real banks.
* **Fewer hardware streams** (64 per processor instead of 128) — the
  commodity core holds less thread state, so latency tolerance has to
  come from fewer, busier streams.
* **A faster clock** (500 MHz vs 220 MHz) — commodity parts win back
  raw rate; whether that helps irregular kernels is exactly the
  paper's question.

Everything else — full/empty bits, ``int_fetch_add`` serialization,
registered barriers, the interleaved issue discipline — is inherited
unchanged, which is the architectural claim in code form.
"""

from __future__ import annotations

from .kernel import Engine
from .mta_engine import MTAMachine

__all__ = ["MTANextMachine", "MTANextEngine"]


class MTANextMachine(MTAMachine):
    """MTA-2 derivative with a less-flat commodity memory system."""

    kind = "mta-next"

    def __init__(
        self,
        p: int = 1,
        *,
        streams_per_proc: int = 64,
        mem_latency: int = 400,
        lookahead: int = 2,
        max_outstanding: int = 8,
        barrier_latency: int = 40,
        clock_hz: float = 500e6,
        n_banks: int = 4096,
    ):
        super().__init__(
            p,
            streams_per_proc=streams_per_proc,
            mem_latency=mem_latency,
            lookahead=lookahead,
            max_outstanding=max_outstanding,
            barrier_latency=barrier_latency,
            clock_hz=clock_hz,
            n_banks=n_banks,
        )


class MTANextEngine(Engine):
    """The :class:`~repro.sim.kernel.Engine` facade over :class:`MTANextMachine`
    (an interleaved machine, so the MTA thread programs run on it
    unmodified)."""

    machine_class = MTANextMachine
