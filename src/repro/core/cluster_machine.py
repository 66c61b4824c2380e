"""Analytic timing model of a 2005-era message-passing cluster.

The paper's introduction frames the whole study with a claim about a
*third* architecture class: "few parallel graph algorithms outperform
their best sequential implementation on clusters due to long memory
latencies and high synchronization costs."  This model makes that
claim checkable with the same instrumented runs the SMP and MTA models
consume.

A cluster node is a commodity cache-based CPU; the difference is what a
*non-contiguous* access means.  The shared arrays of a graph algorithm
are block-distributed over ``p`` nodes, so a scattered access hits a
remote node with probability ``(p−1)/p`` — and a remote access is not a
cache miss but a *message*: software send/receive overhead plus a
network round trip, microseconds rather than nanoseconds.  Real codes
soften this by batching requests (the bulk-synchronous style of the
Krishnamurthy et al. CC implementation the paper surveys); the
``batching`` parameter models how many remote requests share one
message's overhead and latency, so the model spans naive
fine-grained DSM (``batching = 1``) to aggressive aggregation.

Barriers are MPI-style collectives: tens of microseconds.

Defaults describe a respectable 2005 Beowulf: 2 GHz nodes, Myrinet-ish
6 µs round trip, 2 µs software overhead per message, 250 MB/s links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from ..errors import ConfigurationError
from .cost import StepCost
from .machine import MachineModel, StepTime, validate_config

__all__ = ["ClusterConfig", "BEOWULF_2005", "ClusterMachine"]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of a message-passing cluster.

    Latencies are in *node* cycles; one element is 4 bytes, as in the
    SMP model.
    """

    name: str = "Beowulf-2005"
    clock_hz: float = 2e9
    max_p: int = 256
    #: Local memory behaviour of one node (coarse: cycles per access).
    local_contig_cycles: float = 2.0
    local_noncontig_cycles: float = 150.0
    cpi: float = 0.5
    #: One-way software overhead of sending or receiving a message.
    sw_overhead_us: float = 2.0
    #: Network round-trip latency.
    rtt_us: float = 6.0
    #: Link bandwidth in MB/s (per node).
    bandwidth_mb_s: float = 250.0
    #: Remote requests amortized per message (1 = naive fine-grained DSM;
    #: hundreds = bulk-synchronous aggregation).
    batching: float = 1.0
    #: CPU cycles spent per remote request regardless of batching:
    #: bucketing it by destination, packing, unpacking the reply, and
    #: applying it.  This is why the bulk-synchronous CC codes the paper
    #: surveys still saw "virtually no speedup on sparse random graphs" —
    #: aggregation removes the latency, not the per-request software work.
    marshalling_cycles: float = 400.0
    #: MPI barrier cost.
    barrier_us: float = 30.0

    def __post_init__(self) -> None:
        validate_config(
            self,
            at_least_one=("max_p", "batching"),
            positive=("clock_hz", "bandwidth_mb_s"),
            non_negative=(
                "local_contig_cycles", "local_noncontig_cycles", "cpi", "sw_overhead_us",
                "rtt_us", "marshalling_cycles", "barrier_us",
            ),
        )

    @property
    def remote_access_cycles(self) -> float:
        """Cycles one scattered remote access costs after batching.

        Each batched message still moves the request and the 4-byte
        reply across the link, so bandwidth bounds the amortized cost
        even at infinite batching.
        """
        us_per_msg = 2 * self.sw_overhead_us + self.rtt_us
        amortized_us = us_per_msg / self.batching
        wire_us = 8.0 / (self.bandwidth_mb_s * 1e6) * 1e6  # 8 B req+reply
        return (amortized_us + wire_us) * 1e-6 * self.clock_hz + self.marshalling_cycles

    def barrier_cycles(self, p: int) -> float:
        scale = max(1.0, math.log2(max(p, 2)))
        return self.barrier_us * 1e-6 * self.clock_hz * scale / 4.0


#: A well-equipped 2005 commodity cluster.
BEOWULF_2005 = ClusterConfig()


class ClusterMachine(MachineModel):
    """Timing model instance for ``p`` nodes of a :class:`ClusterConfig`.

    Parameters
    ----------
    p:
        Node count; ``p = 1`` degenerates to a single workstation (all
        accesses local).
    config:
        Cluster description; defaults to :data:`BEOWULF_2005`.
    """

    def __init__(self, p: int = 1, config: ClusterConfig = BEOWULF_2005) -> None:
        if not 1 <= p <= config.max_p:
            raise ConfigurationError(f"p={p} outside [1, {config.max_p}]")
        self._p = p
        self.config = config
        self.name = config.name

    @property
    def clock_hz(self) -> float:
        return self.config.clock_hz

    @property
    def p(self) -> int:
        return self._p

    def step_time(self, step: StepCost) -> StepTime:
        if step.p != self.p:
            raise ConfigurationError(
                f"step {step.name!r} instrumented for p={step.p}, machine has p={self.p}"
            )
        c = self.config
        remote_frac = (self.p - 1) / self.p
        scattered = step.noncontig + step.noncontig_writes
        remote = scattered * remote_frac
        local_scattered = scattered - remote
        mem = (
            (step.contig + step.contig_writes) * c.local_contig_cycles
            + local_scattered * c.local_noncontig_cycles
            + remote * c.remote_access_cycles
        )
        comp = step.ops * c.cpi
        per_node = mem + comp
        work_cycles = float(per_node.max()) if len(per_node) else 0.0
        barrier = step.barriers * c.barrier_cycles(self.p)
        cycles = work_cycles + barrier
        detail = dict(
            remote_accesses=float(remote.sum()),
            remote_cycles_per_access=c.remote_access_cycles,
            barrier_cycles=barrier,
        )
        return StepTime(
            name=step.name,
            cycles=cycles,
            busy_cycles=float(comp.sum() + mem.sum()),
            detail=detail,
        )

    def with_p(self, p: int) -> "ClusterMachine":
        """A copy of this machine configured for a different node count."""
        return ClusterMachine(p=p, config=self.config)
