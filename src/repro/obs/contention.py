"""Contention profiles extracted from engine reports.

The paper's performance arguments hinge on *where* cycles are lost to
contention: ``int_fetch_add`` hotspots serializing at one request per
cycle on the MTA, threads queueing on full/empty words, processors
idling at barriers, SMP cache misses flooding the shared bus.  The
engines count those losses at their source (per fetch-add cell, per
wait episode, per processor); this module turns the raw
``SimReport.detail`` dicts into one structured, renderable profile.

Wait-time histograms use power-of-two buckets: bucket ``b`` counts
episodes whose wait was in ``[2^(b-1), 2^b)`` cycles (bucket 0 =
no wait).  See :func:`log2_bucket`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "log2_bucket",
    "bucket_range",
    "fa_concentration",
    "ContentionProfile",
]


def fa_concentration(fa_counts: dict) -> dict:
    """Hotspot-concentration stats over fetch-add traffic per cell.

    ``fa_counts`` maps address -> FA op count (as collected by the
    concurrency analyzer or from ``fa_sites``).  Returns the total
    traffic, the number of distinct cells, the hottest cell with its
    share of all traffic, and the Herfindahl–Hirschman index (sum of
    squared shares: 1.0 means one cell serializes everything, 1/n
    means perfectly spread traffic).
    """
    total = sum(fa_counts.values())
    if total <= 0:
        return {"total": 0, "sites": 0, "top": None, "top_share": 0.0, "hhi": 0.0}
    top_addr, top_n = max(fa_counts.items(), key=lambda kv: (kv[1], -kv[0]))
    hhi = sum((n / total) ** 2 for n in fa_counts.values())
    return {
        "total": int(total),
        "sites": len(fa_counts),
        "top": {"addr": int(top_addr), "count": int(top_n)},
        "top_share": top_n / total,
        "hhi": hhi,
    }


def log2_bucket(wait: int) -> int:
    """Histogram bucket for a wait of ``wait`` cycles (0 → bucket 0)."""
    if wait <= 0:
        return 0
    return int(wait).bit_length()


def bucket_range(bucket: int) -> tuple[int, int]:
    """Inclusive-exclusive cycle range ``[lo, hi)`` covered by a bucket."""
    if bucket <= 0:
        return (0, 1)
    return (1 << (bucket - 1), 1 << bucket)


@dataclass
class ContentionProfile:
    """Structured view of one run's contention counters.

    Every field is optional — an MTA report carries fetch-add and
    full/empty data, an SMP report carries barrier-wait and cache-miss
    data — and :meth:`render` prints only the sections present.
    """

    #: addr -> (ops, serialization stall cycles) for every fetch-add cell.
    fa_sites: dict = field(default_factory=dict)
    fa_total_stalls: int = 0
    #: log2 bucket -> wait episodes on full/empty words.
    fe_wait_hist: dict = field(default_factory=dict)
    fe_wait_cycles: int = 0
    #: barrier id -> {"episodes", "wait_cycles", "max_wait"} (MTA) or
    #: per-processor wait-cycle list (SMP).
    barrier_waits: dict = field(default_factory=dict)
    barrier_wait_per_proc: list = field(default_factory=list)
    bank_stalls: int = 0
    #: per-processor cache miss counts, when the report carries them.
    l1_misses: list = field(default_factory=list)
    l2_misses: list = field(default_factory=list)
    bus_busy_cycles: float = 0.0

    @classmethod
    def from_report(cls, report) -> "ContentionProfile":
        """Build a profile from a :class:`~repro.sim.stats.SimReport` or
        :class:`~repro.obs.RunSummary` (a multi-run program's combined
        report already holds every run's counters)."""
        d = report.detail
        sites = dict(d.get("fa_sites", {}))
        # the SMP engine records stalls per site only; total them here
        default_stalls = sum(stalls for _, stalls in sites.values())
        return cls(
            fa_sites=sites,
            fa_total_stalls=int(d.get("fa_serialization_stalls", default_stalls)),
            fe_wait_hist=dict(d.get("fe_wait_hist", {})),
            fe_wait_cycles=int(d.get("fe_wait_cycles", 0)),
            barrier_waits=dict(d.get("barrier_waits", {})),
            barrier_wait_per_proc=list(d.get("barrier_wait_cycles", [])),
            bank_stalls=int(d.get("bank_contention_stalls", 0)),
            l1_misses=list(d.get("l1_misses", [])),
            l2_misses=list(d.get("l2_misses", [])),
            bus_busy_cycles=float(d.get("bus_busy_cycles", 0.0)),
        )

    def hottest_fa_sites(self, k: int = 5) -> list[tuple[int, int, int]]:
        """Top-``k`` fetch-add cells by stall cycles: (addr, ops, stalls)."""
        rows = [(addr, ops, stalls) for addr, (ops, stalls) in self.fa_sites.items()]
        rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
        return rows[:k]

    def render(self) -> str:
        """Human-readable multi-section contention report."""
        lines: list[str] = ["contention profile"]
        if self.fa_sites:
            lines.append(
                f"  int_fetch_add: {len(self.fa_sites)} cell(s),"
                f" {self.fa_total_stalls} serialization stall cycle(s)"
            )
            for addr, ops, stalls in self.hottest_fa_sites():
                lines.append(
                    f"    addr {addr:>8}: {ops:>8} ops  {stalls:>10.0f} stall cycles"
                )
        if self.fe_wait_hist:
            lines.append(f"  full/empty waits: {self.fe_wait_cycles} cycle(s) total")
            for bucket in sorted(self.fe_wait_hist):
                lo, hi = bucket_range(bucket)
                lines.append(
                    f"    wait [{lo:>6}, {hi:>6}) cycles: {self.fe_wait_hist[bucket]} episode(s)"
                )
        if self.barrier_waits:
            lines.append("  barriers:")
            for bid in sorted(self.barrier_waits):
                b = self.barrier_waits[bid]
                lines.append(
                    f"    {bid}: {b['episodes']} arrival(s),"
                    f" {b['wait_cycles']} wait cycle(s), max {b['max_wait']}"
                )
        if self.barrier_wait_per_proc:
            waits = ", ".join(f"{w:.0f}" for w in self.barrier_wait_per_proc)
            lines.append(f"  barrier wait cycles per processor: [{waits}]")
        if self.l1_misses or self.l2_misses:
            lines.append(
                f"  cache misses per processor: L1 {self.l1_misses}  L2 {self.l2_misses}"
            )
        if self.bus_busy_cycles:
            lines.append(f"  shared bus busy: {self.bus_busy_cycles:.0f} cycle(s)")
        if self.bank_stalls:
            lines.append(f"  memory-bank stalls: {self.bank_stalls} cycle(s)")
        if len(lines) == 1:
            lines.append("  (no contention recorded)")
        return "\n".join(lines)
