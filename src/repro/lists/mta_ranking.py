"""The MTA list-ranking algorithm (paper's Alg. 1), instrumented.

The MTA variant of Helman–JáJá trades the careful locality of the SMP
algorithm for massive fine-grain parallelism:

1. **Mark** ``NWALK`` nodes (evenly spaced array positions plus the true
   head), splitting the list into NWALK sublists.
2. **Walk** every sublist concurrently to the next marked node,
   recording its length, tail, and successor walk.  Walks are handed to
   streams *dynamically* — each stream grabs the next walk index with a
   one-cycle ``int_fetch_add`` when it finishes its current walk — which
   is how the paper solves the unequal-walk-length load-balancing
   problem (the lengths are data-dependent, and on a shared-memory
   machine it is irrelevant *which* stream runs which walk).
3. **Rank the marked nodes**: a pointer-jumping (Wyllie) prefix over the
   NWALK-long walk chain — O(log NWALK) rounds of O(NWALK) work.
4. **Re-traverse** each sublist, adding the walk's incoming prefix to
   each node's local rank.

With ~10 nodes per walk and 100 streams per processor the paper reports
nearly 100 % utilization — a list of length 1000·p saturates p MTA
processors.  The defaults here mirror that operating point.

The implementation computes real prefix values for any associative ⊕
(ranking = all-ones + addition) and measures per-step access counts,
walk-length distributions, Wyllie round counts, and ``int_fetch_add``
hotspot traffic.
"""

from __future__ import annotations

import numpy as np

from ..arch.memory import AddressSpace
from ..core.cost import StepCost
from ..core.schedule import block_assign, dynamic_assign, per_proc_totals
from ..errors import ConfigurationError
from ._traversal import traverse_sublists, walk_traces
from .generate import head_of
from .prefix import ADD, PrefixOp
from .types import PrefixRun
from .wyllie import wyllie_exclusive

__all__ = ["mta_prefix", "rank_mta", "DEFAULT_NODES_PER_WALK", "DEFAULT_WALKS_PER_PROC"]

#: The saturation floor the paper reports: with 100 streams per
#: processor, ~10 nodes per walk already reaches ~100 % utilization —
#: i.e. a list of length 1000·p fully utilizes p processors.
DEFAULT_NODES_PER_WALK = 10

#: Walks per processor used for large lists.  ``NWALK`` is a fixed
#: constant in the paper's Alg. 1 (a few walks per stream is enough for
#: dynamic load balance); growing it with n would make the O(NWALK log
#: NWALK) Wyllie phase dominate the O(n) walk phases.
DEFAULT_WALKS_PER_PROC = 400

#: Accesses per node in the walk phase: read ``list[j]`` + read the
#: mark/rank word of the successor.
_WALK_ACCESSES_PER_NODE = 2

#: Register ops per node in the walk phase (compare, increment, move).
_WALK_OPS_PER_NODE = 3


def _select_walk_heads(n: int, head: int, nwalks: int) -> np.ndarray:
    """Evenly spaced array positions (Alg. 1's ``i * (NLIST / NWALK)``) plus the head."""
    if nwalks <= 1 or n <= 1:
        return np.array([head], dtype=np.int64)
    nwalks = min(nwalks, n)
    spaced = (np.arange(nwalks, dtype=np.int64) * n) // nwalks
    return np.unique(np.concatenate([[head], spaced])).astype(np.int64)


def mta_prefix(
    nxt: np.ndarray,
    p: int = 1,
    values: np.ndarray | None = None,
    op: PrefixOp = ADD,
    *,
    nwalks: int | None = None,
    collect_traces: bool = False,
    schedule: str = "dynamic",
) -> PrefixRun:
    """Run the instrumented MTA walk algorithm (Alg. 1 generalized to any ⊕).

    Parameters
    ----------
    nxt:
        Successor array of the list.
    p:
        Processor count to instrument for (sets per-processor cost
        distribution; the algorithm itself is oblivious to p — that is
        the point of the MTA programming model).
    values, op:
        Prefix inputs; defaults to all-ones with addition (ranking).
    nwalks:
        Number of walks; defaults to ``min(n // 10, 400·p)`` — enough
        walks that every stream has several (dynamic balance) but a
        fixed budget per processor so the Wyllie phase over walk
        records stays negligible, like the constant ``NWALK`` of the
        paper's Alg. 1.
    collect_traces:
        Attach exact per-processor address traces to the walk phases
        (for cross-running this algorithm on the cache-based SMP model).
    schedule:
        ``"dynamic"`` (Alg. 1's ``int_fetch_add`` loop, default) or
        ``"block"`` for the load-balancing ablation.
    """
    n = len(nxt)
    if n == 0:
        raise ConfigurationError("cannot rank an empty list")
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    if schedule not in ("dynamic", "block"):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    if values is None:
        values = np.ones(n, dtype=np.int64)
    values = np.asarray(values)
    if values.shape != (n,):
        raise ConfigurationError("values must have one entry per node")
    if nwalks is None:
        nwalks = max(1, min(n // DEFAULT_NODES_PER_WALK, DEFAULT_WALKS_PER_PROC * p))

    space = AddressSpace()
    a_nxt = space.alloc("nxt", n)
    a_rank = space.alloc("rank", n)
    steps: list[StepCost] = []

    # -- step 1: mark walk heads ------------------------------------------------
    head = head_of(nxt)
    heads = _select_walk_heads(n, head, nwalks)
    w = len(heads)
    steps.append(
        StepCost(
            name="mta.1.mark-heads",
            p=p,
            contig_writes=float(n),  # initialize the rank/mark array
            noncontig_writes=float(w),
            ops=float(n + 3 * w),
            barriers=1,
            parallelism=n,
            working_set=n,
        )
    )

    # -- step 2: concurrent walks -------------------------------------------------
    trav = traverse_sublists(nxt, heads, values, op)
    if schedule == "dynamic":
        assign = dynamic_assign(trav.lengths, p)
    else:
        assign = block_assign(w, p)
    contig_pw = _WALK_ACCESSES_PER_NODE * trav.seq_steps.astype(float)
    total_pw = _WALK_ACCESSES_PER_NODE * trav.lengths.astype(float)
    traces2 = (
        walk_traces(trav, assign, p, a_nxt.base, a_rank.base) if collect_traces else None
    )
    steps.append(
        StepCost(
            name="mta.2.walk-sublists",
            p=p,
            contig=per_proc_totals(assign, contig_pw, p),
            noncontig=per_proc_totals(assign, total_pw - contig_pw, p),
            noncontig_writes=3.0 * w / p,  # record lnth/tail/next per walk
            ops=per_proc_totals(assign, _WALK_OPS_PER_NODE * trav.lengths.astype(float), p),
            barriers=1,
            parallelism=w,
            working_set=2 * n,
            hotspot_ops=w if schedule == "dynamic" else 0,
            traces=traces2,
        )
    )

    # -- step 3: Wyllie pointer-jumping over the walk chain ------------------------
    offsets, rounds = wyllie_exclusive(trav.next_walk(), trav.totals, op)
    steps.append(
        StepCost(
            name="mta.3.rank-walk-heads",
            p=p,
            noncontig=float(3 * w * rounds),
            noncontig_writes=float(2 * w * rounds),
            ops=float(3 * w * rounds),
            barriers=rounds,
            parallelism=w,
            working_set=4 * w,
        )
    )

    # -- step 4: re-traverse, assigning final values --------------------------------
    prefix = op(offsets[trav.sublist_id], trav.local).astype(trav.local.dtype)
    traces4 = (
        walk_traces(trav, assign, p, a_nxt.base, a_rank.base) if collect_traces else None
    )
    steps.append(
        StepCost(
            name="mta.4.retraverse",
            p=p,
            contig=per_proc_totals(assign, contig_pw / 2, p),
            noncontig=per_proc_totals(assign, (total_pw - contig_pw) / 2, p),
            contig_writes=per_proc_totals(assign, contig_pw / 2, p),
            noncontig_writes=per_proc_totals(assign, (total_pw - contig_pw) / 2, p),
            ops=per_proc_totals(assign, 2.0 * trav.lengths.astype(float), p),
            barriers=1,
            parallelism=w,
            working_set=2 * n,
            hotspot_ops=w if schedule == "dynamic" else 0,
            traces=traces4,
        )
    )

    loads = per_proc_totals(assign, trav.lengths.astype(float), p)
    stats = {
        "nwalks": w,
        "head": head,
        "rounds": trav.rounds,
        "wyllie_rounds": rounds,
        "lengths": trav.lengths,
        "assign": assign,
        "proc_loads": loads,
        "load_imbalance": float(loads.max() / max(loads.mean(), 1e-12)),
        "contig_fraction": float(trav.seq_steps.sum() / max(n - w, 1)),
        "address_space_words": space.size,
    }
    return PrefixRun(prefix=prefix, ranks=None, steps=steps, stats=stats)


def rank_mta(
    nxt: np.ndarray,
    p: int = 1,
    *,
    nwalks: int | None = None,
    collect_traces: bool = False,
    schedule: str = "dynamic",
) -> PrefixRun:
    """List ranking via :func:`mta_prefix` with all-ones values (0-based ranks)."""
    run = mta_prefix(
        nxt, p, nwalks=nwalks, collect_traces=collect_traces, schedule=schedule
    )
    run.ranks = run.prefix - 1
    return run
