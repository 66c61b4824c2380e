"""The Helman–JáJá list-ranking / prefix algorithm for SMPs, instrumented.

This is the paper's SMP algorithm (Section 3), in its five steps:

1. **Find the head** arithmetically: ``h = n(n−1)/2 − Σ nxt[i] − 1``
   (a contiguous reduction — cache friendly).
2. **Partition** the list into ``s`` sublists by randomly choosing one
   node from each block of ``n/(s−1)`` array positions, plus the head.
   The paper uses ``s = 8p``, large enough that with high probability no
   processor is stuck with a disproportionate share of list nodes.
3. **Traverse** each sublist, computing every node's prefix within its
   sublist and recording its sublist index.  This is the dominant,
   pointer-chasing step whose memory behaviour separates Ordered from
   Random lists.
4. **Prefix over the sublist records** in list order (s is tiny — 8p —
   so this is done serially).
5. **Combine**: each node ⊕-adds its sublist's incoming prefix to its
   local prefix — three unit-stride sweeps.

The implementation computes real results (validated against
:func:`repro.lists.sequential.prefix_sequential`) while measuring the
per-processor access counts — with contiguity *measured from the actual
traversal*, not assumed — and optionally exact address traces for the
cache-simulating SMP model.

Expected model shape (paper): ``T(n,p) = ⟨n/p; O(n/p); …⟩`` for
``n > p² ln n``.
"""

from __future__ import annotations

import numpy as np

from ..arch.memory import AddressSpace
from ..core.cost import StepCost, bernoulli_mispredicts
from ..core.schedule import block_assign, dynamic_assign, per_proc_totals
from ..errors import ConfigurationError
from ._traversal import traverse_sublists, walk_traces
from .generate import head_of
from .prefix import ADD, PrefixOp
from .types import PrefixRun

__all__ = ["helman_jaja_prefix", "rank_helman_jaja", "DEFAULT_SUBLISTS_PER_PROC"]

#: The paper's choice: s = 8p sublists.
DEFAULT_SUBLISTS_PER_PROC = 8

#: Word accesses charged per node visited in step 3: read ``nxt[cur]``
#: and the marked flag of the successor; write ``local`` and
#: ``sublist_id``.  All four streams follow the traversal order, so they
#: share its contiguity.
_READS_PER_NODE = 2
_WRITES_PER_NODE = 2

#: Register operations charged per node visited in step 3 (pointer
#: bookkeeping, compare, ⊕).
_OPS_PER_NODE = 6


def _select_subheads(
    n: int, head: int, s: int, rng: np.random.Generator
) -> np.ndarray:
    """Head plus one random node per block of ``n/(s−1)`` positions.

    Duplicates of the head are dropped, so the result may have fewer
    than ``s`` entries (it always has at least one: the head).
    """
    if s <= 1 or n <= 1:
        return np.array([head], dtype=np.int64)
    n_splitters = min(s - 1, n - 1)
    block = n / n_splitters
    starts = (np.arange(n_splitters) * block).astype(np.int64)
    stops = np.minimum(((np.arange(n_splitters) + 1) * block).astype(np.int64), n)
    stops = np.maximum(stops, starts + 1)
    splitters = starts + (rng.random(n_splitters) * (stops - starts)).astype(np.int64)
    subheads = np.unique(np.concatenate([[head], splitters]))
    return subheads.astype(np.int64)


def helman_jaja_prefix(
    nxt: np.ndarray,
    p: int,
    values: np.ndarray | None = None,
    op: PrefixOp = ADD,
    *,
    s: int | None = None,
    rng: np.random.Generator | int | None = None,
    collect_traces: bool = False,
    schedule: str = "dynamic",
) -> PrefixRun:
    """Run the instrumented Helman–JáJá prefix computation.

    Parameters
    ----------
    nxt:
        Successor array of the list.
    p:
        Number of processors to instrument for.
    values, op:
        Prefix inputs; defaults to all-ones with addition (list ranking).
    s:
        Number of sublists; defaults to the paper's ``8p``.
    rng:
        Randomness for splitter selection.
    collect_traces:
        Attach exact per-processor word-address traces to the dominant
        steps (3 and 5) so the SMP model can simulate its caches.  Costs
        O(n) extra memory; intended for n up to a few hundred thousand.
    schedule:
        ``"dynamic"`` (paper's choice, default) or ``"block"`` — how
        sublists map to processors in step 3.

    Returns
    -------
    PrefixRun
        Prefix values, per-step costs, and diagnostics.
    """
    n = len(nxt)
    if n == 0:
        raise ConfigurationError("cannot rank an empty list")
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    if schedule not in ("dynamic", "block"):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    rng = np.random.default_rng(rng)
    if values is None:
        values = np.ones(n, dtype=np.int64)
    values = np.asarray(values)
    if values.shape != (n,):
        raise ConfigurationError("values must have one entry per node")
    if s is None:
        s = DEFAULT_SUBLISTS_PER_PROC * p

    space = AddressSpace()
    a_nxt = space.alloc("nxt", n)
    a_local = space.alloc("local", n)
    a_sid = space.alloc("sid", n)
    a_out = space.alloc("out", n)
    space.alloc("marked", n)
    steps: list[StepCost] = []

    # -- step 1: find the head (contiguous reduction) -------------------------
    head = head_of(nxt)
    traces1 = None
    if collect_traces:
        block = -(-n // p)
        traces1 = [
            a_nxt.base + np.arange(min(i * block, n), min((i + 1) * block, n), dtype=np.int64)
            for i in range(p)
        ]
    steps.append(
        StepCost(
            name="hj.1.find-head",
            p=p,
            contig=float(n),
            ops=2.0 * n,
            barriers=1,
            parallelism=n,
            working_set=n,
            traces=traces1,
        )
    )

    # -- step 2: choose sublist heads -----------------------------------------
    subheads = _select_subheads(n, head, s, rng)
    s_eff = len(subheads)
    steps.append(
        StepCost(
            name="hj.2.select-sublists",
            p=p,
            noncontig_writes=float(2 * s_eff),  # mark node + record head
            ops=float(4 * s_eff),
            barriers=1,
            parallelism=s_eff,
            working_set=n,
        )
    )

    # -- step 3: traverse sublists ---------------------------------------------
    trav = traverse_sublists(nxt, subheads, values, op)
    if schedule == "dynamic":
        assign = dynamic_assign(trav.lengths, p)
    else:
        assign = block_assign(s_eff, p)
    seq_pw = trav.seq_steps.astype(float)
    len_pw = trav.lengths.astype(float)
    ops_pp = per_proc_totals(assign, _OPS_PER_NODE * len_pw, p)
    traces3 = (
        walk_traces(trav, assign, p, a_nxt.base, a_local.base) if collect_traces else None
    )
    steps.append(
        StepCost(
            name="hj.3.traverse-sublists",
            p=p,
            contig=per_proc_totals(assign, _READS_PER_NODE * seq_pw, p),
            noncontig=per_proc_totals(assign, _READS_PER_NODE * (len_pw - seq_pw), p),
            contig_writes=per_proc_totals(assign, _WRITES_PER_NODE * seq_pw, p),
            noncontig_writes=per_proc_totals(assign, _WRITES_PER_NODE * (len_pw - seq_pw), p),
            ops=ops_pp,
            barriers=1,
            parallelism=s_eff,
            working_set=4 * n,
            traces=traces3,
            # one data-dependent "is the successor marked?" test per node;
            # per walk of length L it is taken once, so a one-bit
            # predictor expects 2(1/L)(1-1/L)L mispredicts per walk.
            branches=per_proc_totals(assign, len_pw, p),
            mispredicts=per_proc_totals(
                assign, bernoulli_mispredicts(np.ones(s_eff), len_pw), p
            ),
        )
    )

    # -- step 4: prefix over the sublist records (serial; s is tiny) -----------
    order = trav.chain_order()
    offsets = np.empty(s_eff, dtype=trav.local.dtype)
    acc = op.identity
    for w in order:
        offsets[w] = acc
        acc = op(acc, trav.totals[w])
    nc4 = np.zeros(p)
    nc4[0] = 3.0 * s_eff
    ncw4 = np.zeros(p)
    ncw4[0] = 1.0 * s_eff
    ops4 = np.zeros(p)
    ops4[0] = 4.0 * s_eff
    steps.append(
        StepCost(
            name="hj.4.sublist-prefix",
            p=p,
            noncontig=nc4,
            noncontig_writes=ncw4,
            ops=ops4,
            barriers=1,
            parallelism=1,
            working_set=4 * s_eff,
        )
    )

    # -- step 5: combine (unit-stride sweeps) -----------------------------------
    prefix = op(offsets[trav.sublist_id], trav.local).astype(trav.local.dtype)
    traces5 = (
        _step5_traces(n, p, a_local.base, a_sid.base, a_out.base) if collect_traces else None
    )
    steps.append(
        StepCost(
            name="hj.5.combine",
            p=p,
            contig=2.0 * n,
            contig_writes=1.0 * n,
            ops=2.0 * n,
            barriers=1,
            parallelism=n,
            working_set=3 * n,
            traces=traces5,
        )
    )

    loads = per_proc_totals(assign, trav.lengths.astype(float), p)
    stats = {
        "s": s_eff,
        "head": head,
        "rounds": trav.rounds,
        "lengths": trav.lengths,
        "assign": assign,
        "proc_loads": loads,
        "load_imbalance": float(loads.max() / max(loads.mean(), 1e-12)),
        "contig_fraction": float(trav.seq_steps.sum() / max(n - s_eff, 1)),
        "address_space_words": space.size,
    }
    return PrefixRun(prefix=prefix, ranks=None, steps=steps, stats=stats)


def rank_helman_jaja(
    nxt: np.ndarray,
    p: int,
    *,
    s: int | None = None,
    rng: np.random.Generator | int | None = None,
    collect_traces: bool = False,
    schedule: str = "dynamic",
) -> PrefixRun:
    """List ranking via :func:`helman_jaja_prefix` with all-ones values.

    The returned run has ``ranks`` filled: 0-based distance from the head.
    """
    run = helman_jaja_prefix(
        nxt,
        p,
        s=s,
        rng=rng,
        collect_traces=collect_traces,
        schedule=schedule,
    )
    run.ranks = run.prefix - 1
    return run


# -- trace construction ---------------------------------------------------------


def _step5_traces(
    n: int, p: int, local_base: int, sid_base: int, out_base: int
) -> list[np.ndarray]:
    """Per-processor address streams of the combine sweep (3 streams, unit stride)."""
    traces: list[np.ndarray] = []
    block = -(-n // p)
    for proc in range(p):
        lo = min(proc * block, n)
        hi = min(lo + block, n)
        idx = np.arange(lo, hi, dtype=np.int64)
        addrs = np.empty((len(idx), 3), dtype=np.int64)
        addrs[:, 0] = local_base + idx
        addrs[:, 1] = sid_base + idx
        addrs[:, 2] = out_base + idx
        traces.append(addrs.ravel())
    return traces
