"""Thread programs that *execute* list ranking on the cycle engines.

The analytic machine models in :mod:`repro.core` time instrumented
NumPy runs; the programs here go one level deeper and run the
algorithms as swarms of simulated threads on
:class:`repro.sim.MTAEngine` / :class:`repro.sim.SMPEngine`, so that
utilization, fetch-add serialization, barrier drain, and cache
behaviour all *emerge* from execution.  This is the machinery behind
the paper's Table 1 (MTA processor utilization) and the
streams/scheduling ablations.

The programs compute real ranks (validated against
:func:`repro.lists.generate.true_ranks` by the callers and tests): the
generator threads mutate shared NumPy arrays between ``yield``\\ ed
machine ops, and the engine's interleaving is the execution order, so
the concurrency structure is genuine.

MTA program (mirrors the paper's Alg. 1 C code):

* ``setup`` — worker streams initialize/mark the rank array in
  fetch-add-dispatched chunks.
* ``walk`` — each stream grabs walk indices with ``int_fetch_add`` (the
  paper's dynamic scheduling) and pointer-chases its sublist with
  dependent loads.
* ``rank-walks`` — pointer-jumping over the walk records, double
  buffered with barriers like the ``tmp1``/``tmp2`` loop in Alg. 1.
* ``rerank`` — streams re-traverse sublists from ``head[w]`` to
  ``tail[w]`` writing final ranks.

SMP program (mirrors Helman–JáJá): one thread per processor; contiguous
chunk sweeps for steps 1/5, a fetch-add work queue over sublists for
step 3, serial step 4 on processor 0, software barriers between steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..arch.memory import AddressSpace
from ..errors import WorkloadError
from ..sim.mta_engine import MTAEngine, check_at_least_one
from ..sim.smp_engine import SMPEngine
from ..sim.stats import SimReport, combine_reports
from .generate import TAIL, check_successors, head_of
from .helman_jaja import _select_subheads
from .mta_ranking import _select_walk_heads

__all__ = ["MTAListRankingSim", "simulate_mta_list_ranking", "simulate_smp_list_ranking"]


@dataclass
class MTAListRankingSim:
    """Result of executing list ranking on a cycle engine.

    Attributes
    ----------
    ranks:
        Computed 0-based ranks (validated by tests against the ground truth).
    report:
        Whole-run :class:`~repro.sim.stats.SimReport` (cycles and
        machine counters add over phases; utilization is cycle-weighted).
    phase_reports:
        One report per parallel phase.
    """

    ranks: np.ndarray
    report: SimReport
    phase_reports: list[SimReport] = field(default_factory=list)

    @property
    def summary(self):
        """Observability report (:class:`repro.obs.RunSummary`) of
        :attr:`report`, the run totals."""
        from ..obs.summary import RunSummary

        return RunSummary.from_report(self.report)


def simulate_mta_list_ranking(
    nxt: np.ndarray,
    p: int = 1,
    *,
    streams_per_proc: int = 100,
    nodes_per_walk: int = 10,
    dynamic: bool = True,
    engine_kwargs: dict | None = None,
    hooks=(),
    engine=None,
    session=None,
) -> MTAListRankingSim:
    """Execute Alg. 1 on the MTA cycle engine and measure utilization.

    Parameters
    ----------
    nxt:
        Successor array.
    p:
        Simulated processors.
    streams_per_proc:
        Worker streams per processor (the paper uses 100).
    nodes_per_walk:
        Target sublist length (the paper's ~10), sets the walk count;
        at least 1.
    dynamic:
        ``True``: streams self-schedule walks via ``int_fetch_add`` (the
        paper's approach).  ``False``: walks are pre-assigned to streams
        in blocks — the load-imbalanced variant the scheduling ablation
        measures.
    engine_kwargs:
        Overrides for :class:`~repro.sim.MTAEngine`: machine parameters
        (latency, lookahead…) and ``tier``.
    hooks:
        :class:`~repro.sim.hooks.HookBus` listeners for every engine
        phase, e.g. ``(TracerHook(tracer),)``: a tracer records the four
        phases back to back on its timeline.
    engine:
        Engine facade to construct instead of the stock
        :class:`~repro.sim.MTAEngine` (any interleaved machine's
        :class:`~repro.sim.kernel.Engine` subclass works, e.g.
        :class:`~repro.sim.mta_next.MTANextEngine`).
    session:
        Optional :class:`repro.sim.checkpoint.CheckpointSession` shared
        by all four engine phases (periodic snapshots / resume).
    """
    check_at_least_one(streams_per_proc=streams_per_proc, nodes_per_walk=nodes_per_walk)
    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list")
    check_successors(nxt)
    head = head_of(nxt)
    nwalks = max(1, n // nodes_per_walk)
    heads = _select_walk_heads(n, head, nwalks).tolist()
    w = len(heads)
    n_workers = min(p * streams_per_proc, w)

    # Ops are literal tuples on allocation bases: check_successors above
    # bounds every successor, so no op needs a per-op check.
    space = AddressSpace()
    b_nxt = space.alloc("nxt", n).base
    b_rank = space.alloc("rank", n).base
    b_lnth = space.alloc("lnth", w).base
    b_next = space.alloc("nextw", w).base
    b_tail = space.alloc("tailw", w).base
    b_tmp1 = space.alloc("tmp1", w).base
    b_tmp2 = space.alloc("tmp2", w).base
    b_ctr = space.alloc("counters", 8).base

    nxt_l = nxt.tolist()
    marked = [False] * n
    for h in heads:
        marked[h] = True
    walk_of_head = {h: i for i, h in enumerate(heads)}

    lnth = [0] * w
    tail = [0] * w
    nextw = [-1] * w
    ranks = [-1] * n
    reports: list[SimReport] = []
    eng_cls = engine if engine is not None else MTAEngine
    kw = dict(engine_kwargs or {})
    kw.setdefault("streams_per_proc", streams_per_proc)

    def new_engine():
        """One phase's engine, its memory declared to the hooks."""
        eng = eng_cls(p=p, hooks=hooks, session=session, **kw)
        eng.declare_memory(space)
        return eng

    def worker_blocks():
        """Each worker's walks in order, or None per worker when walks
        are self-scheduled through a fetch-add counter."""
        if dynamic:
            return [None] * n_workers
        return [iter(b.tolist()) for b in np.array_split(np.arange(w), n_workers)]

    # -- phase 1: initialize + mark ------------------------------------------------
    def setup_worker(ctx_counter: int, chunk: int):
        while True:
            start = yield ("FA", ctx_counter, chunk)
            if start >= n:
                return
            for j in range(start, min(start + chunk, n)):
                yield ("S", b_rank + j)
                yield ("C", 1)

    eng = new_engine()
    eng.set_counter(b_ctr + 0, 0)
    chunk = max(8, n // max(1, 4 * n_workers))
    for _ in range(n_workers):
        eng.spawn(setup_worker(b_ctr + 0, chunk))
    reports.append(eng.run("mta.setup"))

    # -- phase 2: walk sublists -------------------------------------------------------
    def walk_worker(block):
        """Walk sublists, taking each next walk from the fetch-add
        counter (``block`` None) or from the pre-assigned ``block``."""
        while True:
            if block is None:
                wi = yield ("FA", b_ctr + 1, 1)
            else:
                wi = next(block, w)
            if wi >= w:
                return
            j = heads[wi]
            count = 0
            while True:
                yield ("C", 1)
                succ = nxt_l[j]
                yield ("LD", b_nxt + j)
                if succ == TAIL:
                    nextw[wi] = -1
                    break
                yield ("LD", b_rank + succ)
                if marked[succ]:
                    nextw[wi] = walk_of_head[succ]
                    break
                j = succ
                count += 1
            lnth[wi] = count + 1
            tail[wi] = j
            yield ("S", b_lnth + wi)
            yield ("S", b_tail + wi)
            yield ("S", b_next + wi)

    eng = new_engine()
    if dynamic:
        eng.set_counter(b_ctr + 1, 0)
    for block in worker_blocks():
        eng.spawn(walk_worker(block))
    reports.append(eng.run("mta.walk"))

    # -- phase 3: rank walk heads (double-buffered pointer jumping) --------------------
    # suffix[i] accumulates the node count from walk i to the chain end;
    # offset-before-walk = n - suffix, exactly the paper's NLIST - lnth[i].
    # Pointer jumping only copies values already in ptr, so checking it
    # once bounds every address of every round.
    if min(nextw) < -1 or max(nextw) >= w:
        raise WorkloadError("walk successors out of range; the list is malformed")
    suffix = list(lnth)
    ptr = list(nextw)
    rounds = max(1, math.ceil(math.log2(max(w, 2))))
    wy_workers = min(p * streams_per_proc, w)

    def wyllie_worker(walk_ids, n_rounds):
        for _ in range(n_rounds):
            staged = []
            for i in walk_ids:
                yield ("LD", b_next + i)
                nx = ptr[i]
                if nx >= 0:
                    yield ("LD", b_lnth + nx)
                    yield ("LD", b_next + nx)
                    staged.append((i, suffix[nx], ptr[nx]))
                    yield ("S", b_tmp1 + i)
                    yield ("S", b_tmp2 + i)
                yield ("C", 1)
            yield ("B", "wy-gather")
            for i, add, newptr in staged:
                suffix[i] += add
                ptr[i] = newptr
                yield ("LD", b_tmp1 + i)
                yield ("S", b_lnth + i)
                yield ("S", b_next + i)
            yield ("B", "wy-apply")

    eng = new_engine()
    eng.register_barrier("wy-gather", wy_workers)
    eng.register_barrier("wy-apply", wy_workers)
    for b in np.array_split(np.arange(w), wy_workers):
        eng.spawn(wyllie_worker(b.tolist(), rounds))
    reports.append(eng.run("mta.rank-walks"))
    offsets = [n - s for s in suffix]

    # -- phase 4: re-traverse writing final ranks -----------------------------------
    def rerank_worker(block):
        """Re-traverse sublists, each next walk taken as in :func:`walk_worker`."""
        while True:
            if block is None:
                wi = yield ("FA", b_ctr + 2, 1)
            else:
                wi = next(block, w)
            if wi >= w:
                return
            j = heads[wi]
            stop = tail[wi]
            r = offsets[wi]
            while True:
                ranks[j] = r
                yield ("S", b_rank + j)
                yield ("C", 1)
                if j == stop:
                    break
                r += 1
                j2 = nxt_l[j]
                yield ("LD", b_nxt + j)
                j = j2

    eng = new_engine()
    if dynamic:
        eng.set_counter(b_ctr + 2, 0)
    for block in worker_blocks():
        eng.spawn(rerank_worker(block))
    reports.append(eng.run("mta.rerank"))

    return MTAListRankingSim(
        ranks=np.array(ranks, dtype=np.int64),
        report=combine_reports("mta.list-ranking", reports),
        phase_reports=reports,
    )


def simulate_smp_list_ranking(
    nxt: np.ndarray,
    p: int = 1,
    *,
    s: int | None = None,
    rng: np.random.Generator | int = 0,
    config=None,
    hooks=(),
    tier: str = "auto",
    session=None,
) -> MTAListRankingSim:
    """Execute the Helman–JáJá algorithm on the SMP cycle engine.

    One simulated POSIX thread per processor; software barriers between
    the five steps; sublists dispatched through a fetch-add work queue
    (the dynamic schedule).  Cache behaviour comes from the engine's
    per-processor hierarchies fed by the algorithm's real addresses.
    Processor 0 emits ``PHASE`` markers so the run decomposes into the
    algorithm's five steps (``s1.sweep`` … ``s5.combine``).  ``rng``
    seeds the draw of the sublist heads (a fixed seed by default, so
    every call simulates the same run).  ``hooks`` are the engine's
    :class:`~repro.sim.hooks.HookBus` listeners.
    """
    from ..core.smp_machine import SUN_E4500

    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list")
    check_successors(nxt)
    if config is None:
        config = SUN_E4500
    rng = np.random.default_rng(rng)
    if s is None:
        s = 8 * p
    head = head_of(nxt)
    subheads = _select_subheads(n, head, s, rng).tolist()
    s_eff = len(subheads)

    space = AddressSpace()
    b_nxt = space.alloc("nxt", n).base
    b_local = space.alloc("local", n).base
    b_sid = space.alloc("sid", n).base
    b_out = space.alloc("out", n).base
    b_marked = space.alloc("marked", n).base
    b_sub = space.alloc("sublists", 4 * s_eff).base
    b_ctr = space.alloc("counters", 8).base

    nxt_l = nxt.tolist()
    marked = [False] * n
    for h in subheads:
        marked[h] = True
    walk_of_head = {h: i for i, h in enumerate(subheads)}
    local = [0] * n
    sid = [-1] * n
    totals = [0] * s_eff
    nextw = [-1] * s_eff
    offsets = [0] * s_eff
    out = [0] * n

    bounds = np.linspace(0, n, p + 1).astype(int)

    def program(proc: int):
        lo, hi = int(bounds[proc]), int(bounds[proc + 1])
        # Phase markers come from processor 0 only: marks are engine-global
        # (they slice the whole machine's timeline), so one designated
        # emitter keeps the slices a clean partition.
        if proc == 0:
            yield ("P", "s1.sweep")
        # -- step 1: contiguous head-sum sweep --------------------------------
        for j in range(lo, hi):
            yield ("L", b_nxt + j)
            yield ("C", 1)
        yield ("B", "s1")
        # -- step 2: processor 0 marks the sublist heads ------------------------
        if proc == 0:
            yield ("P", "s2.mark")
            for i, h in enumerate(subheads):
                yield ("S", b_marked + h)
                yield ("S", b_sub + i)
                yield ("C", 1)
        yield ("B", "s2")
        if proc == 0:
            yield ("P", "s3.walk")
        # -- step 3: walk sublists off the shared work queue ---------------------
        while True:
            wi = yield ("FA", b_ctr + 0, 1)
            if wi >= s_eff:
                break
            j = subheads[wi]
            run = 0
            while True:
                run += 1
                local[j] = run
                sid[j] = wi
                yield ("S", b_local + j)
                yield ("S", b_sid + j)
                yield ("C", 1)
                succ = nxt_l[j]
                yield ("LD", b_nxt + j)
                if succ == TAIL:
                    nextw[wi] = -1
                    break
                yield ("LD", b_marked + succ)
                if marked[succ]:
                    nextw[wi] = walk_of_head[succ]
                    break
                j = succ
            totals[wi] = run
            yield ("S", b_sub + s_eff + wi)
        yield ("B", "s3")
        # -- step 4: serial prefix over sublist records on processor 0 -----------
        if proc == 0:
            yield ("P", "s4.prefix")
            pointed = {x for x in nextw if x >= 0}
            cur = next(i for i in range(s_eff) if i not in pointed)
            acc = 0
            for _ in range(s_eff):
                offsets[cur] = acc
                acc += totals[cur]
                yield ("LD", b_sub + s_eff + cur)
                yield ("LD", b_sub + 2 * s_eff + cur)
                yield ("S", b_sub + 3 * s_eff + cur)
                yield ("C", 2)
                cur = nextw[cur]
                if cur < 0:
                    break
        yield ("B", "s4")
        if proc == 0:
            yield ("P", "s5.combine")
        # -- step 5: contiguous combine sweep --------------------------------------
        for j in range(lo, hi):
            yield ("L", b_local + j)
            yield ("L", b_sid + j)
            yield ("C", 2)
            out[j] = offsets[sid[j]] + local[j]
            yield ("S", b_out + j)
        yield ("B", "s5")

    eng = SMPEngine(p=p, config=config, hooks=hooks, tier=tier, session=session)
    eng.declare_memory(space)
    eng.set_counter(b_ctr + 0, 0)
    for proc in range(p):
        eng.spawn(program(proc))
    report = eng.run("smp.helman-jaja")
    ranks = np.array(out, dtype=np.int64) - 1
    return MTAListRankingSim(ranks=ranks, report=report, phase_reports=[report])
