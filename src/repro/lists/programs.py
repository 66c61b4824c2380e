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
from ..sim import isa
from ..sim.mta_engine import MTAEngine
from ..sim.smp_engine import SMPEngine
from ..sim.stats import SimReport, combine_reports
from .generate import TAIL, head_of
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
    tracer=None,
    check=None,
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
        Target sublist length (the paper's ~10), sets the walk count.
    dynamic:
        ``True``: streams self-schedule walks via ``int_fetch_add`` (the
        paper's approach).  ``False``: walks are pre-assigned to streams
        in blocks — the load-imbalanced variant the scheduling ablation
        measures.
    engine_kwargs:
        Overrides for :class:`~repro.sim.MTAEngine` (latency, lookahead…).
    tracer:
        Optional :class:`repro.obs.Tracer`; the four engine phases are
        recorded back to back on its timeline.
    engine:
        Engine facade to construct instead of the stock
        :class:`~repro.sim.MTAEngine` (any interleaved machine's
        :class:`~repro.sim.kernel.Engine` subclass works, e.g.
        :class:`~repro.sim.mta_next.MTANextEngine`).
    session:
        Optional :class:`repro.sim.checkpoint.CheckpointSession` shared
        by all four engine phases (periodic snapshots / resume).
    """
    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list")
    head = head_of(nxt)
    nwalks = max(1, n // max(1, nodes_per_walk))
    heads = _select_walk_heads(n, head, nwalks)
    w = len(heads)
    n_workers = min(p * streams_per_proc, w)

    space = AddressSpace()
    a_nxt = space.alloc("nxt", n)
    a_rank = space.alloc("rank", n)
    a_lnth = space.alloc("lnth", w)
    a_next = space.alloc("nextw", w)
    a_tail = space.alloc("tailw", w)
    a_tmp1 = space.alloc("tmp1", w)
    a_tmp2 = space.alloc("tmp2", w)
    a_ctr = space.alloc("counters", 8)

    nxt_l = nxt.tolist()
    marked = np.zeros(n, dtype=bool)
    marked[heads] = True
    walk_of_head = {int(h): i for i, h in enumerate(heads)}

    lnth = np.zeros(w, dtype=np.int64)
    tail = np.zeros(w, dtype=np.int64)
    nextw = np.full(w, -1, dtype=np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    reports: list[SimReport] = []
    eng_cls = engine if engine is not None else MTAEngine
    kw = dict(engine_kwargs or {})
    kw.setdefault("streams_per_proc", max(streams_per_proc, 1))
    kw.setdefault("tracer", tracer)
    kw.setdefault("check", check)
    kw.setdefault("session", session)
    if kw["check"] is not None:
        kw["check"].set_address_space(space)

    # -- phase 1: initialize + mark ------------------------------------------------
    def setup_worker(ctx_counter: int, chunk: int):
        while True:
            start = yield isa.fetch_add(ctx_counter, chunk)
            if start >= n:
                return
            for j in range(start, min(start + chunk, n)):
                yield isa.store(a_rank.addr(j))
                yield isa.compute(1)

    eng = eng_cls(p=p, **kw)
    eng.set_counter(a_ctr.base + 0, 0)
    chunk = max(8, n // max(1, 4 * n_workers))
    for _ in range(n_workers):
        eng.spawn(setup_worker(a_ctr.base + 0, chunk))
    reports.append(eng.run("mta.setup"))

    # -- phase 2: walk sublists -------------------------------------------------------
    def walk_worker_dynamic(counter_addr):
        while True:
            wi = yield isa.fetch_add(counter_addr, 1)
            if wi >= w:
                return
            yield from walk_body(wi)

    def walk_worker_block(walk_ids):
        for wi in walk_ids:
            yield from walk_body(wi)

    def walk_body(wi: int):
        j = int(heads[wi])
        count = 0
        while True:
            yield isa.compute(1)
            succ = nxt_l[j]
            yield isa.load_dep(a_nxt.addr(j))
            if succ == TAIL:
                nextw[wi] = -1
                break
            yield isa.load_dep(a_rank.addr(succ))
            if marked[succ]:
                nextw[wi] = walk_of_head[succ]
                break
            j = succ
            count += 1
        lnth[wi] = count + 1
        tail[wi] = j
        yield isa.store(a_lnth.addr(wi))
        yield isa.store(a_tail.addr(wi))
        yield isa.store(a_next.addr(wi))

    eng = eng_cls(p=p, **kw)
    if dynamic:
        eng.set_counter(a_ctr.base + 1, 0)
        for _ in range(n_workers):
            eng.spawn(walk_worker_dynamic(a_ctr.base + 1))
    else:
        blocks = np.array_split(np.arange(w), n_workers)
        for b in blocks:
            eng.spawn(walk_worker_block(b.tolist()))
    reports.append(eng.run("mta.walk"))

    # -- phase 3: rank walk heads (double-buffered pointer jumping) --------------------
    # suffix[i] accumulates the node count from walk i to the chain end;
    # offset-before-walk = n - suffix, exactly the paper's NLIST - lnth[i].
    suffix = lnth.astype(np.int64).copy()
    ptr = nextw.copy()
    rounds = max(1, math.ceil(math.log2(max(w, 2))))
    wy_workers = min(p * streams_per_proc, w)

    def wyllie_worker(walk_ids, n_rounds):
        for _ in range(n_rounds):
            staged = []
            for i in walk_ids:
                yield isa.load_dep(a_next.addr(i))
                nx = int(ptr[i])
                if nx >= 0:
                    yield isa.load_dep(a_lnth.addr(nx))
                    yield isa.load_dep(a_next.addr(nx))
                    staged.append((i, suffix[nx], ptr[nx]))
                    yield isa.store(a_tmp1.addr(i))
                    yield isa.store(a_tmp2.addr(i))
                yield isa.compute(1)
            yield isa.barrier("wy-gather")
            for i, add, newptr in staged:
                suffix[i] += add
                ptr[i] = newptr
                yield isa.load_dep(a_tmp1.addr(i))
                yield isa.store(a_lnth.addr(i))
                yield isa.store(a_next.addr(i))
            yield isa.barrier("wy-apply")

    eng = eng_cls(p=p, **kw)
    eng.register_barrier("wy-gather", wy_workers)
    eng.register_barrier("wy-apply", wy_workers)
    for b in np.array_split(np.arange(w), wy_workers):
        eng.spawn(wyllie_worker(b.tolist(), rounds))
    reports.append(eng.run("mta.rank-walks"))
    offsets = (n - suffix).astype(np.int64)

    # -- phase 4: re-traverse writing final ranks -----------------------------------
    def rerank_body(wi: int):
        j = int(heads[wi])
        stop = int(tail[wi])
        r = int(offsets[wi])
        while True:
            ranks[j] = r
            yield isa.store(a_rank.addr(j))
            yield isa.compute(1)
            if j == stop:
                break
            r += 1
            j2 = nxt_l[j]
            yield isa.load_dep(a_nxt.addr(j))
            j = j2

    def rerank_dynamic(counter_addr):
        while True:
            wi = yield isa.fetch_add(counter_addr, 1)
            if wi >= w:
                return
            yield from rerank_body(wi)

    def rerank_block(walk_ids):
        for wi in walk_ids:
            yield from rerank_body(wi)

    eng = eng_cls(p=p, **kw)
    if dynamic:
        eng.set_counter(a_ctr.base + 2, 0)
        for _ in range(n_workers):
            eng.spawn(rerank_dynamic(a_ctr.base + 2))
    else:
        for b in np.array_split(np.arange(w), n_workers):
            eng.spawn(rerank_block(b.tolist()))
    reports.append(eng.run("mta.rerank"))

    return MTAListRankingSim(
        ranks=ranks,
        report=combine_reports("mta.list-ranking", reports),
        phase_reports=reports,
    )


def simulate_smp_list_ranking(
    nxt: np.ndarray,
    p: int = 1,
    *,
    s: int | None = None,
    rng: np.random.Generator | int | None = None,
    config=None,
    tracer=None,
    check=None,
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
    algorithm's five steps (``s1.sweep`` … ``s5.combine``).  ``hooks``
    are extra :class:`~repro.sim.hooks.HookBus` listeners for the engine.
    """
    from ..core.smp_machine import SUN_E4500

    n = len(nxt)
    if n == 0:
        raise WorkloadError("empty list")
    if config is None:
        config = SUN_E4500
    rng = np.random.default_rng(rng)
    if s is None:
        s = 8 * p
    head = head_of(nxt)
    subheads = _select_subheads(n, head, s, rng)
    s_eff = len(subheads)

    space = AddressSpace()
    a_nxt = space.alloc("nxt", n)
    a_local = space.alloc("local", n)
    a_sid = space.alloc("sid", n)
    a_out = space.alloc("out", n)
    a_marked = space.alloc("marked", n)
    a_sub = space.alloc("sublists", 4 * s_eff)
    a_ctr = space.alloc("counters", 8)

    nxt_l = nxt.tolist()
    marked = np.zeros(n, dtype=bool)
    marked[subheads] = True
    walk_of_head = {int(h): i for i, h in enumerate(subheads)}
    local = np.zeros(n, dtype=np.int64)
    sid = np.full(n, -1, dtype=np.int64)
    totals = np.zeros(s_eff, dtype=np.int64)
    nextw = np.full(s_eff, -1, dtype=np.int64)
    offsets = np.zeros(s_eff, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)

    bounds = np.linspace(0, n, p + 1).astype(int)

    def program(proc: int):
        lo, hi = int(bounds[proc]), int(bounds[proc + 1])
        # Phase markers come from processor 0 only: marks are engine-global
        # (they slice the whole machine's timeline), so one designated
        # emitter keeps the slices a clean partition.
        if proc == 0:
            yield isa.phase("s1.sweep")
        # -- step 1: contiguous head-sum sweep --------------------------------
        for j in range(lo, hi):
            yield isa.load(a_nxt.addr(j))
            yield isa.compute(1)
        yield isa.barrier("s1")
        # -- step 2: processor 0 marks the sublist heads ------------------------
        if proc == 0:
            yield isa.phase("s2.mark")
            for i, h in enumerate(subheads):
                yield isa.store(a_marked.addr(int(h)))
                yield isa.store(a_sub.addr(i))
                yield isa.compute(1)
        yield isa.barrier("s2")
        if proc == 0:
            yield isa.phase("s3.walk")
        # -- step 3: walk sublists off the shared work queue ---------------------
        while True:
            wi = yield isa.fetch_add(a_ctr.base + 0, 1)
            if wi >= s_eff:
                break
            j = int(subheads[wi])
            run = 0
            while True:
                run += 1
                local[j] = run
                sid[j] = wi
                yield isa.store(a_local.addr(j))
                yield isa.store(a_sid.addr(j))
                yield isa.compute(1)
                succ = nxt_l[j]
                yield isa.load_dep(a_nxt.addr(j))
                if succ == TAIL:
                    nextw[wi] = -1
                    break
                yield isa.load_dep(a_marked.addr(succ))
                if marked[succ]:
                    nextw[wi] = walk_of_head[succ]
                    break
                j = succ
            totals[wi] = run
            yield isa.store(a_sub.addr(s_eff + wi))
        yield isa.barrier("s3")
        # -- step 4: serial prefix over sublist records on processor 0 -----------
        if proc == 0:
            yield isa.phase("s4.prefix")
            order = []
            pointed = set(int(x) for x in nextw if x >= 0)
            cur = next(i for i in range(s_eff) if i not in pointed)
            acc = 0
            for _ in range(s_eff):
                order.append(cur)
                offsets[cur] = acc
                acc += int(totals[cur])
                yield isa.load_dep(a_sub.addr(s_eff + cur))
                yield isa.load_dep(a_sub.addr(2 * s_eff + cur))
                yield isa.store(a_sub.addr(3 * s_eff + cur))
                yield isa.compute(2)
                cur = int(nextw[cur])
                if cur < 0:
                    break
        yield isa.barrier("s4")
        if proc == 0:
            yield isa.phase("s5.combine")
        # -- step 5: contiguous combine sweep --------------------------------------
        for j in range(lo, hi):
            yield isa.load(a_local.addr(j))
            yield isa.load(a_sid.addr(j))
            yield isa.compute(2)
            out[j] = offsets[sid[j]] + local[j]
            yield isa.store(a_out.addr(j))
        yield isa.barrier("s5")

    if check is not None:
        check.set_address_space(space)
    eng = SMPEngine(
        p=p, config=config, tracer=tracer, check=check, hooks=hooks, tier=tier,
        session=session,
    )
    eng.set_counter(a_ctr.base + 0, 0)
    for proc in range(p):
        eng.spawn(program(proc))
    report = eng.run("smp.helman-jaja")
    ranks = out - 1
    return MTAListRankingSim(ranks=ranks, report=report, phase_reports=[report])
