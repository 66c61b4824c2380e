"""The vectorized fast-path execution tier.

The interpreted engines resume a Python generator per issued op, which
caps them around a million ops per second — three orders of magnitude
short of the paper's n = 1M-vertex runs (ROADMAP item 1).  This module
is the Simics "hypersimulation" answer: when nobody is observing
per-op detail, the kernel may *fast-forward* through regimes whose
behavior it can compute in closed form, as long as every observable —
cycle counts, per-processor issue totals, op-count histograms, phase
slices, barrier statistics, contention counters — comes out
**byte-identical** to the interpreted tier.  That equivalence is
enforced by the differential fuzz suite (``tests/test_sim_fuzz.py``)
and the golden tests (``tests/test_engine_equivalence.py``).

Two pieces cooperate on a machine that sets
:attr:`~repro.sim.kernel.MachineModel.fast_forward` (the MTA, with bank
modeling off: per-bank queues admit no closed-form window):

:class:`OpBlock`
    A precompiled straight-line run of plain ops (``C``/``L``/``LD``/
    ``S``), declared by a program via :func:`repro.sim.isa.run_block`.
    Because the ops are static data, no generator code needs to run
    between them — the fast tier may execute the whole run as a batch
    without reordering any of the program's real (Python-side)
    computation.  Generator-yielded ops are *always* pulled lazily, in
    exactly the interpreted order, so programs that never use
    ``run_block`` still simulate identically (just without the
    speedup).

:func:`try_ld_window`
    The interleaved-mode fast-forward.  When **every** live stream on
    every processor sits inside an ``OpBlock`` run of dependent loads
    (the pointer-chase regime that dominates the paper's list-ranking
    walk), the round-robin scheduler's future is fully determined:
    each processor issues from its streams in a fixed rotation, and
    the issue times obey the max-plus recurrence

        ``I[q] = max(I[q-1] + 1, A[q])``

    (one issue per processor per cycle, no earlier than the stream's
    wake).  A round of that recurrence is a prefix-maximum — computed
    with ``np.maximum.accumulate`` — and after a short transient the
    schedule turns arithmetic with period ``max(streams, latency)``,
    so the remaining rounds collapse to closed form.  The window ends
    just before any stream would issue a non-``LD`` op (its block
    ends, or a value-returning op is next), at which point the kernel
    materializes the exact interpreter state — ready-queue order,
    wake heap, issue counts — and resumes the scalar loop.

The fast tier never changes *what* is simulated, only *how fast* the
simulator gets through it; ``docs/SIMULATION.md`` ("Execution tiers")
states the selection rules and fidelity guarantees.
"""

from __future__ import annotations

import heapq

import numpy as np

from .isa import COMPUTE, LOAD, LOAD_DEP, STORE
from .thread import BLOCKED

__all__ = ["OpBlock", "try_ld_window"]

#: Integer codes for the plain ops an :class:`OpBlock` may contain.
_CODES = {COMPUTE: 0, LOAD: 1, LOAD_DEP: 2, STORE: 3}
LD_CODE = _CODES[LOAD_DEP]


class OpBlock:
    """A precompiled straight-line run of plain ops (see module docstring).

    Only ``C``/``L``/``LD``/``S`` are allowed: nothing inside a block
    may return a value into the generator, synchronize, barrier, or
    mark a phase — those are the points where program code must run at
    its exact simulated moment, so they terminate a block by
    construction.
    """

    __slots__ = ("ops", "n", "codes", "ld_run_end")

    def __init__(self, ops):
        ops = tuple(ops)
        codes = np.empty(len(ops), dtype=np.int8)
        for i, op in enumerate(ops):
            code = _CODES.get(op[0])
            if code is None:
                raise TypeError(
                    f"run_block op {i} is {op[0]!r}; only plain ops "
                    "(C/L/LD/S) may appear in a block"
                )
            codes[i] = code
        self.ops = ops
        self.n = len(ops)
        self.codes = codes
        # ld_run_end[i]: first position >= i whose op is not LD — the
        # length of the dependent-load run starting at i is
        # ld_run_end[i] - i.  Used by the window planner.
        n = self.n
        boundaries = np.flatnonzero(codes != LD_CODE)
        self.ld_run_end = np.full(n, n, dtype=np.int64)
        if boundaries.size:
            pos = np.searchsorted(boundaries, np.arange(n), side="left")
            inside = pos < boundaries.size
            self.ld_run_end[inside] = boundaries[pos[inside]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpBlock(n={self.n})"


# Give up on a window's transient phase after this many explicitly
# computed rounds; the window simply ends earlier (still exact).
_MAX_TRANSIENT_ROUNDS = 64


def _plan_proc(proc, cycle):
    """Check one processor's streams for LD-window eligibility.

    Returns ``(streams, arrivals, rounds)`` — the issue order, each
    stream's earliest next-issue cycle, and how many full rotation
    rounds fit before some stream runs out of dependent loads — or
    None if any live stream is not sitting inside a pure-LD block run.
    """
    ready = proc.ready
    wake = proc.wake
    if len(ready) + len(wake) != proc.live:
        return None  # someone is parked on full/empty or a barrier
    streams = []
    arrivals = []
    rounds = None
    for t, arrive in _iter_streams(ready, wake, cycle):
        blk = t.fblock
        if (
            blk is None
            or t.compute_remaining > 0
            or t.outstanding
            or blk.codes[t.fbpos] != LD_CODE
        ):
            return None
        run = int(blk.ld_run_end[t.fbpos]) - t.fbpos
        if rounds is None or run < rounds:
            rounds = run
        streams.append(t)
        arrivals.append(arrive)
    return streams, np.array(arrivals, dtype=np.int64), rounds


def _iter_streams(ready, wake, cycle):
    """Streams in exact future-issue order with their earliest issue cycle.

    The interpreter drains the wake heap in ``(cycle, tid)`` order into
    the back of the ready deque before popping, so the rotation order
    is: current ready deque front to back (all issueable now), then
    wake entries sorted by ``(wake_at, tid)``.
    """
    for t in ready:
        yield t, cycle
    for when, _tid, t in sorted(wake, key=lambda e: (e[0], e[1])):
        yield t, when if when > cycle else cycle


def _schedule(arrivals, rounds, mem_latency):
    """Issue schedule for ``rounds`` rotation rounds of pure LDs.

    Returns ``(transient, steady_rounds, d)``: the explicitly computed
    round issue-time vectors, how many further rounds follow the last
    one arithmetically with uniform increment ``d``, and ``d`` itself.
    """
    k = arrivals.size
    idx = np.arange(k, dtype=np.int64)
    d = max(k, mem_latency)
    transient = []
    carry = None  # last issue of the previous round
    a = arrivals
    steady_rounds = 0
    r = 0
    while r < rounds:
        b = a - idx
        if carry is not None and carry + 1 > b[0]:
            b = b.copy()
            b[0] = carry + 1
        issues = np.maximum.accumulate(b) + idx
        transient.append(issues)
        r += 1
        if len(transient) > 1 and np.array_equal(
            issues, transient[-2] + d
        ):
            # the recurrence is shift-invariant, so once one round is a
            # pure +d translate of its predecessor every later round is
            # too: the rest are closed form
            steady_rounds = rounds - r
            break
        if len(transient) >= _MAX_TRANSIENT_ROUNDS:
            break  # shorter window, still exact
        carry = int(issues[-1])
        a = issues + mem_latency
    return transient, steady_rounds, d


def try_ld_window(kernel, cycle, budget):
    """Attempt one global LD fast-forward window at the current cycle.

    Returns ``(resume_cycle, last_issue)`` after bulk-executing every
    dependent load that the interpreted loop would have issued strictly
    before ``resume_cycle``, or None when the machine is not in the
    pure-LD regime (or the window would cross the watchdog budget —
    the scalar loop then trips it with identical diagnostics).
    """
    model = kernel.model
    mem_latency = model.mem_latency
    lookahead = model.lookahead
    plans = []
    for proc in kernel.procs:
        if proc.live == 0:
            plans.append(None)
            continue
        plan = _plan_proc(proc, cycle)
        if plan is None:
            return None
        plans.append(plan)

    # Each processor's schedule runs until its shortest LD run is
    # exhausted; the global window must stop at the earliest of those
    # ends so no phase marker, refill, or value op can fall inside it.
    schedules = []
    c_end = None
    for plan in plans:
        if plan is None:
            schedules.append(None)
            continue
        _streams, arrivals, rounds = plan
        transient, steady_rounds, d = _schedule(arrivals, rounds, mem_latency)
        last = int(transient[-1][-1]) + steady_rounds * d
        schedules.append((transient, steady_rounds, d))
        end = last + 1
        if c_end is None or end < c_end:
            c_end = end
    if c_end is None or c_end > budget + 1:
        return None

    stats = kernel._window_stats
    stats["windows"] += 1
    total_ops = 0
    op_tag = LOAD_DEP
    for proc, plan, sched in zip(kernel.procs, plans, schedules, strict=False):
        if plan is None:
            continue
        streams, _arrivals, _rounds = plan
        transient, steady_rounds, d = sched
        T = np.vstack(transient)  # rounds x streams issue times
        base = T[-1]
        n_trans = (T < c_end).sum(axis=0)
        if steady_rounds:
            n_steady = np.clip((c_end - 1 - base) // d, 0, steady_rounds)
        else:
            n_steady = np.zeros_like(base)
        counts = n_trans + n_steady
        executed = 0
        new_wake = []
        for i, t in enumerate(streams):
            n_i = int(counts[i])
            if n_i == 0:
                continue
            if n_steady[i]:
                last_i = int(base[i] + n_steady[i] * d)
            else:
                last_i = int(T[n_trans[i] - 1, i])
            t.fbpos += n_i
            if t.fbpos == t.fblock.n:
                t.fblock = None
            t.issued += n_i
            executed += n_i
            # the interpreter resets lookahead credit at every pop of a
            # stream with nothing outstanding, and parks an LD until
            # its load completes
            t.lookahead_credit = lookahead
            t.state = BLOCKED
            t.wake_at = last_i + mem_latency
            new_wake.append((t.wake_at, t.tid, t))
        if executed:
            # streams that issued left the ready deque (issues follow
            # rotation order, so the untouched ones are a suffix) …
            issued_set = {id(streams[i]) for i in range(len(streams)) if counts[i]}  # allow_nondet: same-process membership test only
            keep_ready = [t for t in proc.ready if id(t) not in issued_set]  # allow_nondet: same-process membership test only
            keep_wake = [e for e in proc.wake if id(e[2]) not in issued_set]  # allow_nondet: same-process membership test only
            proc.ready.clear()
            proc.ready.extend(keep_ready)
            # … and re-park in the wake heap; the scalar loop drains
            # heap entries in (cycle, tid) order, which is exactly the
            # order the interpreter would have re-readied them in.
            wake = keep_wake + new_wake
            heapq.heapify(wake)
            proc.wake[:] = wake
            proc.issued += executed
            total_ops += executed
    kernel._op_counts[op_tag] = kernel._op_counts.get(op_tag, 0) + total_ops
    stats["ops"] += total_ops
    return c_end, c_end - 1
