"""Intentionally-buggy (and matching clean) op-tuple programs.

Each ``run_*`` function builds a tiny program exhibiting exactly one
concurrency bug — or its corrected twin — executes it on a cycle
engine under a :class:`repro.analysis.ConcurrencyChecker`, and returns
the finalized :class:`repro.analysis.AnalysisReport`.  The analysis
test suite asserts that every detector fires on its buggy program and
stays quiet on the clean one; keeping the corpus importable (but not
named ``test_*``) also makes these programs handy documentation of
what each detector means.

All programs use the MTA engine unless the bug is SMP-specific: the
MTA engine exercises every sync primitive (full/empty words, FA
serialization, registered barriers).
"""

from __future__ import annotations

from repro.analysis import ConcurrencyChecker
from repro.arch.memory import AddressSpace
from repro.errors import DeadlockError
from repro.sim import CheckerHook, MTAEngine, isa
from repro.sim.smp_engine import SMPEngine

#: Small cycle budget: corpus programs are tiny, and a detector bug
#: must surface as a diagnostic well before this, never as a hang.
MAX_CYCLES = 500_000


def _run_mta(build, *, strict=False, engine_kwargs=None):
    """Build + run one MTA corpus program; deadlocks become findings."""
    check = ConcurrencyChecker(strict=strict, program=build.__name__)
    eng = MTAEngine(
        p=1, streams_per_proc=8, hooks=(CheckerHook(check),), **(engine_kwargs or {})
    )
    build(eng)
    try:
        eng.run("corpus", budget=MAX_CYCLES)
    except DeadlockError:
        pass
    return check.report()


# -- races -------------------------------------------------------------------


def run_racy_store_store(strict=False):
    """Two threads store the same word with no ordering: write-write race."""

    def build(eng):
        space = AddressSpace()
        a = space.alloc("x", 4)
        eng.declare_memory(space)

        def writer(v):
            yield isa.compute(v + 1)
            yield isa.store(a.addr(0))

        eng.spawn(writer(0))
        eng.spawn(writer(1))

    return _run_mta(build, strict=strict)


def run_racy_unsynced_read(strict=False):
    """Consumer loads a word the producer stores, with no sync edge."""

    def build(eng):
        space = AddressSpace()
        a = space.alloc("data", 4)
        eng.declare_memory(space)

        def producer():
            yield isa.compute(5)
            yield isa.store(a.addr(0))

        def consumer():
            yield isa.compute(1)
            yield isa.load(a.addr(0))

        eng.spawn(producer())
        eng.spawn(consumer())

    return _run_mta(build, strict=strict)


def run_clean_fe_handoff(strict=False):
    """The corrected twin: the handoff goes through a full/empty word.

    The producer's plain store is ordered before the consumer's load by
    the SSF→SLE sync edge, so the race detector must stay quiet.
    """

    def build(eng):
        space = AddressSpace()
        a = space.alloc("data", 4)
        flag = space.alloc("flag", 1)
        eng.declare_memory(space)

        def producer():
            yield isa.compute(5)
            yield isa.store(a.addr(0))
            yield isa.sync_store(flag.addr(0), 1)

        def consumer():
            yield isa.sync_load_consume(flag.addr(0))
            yield isa.load(a.addr(0))

        eng.spawn(producer())
        eng.spawn(consumer())

    return _run_mta(build, strict=strict)


def run_clean_fa_tickets(strict=False):
    """FA-dispatched disjoint slots: serialization orders the counter,
    distinct tickets keep the data writes disjoint — clean."""

    def build(eng):
        space = AddressSpace()
        ctr = space.alloc("ctr", 1)
        out = space.alloc("out", 8)
        eng.declare_memory(space)
        eng.set_counter(ctr.addr(0), 0)

        def worker():
            ticket = yield isa.fetch_add(ctr.addr(0), 1)
            yield isa.store(out.addr(ticket))

        for _ in range(4):
            eng.spawn(worker())

    return _run_mta(build, strict=strict)


def run_racy_fa_neighbor(strict=False):
    """FA hands out tickets but each worker also reads its neighbor's
    slot — the FA edge does not cover that access: race."""

    def build(eng):
        space = AddressSpace()
        ctr = space.alloc("ctr", 1)
        out = space.alloc("out", 8)
        eng.declare_memory(space)
        eng.set_counter(ctr.addr(0), 0)

        def worker():
            ticket = yield isa.fetch_add(ctr.addr(0), 1)
            yield isa.store(out.addr(ticket))
            yield isa.load(out.addr((ticket + 1) % 4))

        for _ in range(4):
            eng.spawn(worker())

    return _run_mta(build, strict=strict)


# -- deadlocks and sync initialization ---------------------------------------


def run_deadlock_ssf_full():
    """SSF to a word initialized Full, with no consumer: blocks forever."""

    def build(eng):
        space = AddressSpace()
        w = space.alloc("word", 1)
        eng.declare_memory(space)
        eng.set_full(w.addr(0), 7)

        def producer():
            yield isa.sync_store(w.addr(0), 8)

        eng.spawn(producer())

    return _run_mta(build)


def run_clean_ssf_after_drain():
    """Corrected twin: a consumer drains the word first, so the second
    store finds it Empty."""

    def build(eng):
        space = AddressSpace()
        w = space.alloc("word", 1)
        eng.declare_memory(space)
        eng.set_full(w.addr(0), 7)

        def consumer():
            yield isa.sync_load_consume(w.addr(0))

        def producer():
            yield isa.sync_store(w.addr(0), 8)
            yield isa.sync_load_consume(w.addr(0))

        eng.spawn(consumer())
        eng.spawn(producer())

    return _run_mta(build)


def run_sync_uninit_sle():
    """SLE on a word that was never set_full and has no producer."""

    def build(eng):
        space = AddressSpace()
        w = space.alloc("word", 1)
        eng.declare_memory(space)

        def consumer():
            yield isa.sync_load_consume(w.addr(0))

        eng.spawn(consumer())

    return _run_mta(build)


# -- barriers ----------------------------------------------------------------


def run_barrier_mismatch_mta():
    """Barrier registered for two participants; only one ever arrives."""

    def build(eng):
        eng.register_barrier("meet", 2)

        def lonely():
            yield isa.compute(1)
            yield isa.barrier("meet")

        eng.spawn(lonely())

    return _run_mta(build)


def run_barrier_mismatch_smp():
    """SMP: one processor returns before the barrier the other enters."""
    check = ConcurrencyChecker(program="run_barrier_mismatch_smp")
    eng = SMPEngine(p=2, hooks=(CheckerHook(check),))

    def program(proc):
        yield isa.compute(1)
        if proc == 0:
            return
        yield isa.barrier("sync")

    for proc in range(2):
        eng.spawn(program(proc))
    try:
        eng.run("corpus")
    except DeadlockError:
        pass
    return check.report()


def run_clean_barrier_pair():
    """Both participants arrive: barrier orders the store before the load."""

    def build(eng):
        space = AddressSpace()
        a = space.alloc("x", 4)
        eng.declare_memory(space)
        eng.register_barrier("meet", 2)

        def writer():
            yield isa.store(a.addr(0))
            yield isa.barrier("meet")

        def reader():
            yield isa.barrier("meet")
            yield isa.load(a.addr(0))

        eng.spawn(writer())
        eng.spawn(reader())

    return _run_mta(build)


def run_barrier_unused():
    """A registered barrier no thread ever reaches (dead sync object)."""

    def build(eng):
        eng.register_barrier("ghost", 2)

        def worker():
            yield isa.compute(2)

        eng.spawn(worker())

    return _run_mta(build)


# -- bounds, counters, phases ------------------------------------------------


def run_bounds_overrun():
    """A store one word past the end of the only allocation."""

    def build(eng):
        space = AddressSpace()
        a = space.alloc("arr", 4)
        eng.declare_memory(space)

        def walker():
            for i in range(4):
                yield isa.store(a.addr(i))
            yield isa.store(a.base + 4)  # off the end; addr() would raise

        eng.spawn(walker())

    return _run_mta(build)


def run_clean_bounds():
    """Every access lands inside an allocation."""

    def build(eng):
        space = AddressSpace()
        a = space.alloc("arr", 4)
        b = space.alloc("brr", 2)
        eng.declare_memory(space)

        def walker():
            for i in range(4):
                yield isa.store(a.addr(i))
            yield isa.load(b.addr(1))

        eng.spawn(walker())

    return _run_mta(build)


def run_fa_uninit():
    """FA on a cell never initialized by set_counter or a store."""

    def build(eng):
        space = AddressSpace()
        ctr = space.alloc("ctr", 1)
        eng.declare_memory(space)

        def worker():
            yield isa.fetch_add(ctr.addr(0), 1)

        eng.spawn(worker())

    return _run_mta(build)


def run_phase_duplicate():
    """One thread emits the same phase marker twice in one run."""

    def build(eng):
        def worker():
            yield isa.phase("loop")
            yield isa.compute(1)
            yield isa.phase("loop")
            yield isa.compute(1)

        eng.spawn(worker())

    return _run_mta(build)
