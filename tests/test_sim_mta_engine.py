"""Tests for the MTA cycle engine (repro.sim.mta_engine)."""

import pytest

from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.sim import MTAEngine, isa


def run_one(gen, **kw):
    eng = MTAEngine(p=1, **kw)
    eng.spawn(gen)
    return eng.run()


class TestBasicTiming:
    def test_compute_burst_cycles(self):
        def prog():
            yield isa.compute(10)

        r = run_one(prog())
        assert r.cycles == 10
        assert r.total_issued == 10
        assert r.utilization == 1.0

    def test_dependent_load_blocks_full_latency(self):
        def prog():
            yield isa.load_dep(0)
            yield isa.compute(1)

        r = run_one(prog(), mem_latency=100)
        # LD at cycle 0, wakes at 100, C at 100 → 101 cycles
        assert r.cycles == 101

    def test_independent_loads_overlap_with_lookahead(self):
        def prog():
            yield isa.load(0)
            yield isa.load(64)
            yield isa.compute(1)

        r = run_one(prog(), mem_latency=100, lookahead=2)
        # all three issue back-to-back; run ends when the thread's
        # generator finishes (completion of outstanding loads happens
        # after its last issue)
        assert r.cycles <= 10

    def test_lookahead_exhaustion_blocks(self):
        def prog():
            for i in range(4):
                yield isa.load(i * 8)

        r = run_one(prog(), mem_latency=100, lookahead=1)
        # load0 issues, credit lets load1 issue, then the thread must
        # wait for load0 before load2
        assert r.cycles > 100

    def test_max_outstanding_enforced(self):
        def prog():
            for i in range(10):
                yield isa.load(i * 8)

        r = run_one(prog(), mem_latency=50, lookahead=100, max_outstanding=2)
        assert r.cycles > 50


class TestFetchAdd:
    def test_returns_old_values_atomically(self):
        got = []

        def prog(k):
            v = yield isa.fetch_add(7, 1)
            got.append(v)

        eng = MTAEngine(p=1)
        eng.set_counter(7, 0)
        for k in range(20):
            eng.spawn(prog(k))
        eng.run()
        assert sorted(got) == list(range(20))
        assert eng.model.fa_values[7] == 20

    def test_hotspot_serializes_one_per_cycle(self):
        """With several processors aiming atomics at one word, the owning
        bank's 1-per-cycle service rate backs requests up."""

        def prog():
            yield isa.fetch_add(3, 1)

        eng = MTAEngine(p=8, streams_per_proc=16, mem_latency=10)
        eng.set_counter(3, 0)
        for _ in range(96):
            eng.spawn(prog())
        eng.run()
        assert eng.model.fa_serialization_stalls > 0

    def test_custom_increment(self):
        def prog():
            yield isa.fetch_add(1, 5)

        eng = MTAEngine(p=1)
        eng.spawn(prog())
        eng.run()
        assert eng.model.fa_values[1] == 5


class TestFullEmptyBits:
    def test_producer_consumer(self):
        log = []

        def consumer():
            v = yield isa.sync_load_consume(9)
            log.append(("got", v))

        def producer():
            yield isa.compute(5)
            yield isa.sync_store(9, 42)

        eng = MTAEngine(p=1)
        eng.spawn(consumer())
        eng.spawn(producer())
        eng.run()
        assert ("got", 42) in log

    def test_peek_leaves_full(self):
        vals = []

        def peeker():
            v = yield isa.sync_load_peek(4)
            vals.append(v)

        eng = MTAEngine(p=1)
        eng.set_full(4, 17)
        eng.spawn(peeker())
        eng.spawn(peeker())
        eng.run()
        assert vals == [17, 17]

    def test_consume_empties_word(self):
        order = []

        def consumer(tag):
            v = yield isa.sync_load_consume(4)
            order.append((tag, v))

        def producer():
            yield isa.sync_store(4, 1)
            yield isa.sync_store(4, 2)

        eng = MTAEngine(p=1)
        eng.spawn(consumer("a"))
        eng.spawn(consumer("b"))
        eng.spawn(producer())
        eng.run()
        assert sorted(v for _, v in order) == [1, 2]

    def test_sync_store_waits_for_empty(self):
        def producer():
            yield isa.sync_store(5, 1)
            yield isa.sync_store(5, 2)  # blocks until consumed

        def consumer():
            yield isa.compute(50)
            yield isa.sync_load_consume(5)

        eng = MTAEngine(p=1)
        eng.spawn(producer())
        eng.spawn(consumer())
        r = eng.run()
        assert r.cycles >= 50


class TestBarriers:
    def test_barrier_synchronizes(self):
        times = {}

        def prog(tag, work):
            yield isa.compute(work)
            yield isa.barrier("b")
            yield isa.compute(1)
            times[tag] = True

        eng = MTAEngine(p=1, barrier_latency=10)
        eng.register_barrier("b", 2)
        eng.spawn(prog("fast", 1))
        eng.spawn(prog("slow", 200))
        r = eng.run()
        assert r.cycles >= 210
        assert times == {"fast": True, "slow": True}

    def test_unregistered_barrier_raises(self):
        def prog():
            yield isa.barrier("nope")

        with pytest.raises(SimulationError):
            run_one(prog())


class TestDeadlockAndErrors:
    def test_deadlock_detected(self):
        def starving():
            yield isa.sync_load_consume(99)  # never filled

        eng = MTAEngine(p=1)
        eng.spawn(starving())
        with pytest.raises(DeadlockError):
            eng.run()

    def test_unknown_opcode(self):
        def prog():
            yield ("XX", 1)

        with pytest.raises(SimulationError):
            run_one(prog())

    def test_stream_limit_enforced(self):
        eng = MTAEngine(p=1, streams_per_proc=2)

        def prog():
            yield isa.compute(1)

        eng.spawn(prog())
        eng.spawn(prog())
        with pytest.raises(ConfigurationError):
            eng.spawn(prog())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MTAEngine(p=0)
        with pytest.raises(ConfigurationError):
            MTAEngine(p=1, mem_latency=0)


class TestUtilizationSaturation:
    """The paper's claim: ~latency/lookahead streams saturate a processor."""

    def chasers(self, k, steps=40):
        def chaser():
            for i in range(steps):
                yield isa.compute(1)
                yield isa.load_dep(i)
                yield isa.load_dep(1000 + i)

        return [chaser() for _ in range(k)]

    def test_few_streams_starve(self):
        eng = MTAEngine(p=1, streams_per_proc=128, mem_latency=100)
        for g in self.chasers(8):
            eng.spawn(g)
        assert eng.run().utilization < 0.25

    def test_many_streams_saturate(self):
        eng = MTAEngine(p=1, streams_per_proc=128, mem_latency=100)
        for g in self.chasers(100):
            eng.spawn(g)
        assert eng.run().utilization > 0.9

    def test_multi_processor_issue_independent(self):
        def burst():
            yield isa.compute(100)

        eng = MTAEngine(p=4)
        for proc in range(4):
            eng.spawn(burst(), proc=proc)
        r = eng.run()
        assert r.cycles == 100
        assert r.total_issued == 400
        assert r.utilization == 1.0


class TestBankContention:
    """Opt-in hashed-bank modeling: hotspot words queue at their bank."""

    def _hammer(self, addr_fn, steps=20):
        def prog():
            for i in range(steps):
                yield isa.load_dep(addr_fn(i))

        return prog()

    def test_disabled_by_default(self):
        eng = MTAEngine(p=2, streams_per_proc=32)
        for _ in range(32):
            eng.spawn(self._hammer(lambda i: 7))
        eng.run()
        assert eng.model.bank_contention_stalls == 0

    def test_same_word_hotspot_queues(self):
        eng = MTAEngine(p=4, streams_per_proc=64, n_banks=512)
        for _ in range(128):
            eng.spawn(self._hammer(lambda i: 42))
        r_hot = eng.run()
        assert eng.model.bank_contention_stalls > 0

        eng2 = MTAEngine(p=4, streams_per_proc=64, n_banks=512)
        for t in range(128):
            eng2.spawn(self._hammer(lambda i, t=t: t * 1000 + i))
        r_spread = eng2.run()
        assert eng2.model.bank_contention_stalls == 0
        assert r_spread.cycles < r_hot.cycles

    def test_bad_bank_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MTAEngine(p=1, n_banks=12)


class TestRunawayGuard:
    def test_mta_max_cycles_guard(self):
        def forever():
            while True:
                yield isa.compute(1)

        eng = MTAEngine(p=1)
        eng.spawn(forever())
        with pytest.raises(SimulationError):
            eng.run(budget=500)
