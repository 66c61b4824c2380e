"""Tests for the SMP cycle engine (repro.sim.smp_engine)."""

import numpy as np
import pytest

from repro.core.smp_machine import SUN_E4500
from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.sim import SMPEngine, isa


def run_single(gen, config=SUN_E4500):
    eng = SMPEngine(p=1, config=config)
    eng.spawn(gen)
    return eng.run()


class TestCacheTiming:
    def test_l1_hit_after_miss(self):
        def prog():
            yield isa.load(0)  # cold miss → memory
            yield isa.load(1)  # same line → L1

        r = run_single(prog())
        c = SUN_E4500
        assert r.cycles >= c.mem_cycles
        assert r.cycles <= c.mem_cycles + c.l1_hit_cycles + 2

    def test_streamed_scan_faster_than_random(self, rng):
        # L2-resident working set larger than L1: repeated sequential
        # sweeps amortize one L2 access per line, repeated random access
        # pays an L2 access per word
        n = 8192
        passes = 3

        def scan(addr_passes):
            def prog():
                for addrs in addr_passes:
                    for a in addrs:
                        yield isa.load(int(a))

            return prog()

        seq = run_single(scan([np.arange(n)] * passes))
        rand = run_single(scan([rng.permutation(n) for _ in range(passes)]))
        assert rand.cycles > 1.4 * seq.cycles

    def test_cache_stats_reported(self):
        def prog():
            for a in range(64):
                yield isa.load(a)

        r = run_single(prog())
        assert 0.0 < r.detail["l1_hit_rate"][0] < 1.0


class TestStores:
    def test_store_does_not_stall(self):
        def loads():
            for i in range(64):
                yield isa.load(i * 1024)  # all misses

        def stores():
            for i in range(64):
                yield isa.store(i * 1024)

        rl = run_single(loads())
        rs = run_single(stores())
        assert rs.cycles < 0.25 * rl.cycles


class TestBus:
    def test_contention_slows_concurrent_missers(self):
        # stores retire in ~1 cycle of CPU time but their write-allocate
        # line fills occupy the shared bus; eight processors streaming
        # stores oversubscribe it badly while one does not
        def misser(base):
            def prog():
                for i in range(512):
                    yield isa.store(base + i * 1024)

            return prog()

        solo = SMPEngine(p=1)
        solo.spawn(misser(0))
        t1 = solo.run().cycles

        p = 8
        eng = SMPEngine(p=p)
        for k in range(p):
            eng.spawn(misser(k * 10_000_000))
        tp = eng.run().cycles
        assert tp > t1 * 1.5

    def test_bus_busy_cycles_accumulate(self):
        def prog():
            for i in range(16):
                yield isa.load(i * 1024)

        eng = SMPEngine(p=1)
        eng.spawn(prog())
        r = eng.run()
        assert r.detail["bus_busy_cycles"] > 0


class TestBarriers:
    def test_release_after_last_arrival(self):
        def prog(work):
            yield isa.compute(work)
            yield isa.barrier("x")
            yield isa.compute(10)

        eng = SMPEngine(p=2)
        eng.spawn(prog(10))
        eng.spawn(prog(1000))
        r = eng.run()
        c = SUN_E4500
        expected_min = 1000 * c.cpi + c.barrier_cycles(2)
        assert r.cycles >= expected_min

    def test_mismatched_barrier_deadlocks(self):
        def arrives():
            yield isa.barrier("only-me")

        def skips():
            yield isa.compute(1)

        eng = SMPEngine(p=2)
        eng.spawn(arrives())
        eng.spawn(skips())
        with pytest.raises(DeadlockError):
            eng.run()


class TestFetchAdd:
    def test_work_queue_distributes_all_items(self):
        taken = []

        def worker(wid):
            while True:
                i = yield isa.fetch_add(5, 1)
                if i >= 50:
                    return
                taken.append((wid, i))
                yield isa.compute(3)

        eng = SMPEngine(p=4)
        eng.set_counter(5, 0)
        for w in range(4):
            eng.spawn(worker(w))
        eng.run()
        assert sorted(i for _, i in taken) == list(range(50))
        # more than one processor actually got work
        assert len({w for w, _ in taken}) > 1


class TestErrors:
    def test_attach_limit(self):
        eng = SMPEngine(p=1)
        eng.spawn(iter(()))
        with pytest.raises(ConfigurationError):
            eng.spawn(iter(()))

    def test_run_requires_full_attachment(self):
        eng = SMPEngine(p=2)
        eng.spawn(iter(()))
        with pytest.raises(ConfigurationError):
            eng.run()

    def test_unknown_opcode(self):
        def prog():
            yield ("??",)

        eng = SMPEngine(p=1)
        eng.spawn(prog())
        with pytest.raises(SimulationError):
            eng.run()

    def test_p_bounds(self):
        with pytest.raises(ConfigurationError):
            SMPEngine(p=0)


class TestRunawayGuards:
    def test_smp_max_ops_guard(self):
        def forever():
            while True:
                yield isa.compute(1)

        eng = SMPEngine(p=1)
        eng.spawn(forever())
        with pytest.raises(SimulationError):
            eng.run(budget=1000)
