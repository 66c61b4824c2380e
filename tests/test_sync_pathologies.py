"""Pathological synchronization patterns must fail fast and explain why.

These are engine-level guarantees: a stuck program raises
:class:`~repro.errors.DeadlockError` via blocked-thread detection well
inside any cycle budget (never by exhausting ``max_cycles``), and an
attached :class:`~repro.analysis.ConcurrencyChecker` turns the blocked
inventory into an actionable diagnosis.
"""

import pytest

from tests import racy_programs as rp

from repro.analysis import ConcurrencyChecker
from repro.arch.memory import AddressSpace
from repro.errors import DeadlockError
from repro.sim import CheckerHook, MTAEngine, isa
from repro.sim.smp_engine import SMPEngine

#: Far below the engines' defaults: deadlock detection is structural
#: (no runnable thread), so the budget must never be what stops us.
TIGHT_BUDGET = 10_000


class TestMTAPathologies:
    def test_ssf_to_full_word_deadlocks_fast(self):
        eng = MTAEngine(p=1, streams_per_proc=4)
        space = AddressSpace()
        w = space.alloc("word", 1)
        eng.set_full(w.addr(0), 7)

        def producer():
            yield isa.sync_store(w.addr(0), 8)

        eng.spawn(producer())
        with pytest.raises(DeadlockError) as exc:
            eng.run("stuck", budget=TIGHT_BUDGET)
        assert "wait-empty" in str(exc.value)

    def test_mismatched_barrier_deadlocks_fast(self):
        eng = MTAEngine(p=1, streams_per_proc=4)
        eng.register_barrier("meet", 2)

        def lonely():
            yield isa.compute(1)
            yield isa.barrier("meet")

        eng.spawn(lonely())
        with pytest.raises(DeadlockError):
            eng.run("stuck", budget=TIGHT_BUDGET)

    def test_checker_diagnoses_ssf_deadlock(self):
        report = rp.run_deadlock_ssf_full()
        [f] = report.errors
        assert f.check == "deadlock"
        assert "set_full" in f.message or f.witness.get("set_full")

    def test_checker_diagnoses_barrier_mismatch(self):
        report = rp.run_barrier_mismatch_mta()
        [f] = report.errors
        assert f.check == "barrier-mismatch"
        assert f.witness["arrived"] < f.witness["need"]


class TestSMPPathologies:
    def _lopsided(self, eng):
        def program(proc):
            yield isa.compute(1)
            if proc == 0:
                return
            yield isa.barrier("sync")

        for proc in range(2):
            eng.spawn(program(proc))

    def test_mismatched_barrier_deadlocks_fast(self):
        eng = SMPEngine(p=2)
        self._lopsided(eng)
        with pytest.raises(DeadlockError) as exc:
            eng.run("stuck", budget=TIGHT_BUDGET)
        assert "barrier" in str(exc.value).lower()

    def test_checker_diagnoses_smp_barrier_mismatch(self):
        check = ConcurrencyChecker(program="lopsided")
        eng = SMPEngine(p=2, hooks=(CheckerHook(check),))
        self._lopsided(eng)
        with pytest.raises(DeadlockError):
            eng.run("stuck", budget=TIGHT_BUDGET)
        [f] = check.report().errors
        assert f.check == "barrier-mismatch"
        assert f.witness["need"] == 2
