"""Tests for result containers: SimReport combination and MachineResult."""

import numpy as np
import pytest

from repro.core import MTAMachine, StepCost
from repro.core.machine import MachineResult, StepTime
from repro.errors import ConfigurationError
from repro.sim.stats import SimReport, combine_reports


def report(name="r", p=2, cycles=100, issued=(50, 30), clock=220e6, ops=None, detail=None):
    return SimReport(
        name=name,
        p=p,
        cycles=cycles,
        issued=np.array(issued, dtype=np.int64),
        clock_hz=clock,
        op_counts=ops or {},
        detail=detail or {},
    )


class TestSimReport:
    def test_utilization(self):
        r = report(cycles=100, issued=(50, 30))
        assert r.utilization == pytest.approx(80 / 200)

    def test_zero_cycles_full_utilization(self):
        r = report(cycles=0, issued=(0, 0))
        assert r.utilization == 1.0

    def test_seconds(self):
        r = report(cycles=220, clock=220e6)
        assert r.seconds == pytest.approx(1e-6)

    def test_total_issued(self):
        assert report(issued=(7, 9)).total_issued == 16


class TestCombineReports:
    def test_cycles_and_issued_add(self):
        a = report("a", cycles=100, issued=(10, 20), ops={"C": 30})
        b = report("b", cycles=50, issued=(5, 5), ops={"C": 5, "LD": 5})
        c = combine_reports("ab", [a, b])
        assert c.cycles == 150
        assert c.total_issued == 40
        assert c.op_counts == {"C": 35, "LD": 5}
        assert [s.name for s in c.phases] == ["a", "b"]
        assert [(s.start, s.end) for s in c.phases] == [(0, 100), (100, 150)]
        assert c.detail == {}

    def test_utilization_is_cycle_weighted(self):
        # phase a: 100% busy for 100 cycles; phase b: idle 100 cycles
        a = report("a", cycles=100, issued=(100, 100))
        b = report("b", cycles=100, issued=(0, 0))
        c = combine_reports("ab", [a, b])
        assert c.utilization == pytest.approx(0.5)

    def test_mixed_machines_rejected(self):
        a = report("a", p=2)
        b = report("b", p=4, issued=(1, 1, 1, 1))
        with pytest.raises(ValueError):
            combine_reports("ab", [a, b])
        with pytest.raises(ValueError):
            combine_reports("ab", [a, report("c", clock=1e6)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_reports("x", [])

    def test_detail_counters_merge_per_key(self):
        a = report("a", detail={"fa_serialization_stalls": 7, "fe_wait_hist": {1: 2, 3: 1}})
        b = report("b", detail={"fa_serialization_stalls": 5, "fe_wait_hist": {3: 4, 5: 1},
                                "bank_contention_stalls": 9})
        c = combine_reports("ab", [a, b])
        assert c.detail == {
            "fa_serialization_stalls": 12,
            "fe_wait_hist": {1: 2, 3: 5, 5: 1},
            "bank_contention_stalls": 9,
        }

    def test_detail_tuples_add_elementwise(self):
        a = report("a", detail={"fa_sites": {10: (4, 30)}, "waits": [1.0, 2.0]})
        b = report("b", detail={"fa_sites": {10: (1, 5), 11: (2, 0)}, "waits": [3.0, 4.0]})
        c = combine_reports("ab", [a, b])
        assert c.detail["fa_sites"] == {10: (5, 35), 11: (2, 0)}
        assert c.detail["waits"] == [4.0, 6.0]

    def test_detail_barrier_max_wait_is_the_maximum(self):
        def waits(episodes, cycles, max_wait):
            return {"barrier_waits": {"b": {"episodes": episodes, "wait_cycles": cycles,
                                            "max_wait": max_wait}}}

        c = combine_reports("abc", [report("a", detail=waits(4, 20, 9)),
                                    report("b", detail=waits(4, 10, 3)),
                                    report("c", detail={"barrier_waits": {}})])
        assert c.detail["barrier_waits"] == {
            "b": {"episodes": 8, "wait_cycles": 30, "max_wait": 9}
        }

    def test_detail_of_one_report_is_unchanged(self):
        detail = {"fa_sites": {10: (4, 30)}, "barrier_waits": {}, "fe_wait_cycles": 3}
        assert combine_reports("a", [report("a", detail=detail)]).detail == detail


class TestMachineResult:
    def make(self):
        steps = [
            StepTime(name="a", cycles=100.0, busy_cycles=150.0),
            StepTime(name="b", cycles=50.0, busy_cycles=20.0, detail={"k": 1}),
        ]
        return MachineResult(machine="m", p=2, clock_hz=1e6, steps=steps)

    def test_aggregates(self):
        r = self.make()
        assert r.cycles == 150.0
        assert r.seconds == pytest.approx(150e-6)
        assert r.utilization == pytest.approx(170 / 300)

    def test_step_lookup(self):
        r = self.make()
        assert r.step("b").detail["k"] == 1
        with pytest.raises(KeyError):
            r.step("missing")

    def test_utilization_capped_at_one(self):
        r = MachineResult(
            machine="m", p=1, clock_hz=1e6,
            steps=[StepTime(name="a", cycles=10.0, busy_cycles=100.0)],
        )
        assert r.utilization == 1.0

    def test_empty_run(self):
        r = MachineResult(machine="m", p=1, clock_hz=1e6, steps=[])
        assert r.cycles == 0
        assert r.utilization == 1.0


class TestMachineSecondsShortcut:
    def test_seconds_matches_run(self):
        m = MTAMachine(p=2)
        steps = [StepCost(name="s", p=2, noncontig=1000.0, parallelism=10_000)]
        assert m.seconds(steps) == pytest.approx(m.run(steps).seconds)


class TestBreakdown:
    def test_breakdown_renders_sorted(self):
        steps = [
            StepTime(name="cheap", cycles=10.0, busy_cycles=10.0, detail={"x": 1.0}),
            StepTime(name="hot", cycles=90.0, busy_cycles=80.0, detail={"mem": 70.0}),
        ]
        r = MachineResult(machine="m", p=1, clock_hz=1e6, steps=steps)
        text = r.breakdown()
        lines = text.splitlines()
        assert "hot" in lines[2]  # most expensive row first
        assert "90.0%" in lines[2]
        assert "mem=70" in lines[2]

    def test_breakdown_top_limits_rows(self):
        steps = [
            StepTime(name=f"s{i}", cycles=float(i + 1), busy_cycles=1.0)
            for i in range(10)
        ]
        r = MachineResult(machine="m", p=1, clock_hz=1e6, steps=steps)
        assert len(r.breakdown(top=3).splitlines()) == 2 + 3

    def test_breakdown_on_real_run(self):
        from repro.core import SMPMachine
        from repro.lists import random_list, rank_helman_jaja

        run = rank_helman_jaja(random_list(2000, 1), p=2, rng=0)
        text = SMPMachine(p=2).run(run.steps).breakdown()
        assert "hj.3.traverse-sublists" in text
        assert "utilization" in text


class TestStepNameAmbiguity:
    def test_duplicate_step_names_raise_on_lookup(self):
        r = MachineResult(
            machine="m", p=1, clock_hz=1e6,
            steps=[
                StepTime(name="scan", cycles=10.0, busy_cycles=5.0),
                StepTime(name="scan", cycles=20.0, busy_cycles=5.0),
            ],
        )
        with pytest.raises(ConfigurationError) as exc:
            r.step("scan")
        assert "ambiguous" in str(exc.value)
        assert "2 steps" in str(exc.value)

    def test_unique_names_still_resolve(self):
        r = MachineResult(
            machine="m", p=1, clock_hz=1e6,
            steps=[
                StepTime(name="scan", cycles=10.0, busy_cycles=5.0),
                StepTime(name="rank", cycles=20.0, busy_cycles=5.0),
            ],
        )
        assert r.step("rank").cycles == 20.0
