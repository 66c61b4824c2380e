"""The shared result schema pinning both stacks to one contract.

``MachineResult`` (analytic) and ``RunSummary`` (engine) must expose
``total_cycles`` and ``phase_breakdown()`` with identical semantics —
``repro.xval`` pairs phases across the stacks through exactly these
accessors, so any drift here silently breaks cross-validation.  Every
machine model must likewise emit :class:`PhasePrediction` lists from
``predict_phases()`` whose per-phase cycles sum to the run total.
"""

from __future__ import annotations

import pytest

from repro.backends import Workload, create
from repro.core import ClusterMachine, MTAMachine, SMPMachine, StepCost
from repro.core.machine import MachineResult, PhasePrediction
from repro.obs.summary import RunSummary

STEPS = [
    StepCost(name="alpha", p=2, contig=64.0, ops=128.0, barriers=1, working_set=64),
    StepCost(name="beta", p=2, noncontig=32.0, ops=64.0, barriers=1, working_set=64),
]


def every_machine():
    return [SMPMachine(p=2), MTAMachine(p=2), ClusterMachine(p=2)]


class TestSharedAccessors:
    def test_both_result_types_expose_the_contract(self):
        for cls in (MachineResult, RunSummary):
            assert isinstance(getattr(cls, "total_cycles"), property), cls
            assert callable(getattr(cls, "phase_breakdown")), cls

    def test_machine_result_accessors(self):
        for machine in every_machine():
            result = machine.run(STEPS)
            assert result.total_cycles == result.cycles
            breakdown = result.phase_breakdown()
            assert [name for name, _ in breakdown] == ["alpha", "beta"]
            assert all(isinstance(c, float) for _, c in breakdown)
            assert sum(c for _, c in breakdown) == pytest.approx(
                result.total_cycles
            )

    def test_run_summary_accessors_match_engine_phases(self):
        workload = Workload(
            kind="cc",
            p=2,
            seed=1,
            params={"graph": "random", "n": 64, "m": 128},
        )
        summary = create("smp-engine").run(workload)
        assert summary.total_cycles == summary.cycles
        breakdown = summary.phase_breakdown()
        assert breakdown, "engine phases must surface in the breakdown"
        assert all(
            isinstance(name, str) and isinstance(c, float)
            for name, c in breakdown
        )
        assert [name for name, _ in breakdown] == [
            ph.name for ph in summary.phases
        ]

    def test_run_summary_accessors_survive_serialization(self):
        workload = Workload(
            kind="cc",
            p=2,
            seed=1,
            params={"graph": "random", "n": 64, "m": 128},
        )
        summary = create("smp-engine").run(workload)
        clone = RunSummary.from_dict(summary.to_dict())
        assert clone.total_cycles == summary.total_cycles
        assert clone.phase_breakdown() == summary.phase_breakdown()


class TestPredictPhases:
    def test_every_machine_predicts_phases(self):
        for machine in every_machine():
            predictions = machine.predict_phases(STEPS)
            assert [pr.name for pr in predictions] == ["alpha", "beta"]
            assert all(isinstance(pr, PhasePrediction) for pr in predictions)
            result = machine.run(STEPS)
            assert sum(pr.cycles for pr in predictions) == pytest.approx(
                result.total_cycles
            )

    def test_prediction_carries_the_triplet(self):
        [alpha, beta] = SMPMachine(p=2).predict_phases(STEPS)
        # T_M: noncontiguous accesses; T_C: computation; B: barriers.
        assert alpha.t_m == 0.0 and beta.t_m > 0.0
        assert alpha.t_c > 0.0 and beta.t_c > 0.0
        assert alpha.b == 1 and beta.b == 1
