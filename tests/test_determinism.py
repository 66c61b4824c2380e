"""Determinism regression: same seed + config ⇒ bit-identical results.

The cycle engines are meant to be fully deterministic — seeded NumPy
RNGs, insertion-ordered dicts, a deterministic event heap — so two runs
with identical inputs must agree on *everything*: cycle counts, issued
instructions, op counts, phase slices, contention counters, and the
serialized event trace byte for byte.  Any nondeterminism (set
iteration, id()-keyed dicts, float reassociation) shows up here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import random_graph
from repro.graphs.programs import simulate_mta_cc, simulate_smp_cc
from repro.lists import random_list
from repro.lists.programs import simulate_mta_list_ranking, simulate_smp_list_ranking
from repro.obs import Tracer, jsonl_dumps
from repro.sim import TracerHook


def _run_rank_mta():
    nxt = random_list(400, 11)
    t = Tracer(level="op")
    sim = simulate_mta_list_ranking(nxt, p=2, streams_per_proc=10, hooks=(TracerHook(t),))
    return sim, t


def _run_rank_smp():
    nxt = random_list(400, 11)
    t = Tracer(level="op")
    sim = simulate_smp_list_ranking(nxt, p=2, rng=11, hooks=(TracerHook(t),))
    return sim, t


def _run_cc_mta():
    g = random_graph(200, 600, rng=11)
    t = Tracer(level="op")
    sim = simulate_mta_cc(g, p=2, streams_per_proc=10, hooks=(TracerHook(t),))
    return sim, t


def _run_cc_smp():
    g = random_graph(200, 600, rng=11)
    t = Tracer(level="op")
    sim = simulate_smp_cc(g, p=2, hooks=(TracerHook(t),))
    return sim, t


RUNNERS = {
    "rank-mta": _run_rank_mta,
    "rank-smp": _run_rank_smp,
    "cc-mta": _run_cc_mta,
    "cc-smp": _run_cc_smp,
}


def _normalize_detail(detail):
    out = {}
    for k, v in detail.items():
        if isinstance(v, np.ndarray):
            v = v.tolist()
        out[k] = v
    return out


@pytest.mark.parametrize("workload", sorted(RUNNERS))
class TestBitIdentical:
    def test_reports_identical(self, workload):
        sim1, _ = RUNNERS[workload]()
        sim2, _ = RUNNERS[workload]()
        r1, r2 = sim1.report, sim2.report
        assert r1.cycles == r2.cycles
        assert np.array_equal(r1.issued, r2.issued)
        assert r1.op_counts == r2.op_counts
        assert _normalize_detail(r1.detail) == _normalize_detail(r2.detail)
        assert r1.phases == r2.phases

    def test_phase_reports_identical(self, workload):
        sim1, _ = RUNNERS[workload]()
        sim2, _ = RUNNERS[workload]()
        assert len(sim1.phase_reports) == len(sim2.phase_reports)
        for a, b in zip(sim1.phase_reports, sim2.phase_reports, strict=False):
            assert a.name == b.name
            assert a.cycles == b.cycles
            assert np.array_equal(a.issued, b.issued)
            assert _normalize_detail(a.detail) == _normalize_detail(b.detail)

    def test_traces_byte_identical(self, workload):
        _, t1 = RUNNERS[workload]()
        _, t2 = RUNNERS[workload]()
        assert jsonl_dumps(t1.events) == jsonl_dumps(t2.events)

    def test_outputs_identical(self, workload):
        sim1, _ = RUNNERS[workload]()
        sim2, _ = RUNNERS[workload]()
        out1 = sim1.ranks if hasattr(sim1, "ranks") else sim1.labels
        out2 = sim2.ranks if hasattr(sim2, "ranks") else sim2.labels
        assert np.array_equal(out1, out2)


def test_different_seeds_differ():
    """Sanity check that the determinism tests have power: a different
    seed produces a different trace."""
    nxt_a = random_list(400, 11)
    nxt_b = random_list(400, 12)
    t_a, t_b = Tracer(level="op"), Tracer(level="op")
    simulate_mta_list_ranking(nxt_a, p=2, streams_per_proc=10, hooks=(TracerHook(t_a),))
    simulate_mta_list_ranking(nxt_b, p=2, streams_per_proc=10, hooks=(TracerHook(t_b),))
    assert jsonl_dumps(t_a.events) != jsonl_dumps(t_b.events)


def test_summary_deterministic():
    sim1, _ = _run_rank_mta()
    sim2, _ = _run_rank_mta()
    assert sim1.summary.to_dict() == sim2.summary.to_dict()
