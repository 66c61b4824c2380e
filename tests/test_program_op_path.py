"""The paper's thread programs validate once per program, not per op.

``repro.lists.programs`` and ``repro.graphs.programs`` yield literal op
tuples built from allocation bases, after checking their inputs once
(``docs/SIMULATION.md``, "Writing thread programs").  These tests pin
that with deterministic counts, not timings: every ``repro.sim.isa``
constructor and ``Allocation.addr`` is wrapped with a counter, and no
call may happen while a paper program runs.  They also pin the other
side of the bargain: inputs that the per-op checks used to reject
mid-run now fail with ``WorkloadError`` before any engine phase.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.isa as isa
from repro.arch.memory import Allocation, AddressSpace
from repro.errors import WorkloadError
from repro.graphs.generate import random_graph
from repro.graphs.programs import simulate_mta_cc, simulate_smp_cc
from repro.graphs.sequential_cc import cc_union_find
from repro.lists.generate import random_list, true_ranks
from repro.lists.programs import simulate_mta_list_ranking, simulate_smp_list_ranking
from repro.sim import MTAEngine
from repro.sim.kernel import SimKernel

#: Every op constructor of the validated ``isa`` API.
ISA_CONSTRUCTORS = (
    "compute",
    "load",
    "load_dep",
    "store",
    "fetch_add",
    "sync_load_consume",
    "sync_load_peek",
    "sync_store",
    "barrier",
    "phase",
    "run_block",
)


@pytest.fixture
def helper_calls(monkeypatch):
    """Count calls of every ``isa`` constructor and of ``Allocation.addr``,
    plus the engine runs they happen around."""
    counts = {"isa": 0, "addr": 0, "runs": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ISA_CONSTRUCTORS:
        monkeypatch.setattr(isa, name, counted(getattr(isa, name), "isa"))
    monkeypatch.setattr(Allocation, "addr", counted(Allocation.addr, "addr"))
    monkeypatch.setattr(SimKernel, "run", counted(SimKernel.run, "runs"))
    return counts


def test_counters_see_hand_written_programs(helper_calls):
    """The wrappers are live: a program built on the validated API counts."""
    a = AddressSpace().alloc("x", 4)

    def prog():
        for i in range(4):
            yield isa.load_dep(a.addr(i))
        yield isa.compute(1)

    eng = MTAEngine(p=1, streams_per_proc=2)
    eng.spawn(prog())
    eng.run("hand-written")
    assert helper_calls == {"isa": 5, "addr": 4, "runs": 1}


# ---------------------------------------------------------------------------
# The paper programs make no per-op helper calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dynamic", [True, False], ids=["dynamic", "block"])
def test_mta_list_ranking_makes_no_helper_calls(helper_calls, dynamic):
    nxt = random_list(1200, rng=3)
    sim = simulate_mta_list_ranking(nxt, p=4, streams_per_proc=100, dynamic=dynamic)
    assert np.array_equal(sim.ranks, true_ranks(nxt))
    assert helper_calls == {"isa": 0, "addr": 0, "runs": 4}


def test_smp_list_ranking_makes_no_helper_calls(helper_calls):
    nxt = random_list(1200, rng=3)
    sim = simulate_smp_list_ranking(nxt, p=4, rng=0)
    assert np.array_equal(sim.ranks, true_ranks(nxt))
    assert helper_calls == {"isa": 0, "addr": 0, "runs": 1}


def test_mta_cc_makes_no_helper_calls(helper_calls):
    g = random_graph(256, 1024, rng=5)
    sim = simulate_mta_cc(g, p=4, streams_per_proc=16)
    assert np.array_equal(sim.labels, cc_union_find(g).labels)
    assert helper_calls["runs"] == len(sim.phase_reports) >= 2
    assert (helper_calls["isa"], helper_calls["addr"]) == (0, 0)


@pytest.mark.parametrize("variant", [None, "branchy", "branch-avoiding"])
def test_smp_cc_makes_no_helper_calls(helper_calls, variant):
    g = random_graph(256, 1024, rng=5)
    sim = simulate_smp_cc(g, p=4, variant=variant)
    assert np.array_equal(sim.labels, cc_union_find(g).labels)
    assert helper_calls == {"isa": 0, "addr": 0, "runs": 1}


# ---------------------------------------------------------------------------
# Bad successor arrays fail up front, before any engine phase
# ---------------------------------------------------------------------------

BAD_LISTS = {
    # an integral list read as floats: addresses would be floats
    "float": random_list(64, rng=1).astype(np.float64),
    # a consistent head (0) but a successor past the end
    "out-of-range": np.array([1, 2, 3, 9, -1, 0], dtype=np.int64),
}


@pytest.mark.parametrize(
    "simulate",
    [
        lambda nxt: simulate_mta_list_ranking(nxt, p=2, streams_per_proc=4),
        lambda nxt: simulate_smp_list_ranking(nxt, p=2, rng=0),
    ],
    ids=["mta", "smp"],
)
@pytest.mark.parametrize("bad", list(BAD_LISTS))
def test_bad_successor_array_fails_before_any_phase(helper_calls, simulate, bad):
    with pytest.raises(WorkloadError, match="successor"):
        simulate(BAD_LISTS[bad])
    assert helper_calls["runs"] == 0
