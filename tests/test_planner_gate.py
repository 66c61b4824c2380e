"""The interleaved loop consults the LD-window planner only when it can fire.

``SimKernel._run_interleaved`` calls :func:`repro.sim.fastpath.try_ld_window`
only while every live stream holds an active op block
(:func:`repro.sim.isa.run_block`); the planner declines in every other
state, so skipping it there changes nothing but host time
(``docs/SIMULATION.md``, "Selection rules").  These tests pin both sides
of that gate with deterministic counts, not timings: planner calls are
counted by wrapping ``try_ld_window`` the way ``perfbench`` does.
"""

from __future__ import annotations

import pickle

import pytest

import repro.sim.fastpath as fastpath
from repro.errors import RunPaused
from repro.graphs.generate import random_graph
from repro.graphs.programs import simulate_mta_cc
from repro.lists.generate import random_list
from repro.lists.programs import simulate_mta_list_ranking
from repro.sim import MTAEngine, isa

from .test_sim_fuzz import _report_blob


@pytest.fixture
def planner(monkeypatch):
    """Count calls of ``try_ld_window`` and the windows they fire."""
    counts = {"attempts": 0, "windows": 0}
    original = fastpath.try_ld_window

    def counted(kernel, cycle, budget):
        counts["attempts"] += 1
        w = original(kernel, cycle, budget)
        if w is not None:
            counts["windows"] += 1
        return w

    monkeypatch.setattr(fastpath, "try_ld_window", counted)
    return counts


@pytest.fixture
def recording_engine():
    """The stock MTA facade, remembering every instance it builds."""

    class RecordingEngine(MTAEngine):
        built: list = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.built.append(self)

    return RecordingEngine


# ---------------------------------------------------------------------------
# Paper programs emit no run_block: auto never consults the planner
# ---------------------------------------------------------------------------


def test_mta_list_ranking_never_consults_planner(planner, recording_engine):
    nxt = random_list(1200, rng=3)
    simulate_mta_list_ranking(
        nxt, p=4, streams_per_proc=100, nodes_per_walk=10, engine=recording_engine
    )
    assert recording_engine.built, "the program built no engine"
    assert all(e.kernel.tier_used == "interpreted" for e in recording_engine.built)
    assert planner == {"attempts": 0, "windows": 0}


def test_mta_cc_never_consults_planner(planner, recording_engine):
    g = random_graph(256, 1024, rng=5)
    simulate_mta_cc(g, p=4, streams_per_proc=16, engine=recording_engine)
    assert recording_engine.built, "the program built no engine"
    assert all(e.kernel.tier_used == "interpreted" for e in recording_engine.built)
    assert planner == {"attempts": 0, "windows": 0}


# ---------------------------------------------------------------------------
# run_block chains still fire windows, byte-identical to the interpreter
# ---------------------------------------------------------------------------


def _walker(base, first_len, second_len):
    yield isa.run_block([isa.load_dep(base + 8 * i) for i in range(first_len)])
    yield isa.compute(1)
    yield isa.run_block([isa.load_dep(base + 8 * i) for i in range(second_len)])


def _build_walk(record=False, tier="auto"):
    """16 streams of LD chains; first blocks of unequal length, so a
    window ends with some streams still inside their block."""
    eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=15, record=record, tier=tier)
    for k in range(16):
        eng.spawn(_walker(k * 4096, 48 + 4 * k, 32))
    return eng


def test_run_block_chain_fires_windows_and_matches_interpreted(planner):
    ref = _build_walk(tier="interpreted")
    blob_ref = _report_blob(ref.run("walk"))
    assert planner["attempts"] == 0  # the interpreted tier never plans

    eng = _build_walk()
    blob = _report_blob(eng.run("walk"))
    assert eng.kernel.tier_used == "vector"
    assert planner["windows"] >= 1
    assert planner["windows"] == eng.kernel.window_stats["windows"]
    assert blob == blob_ref


def test_resumed_run_block_program_fires_windows_after_resume(planner):
    uninterrupted = _build_walk()
    blob_ref = _report_blob(uninterrupted.run("walk"))
    stats_ref = uninterrupted.kernel.window_stats

    paused = _build_walk(record=True)
    with pytest.raises(RunPaused) as exc_info:
        paused.run("walk", checkpoint_every=400, checkpoint_sink=lambda s: True)
    state = pickle.loads(pickle.dumps(exc_info.value.state))
    # the pause lands with streams inside their blocks, so the resumed
    # loop starts from restored blocks, not ones it bound itself
    assert any(st["in_block"] for st in state["threads"])
    before = dict(planner)

    eng = _build_walk()
    eng.resume(state)
    blob = _report_blob(eng.run("IGNORED"))
    assert planner["windows"] > before["windows"]
    assert eng.kernel.window_stats["windows"] > state["window_stats"]["windows"]
    # the resumed run fires exactly the windows the uninterrupted one did
    assert eng.kernel.window_stats == stats_ref
    assert blob == blob_ref
