"""The event loop: one loop for both tiers, with a boundary at every step.

``SimKernel._run_event`` holds the earliest READY thread's ``(time, tid)``
entry and takes the next one with a single ``heappushpop``, so a thread
that stays earliest runs on without touching the heap, and the
checkpoint and watchdog boundaries fall between any two steps
(docs/SIMULATION.md, "Scheduling disciplines").  On the SMP paper
programs — Helman–JáJá list ranking and SV connected components — with
warm caches of both kinds of level, these tests pin that

* a run snapshotted at every step, every 7th step, or first inside the
  longest stretch of one thread's steps, and resumed in a fresh engine
  from a pickled snapshot, gives the uninterrupted report, results and
  hook event stream, and so does the run that took the snapshots — with
  a phase-level hook and with op spans (a per-op subscription);
* each snapshot's derived heap puts first the thread that steps next;
* a watchdog trip inside such a stretch resumes with a larger budget;
* ``tier="interpreted"`` and ``"auto"`` give byte-identical reports,
  ``op_counts`` key order included.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import replace

import pytest

from repro.arch.cache import CacheConfig
from repro.core.smp_machine import SUN_E4500
from repro.errors import WatchdogExceeded
from repro.graphs import random_graph
from repro.graphs.programs import simulate_smp_cc
from repro.lists import random_list
from repro.lists.programs import simulate_smp_list_ranking
from repro.sim import SMPEngine
from repro.sim.isa import barrier, compute, fetch_add, load, load_dep, phase, run_block, store
from repro.sim.thread import READY
from tests.test_sim_fuzz import _report_blob

#: Small levels, so a few thousand steps leave them warm and conflicting
#: (and a snapshot per step stays cheap); one direct-mapped pair, and a
#: 2-way L1 whose lookup goes through the reference ``Cache``.
_SMALL = replace(SUN_E4500, l1=CacheConfig(64, 4), l2=CacheConfig(512, 8))
_CONFIGS = {
    "direct-mapped": _SMALL,
    "2-way-l1": replace(_SMALL, l1=CacheConfig(64, 4, associativity=2)),
}

_PROGRAMS = {
    "rank": lambda **kw: simulate_smp_list_ranking(random_list(256, rng=5), 4, rng=5, **kw),
    "cc": lambda **kw: simulate_smp_cc(
        random_graph(64, 256, rng=5), 4, variant="branchy", **kw
    ),
}


class _Session:
    """The session seam of an engine (``Engine(session=...)``, which
    also makes the kernel record): runs the program's engine run with a
    checkpoint spacing and sink, a budget, or a snapshot to resume."""

    def __init__(self, every=None, sink=None, budget=None, resume=None):
        self.every, self.sink, self.budget, self.resume = every, sink, budget, resume
        self.kernel = None

    def run(self, kernel, name, *, budget=None):
        self.kernel = kernel
        if self.resume is not None:  # across the process boundary
            kernel.resume(pickle.loads(pickle.dumps(self.resume)))
        return kernel.run(
            name, self.budget, checkpoint_every=self.every, checkpoint_sink=self.sink
        )


class _Events:
    """The phase-level hook event stream (no per-op subscriber)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, name, p):
        self.events.append(("start", name, p))

    def on_barrier_release(self, bid, tids):
        self.events.append(("release", bid, tuple(tids)))

    def on_phase(self, tid, label):
        self.events.append(("phase", tid, label))

    def end_run(self, report):
        self.events.append(("end", report.name, report.cycles))


class _OpEvents(_Events):
    """The event stream with op spans (a per-op subscription)."""

    def on_op_span(self, name, start, end, pid, tid, args):
        self.events.append(("span", name, start, end, pid, tid, args))


_HOOKS = {"phase": _Events, "op": _OpEvents}


def _outcome(sim) -> tuple:
    result = sim.ranks if hasattr(sim, "ranks") else sim.labels
    return _report_blob(sim.report), result.tolist()


@functools.lru_cache(maxsize=None)
def _reference(program: str, config: str, hook: str = "phase"):
    """The uninterrupted run: its outcome, event stream and the tid of
    every generator resume (one per step on these programs)."""
    events, session = _HOOKS[hook](), _Session()
    sim = _PROGRAMS[program](config=_CONFIGS[config], hooks=(events,), session=session)
    return _outcome(sim), tuple(events.events), session.kernel.resume_log()["tids"].tolist()


def _inside_longest_stretch(tids: list) -> int:
    """A step count inside the longest run of one thread's consecutive
    steps: the step before it and the step after it are that thread's."""
    best_start, best_len, i = 0, 0, 0
    while i < len(tids):
        j = i
        while j < len(tids) and tids[j] == tids[i]:
            j += 1
        if j - i > best_len:
            best_start, best_len = i, j - i
        i = j
    assert best_len >= 8, "the program has no long stretch of one thread's steps"
    return best_start + best_len // 2


@pytest.mark.parametrize("hook", sorted(_HOOKS))
@pytest.mark.parametrize("config", sorted(_CONFIGS))
@pytest.mark.parametrize("program", sorted(_PROGRAMS))
@pytest.mark.parametrize("every", [1, 7, "stretch"])
def test_snapshots_resume_byte_identically(program, config, every, hook):
    outcome, events, tids = _reference(program, config, hook)
    inside = _inside_longest_stretch(tids)
    if every == "stretch":
        every = inside
    # resume from the first, a middle and the last boundary, and from
    # inside the stretch whenever it is a boundary
    boundaries = range(every, len(tids), every)
    wanted = {boundaries[0], boundaries[len(boundaries) // 2], boundaries[-1]}
    if inside % every == 0:
        wanted.add(inside)

    seen, kept = [], []
    live = _HOOKS[hook]()

    def sink(state):
        steps = state["progress"]["steps"]
        seen.append(steps)
        assert len(state["log"]["tids"]) == steps  # one resume per step
        ready = sorted((t["time"], t["tid"]) for t in state["threads"] if t["state"] == READY)
        assert ready and ready[0][1] == tids[steps], "the derived heap's first thread must step next"
        if steps in wanted:
            kept.append((state, len(live.events)))
        return False  # never pause: the run that snapshots must finish unchanged

    sim = _PROGRAMS[program](
        config=_CONFIGS[config], hooks=(live,), session=_Session(every=every, sink=sink)
    )
    assert _outcome(sim) == outcome
    assert tuple(live.events) == events
    assert seen == list(boundaries)
    assert sorted(s["progress"]["steps"] for s, _ in kept) == sorted(wanted)

    for state, n_prefix in kept:
        tail = _HOOKS[hook]()
        resumed = _PROGRAMS[program](
            config=_CONFIGS[config], hooks=(tail,), session=_Session(resume=state)
        )
        assert _outcome(resumed) == outcome
        assert events[:n_prefix] + tuple(tail.events) == events


@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_watchdog_inside_one_threads_stretch_resumes(program):
    outcome, events, tids = _reference(program, "direct-mapped", "op")
    budget = _inside_longest_stretch(tids)
    prefix = _OpEvents()
    with pytest.raises(WatchdogExceeded) as exc:
        _PROGRAMS[program](
            config=_SMALL, hooks=(prefix,), session=_Session(budget=budget)
        )
    state = exc.value.checkpoint
    assert state["progress"]["steps"] == budget
    assert tids[budget - 1] == tids[budget]  # tripped between two steps of one thread

    tail = _OpEvents()
    resumed = _PROGRAMS[program](
        config=_SMALL, hooks=(tail,), session=_Session(resume=state, budget=10 * len(tids))
    )
    assert _outcome(resumed) == outcome
    assert tuple(prefix.events + tail.events) == events


def _run_block_program(tier):
    """Blocks, a phase and a barrier between plain ops and a fetch-add."""
    eng = SMPEngine(p=3, tier=tier)

    def prog(pid):
        v = yield fetch_add(100, 1)
        yield run_block([load(8 * pid), load_dep(64 + 8 * pid), compute(2), store(128 + 8 * pid)])
        if pid == 0:
            yield phase("chase")
        yield run_block([load_dep(4096 * (pid + 1) + 8 * i) for i in range(20)])
        yield barrier("b")
        yield run_block([])
        yield store(8 * v)

    eng.set_counter(100, 0)
    for pid in range(3):
        eng.spawn(prog(pid))
    return eng.run("blocks")


_TIER_PROGRAMS = {
    "rank": lambda tier: simulate_smp_list_ranking(
        random_list(2048, rng=3), 4, rng=3, tier=tier
    ).report,
    "cc": lambda tier: simulate_smp_cc(random_graph(256, 1024, rng=3), 4, tier=tier).report,
    "cc-branchy": lambda tier: simulate_smp_cc(
        random_graph(256, 1024, rng=3), 4, tier=tier, variant="branchy"
    ).report,
    "cc-branch-avoiding": lambda tier: simulate_smp_cc(
        random_graph(256, 1024, rng=3), 4, tier=tier, variant="branch-avoiding"
    ).report,
    "run-block": _run_block_program,
}


@pytest.mark.parametrize("program", sorted(_TIER_PROGRAMS))
def test_tiers_give_byte_identical_reports(program):
    interpreted = _TIER_PROGRAMS[program]("interpreted")
    auto = _TIER_PROGRAMS[program]("auto")
    assert _report_blob(auto) == _report_blob(interpreted)
    assert list(auto.op_counts.items()) == list(interpreted.op_counts.items())
    assert [list(s.op_counts.items()) for s in auto.phases] == [
        list(s.op_counts.items()) for s in interpreted.phases
    ]
