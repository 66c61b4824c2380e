"""Tier-selection and fallback-boundary tests for the vectorized fast path.

The contract (``docs/SIMULATION.md``, "Execution tiers"):

* ``tier="auto"`` picks the vector tier only when the machine publishes
  a :class:`~repro.sim.VectorProfile` **and** nothing demands per-op
  fidelity (an ``on_op``/``on_op_span``/``on_sync`` subscriber — a
  concurrency checker, an op-level tracer).
* An explicit ``tier="vector"`` that conflicts with either requirement
  raises :class:`~repro.errors.ConfigurationError` — never a silent
  downgrade.
* Ops the vector tier cannot fast-forward run per op inside a vector
  run: fallback is a window boundary, not a tier change.
* A workload run under a per-op hook — ``repro analyze``'s checker,
  ``repro trace --level op``'s tracer — always executes on the
  interpreted tier, whatever tier the workload requested.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ConcurrencyChecker
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.sim import CheckerHook, MTAEngine, SMPEngine, TracerHook, isa

from .test_sim_fuzz import _report_blob

# ---------------------------------------------------------------------------
# Static tier resolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", [MTAEngine, SMPEngine])
def test_explicit_vector_with_checker_raises(engine_cls):
    eng = engine_cls(p=1, hooks=(CheckerHook(ConcurrencyChecker()),), tier="vector")
    eng.spawn(_gen([isa.compute(1)]))
    with pytest.raises(ConfigurationError, match="per-op instrumentation"):
        eng.run("t")


def test_explicit_vector_with_op_tracer_raises():
    eng = MTAEngine(p=1, hooks=(TracerHook(Tracer(level="op")),), tier="vector")
    eng.spawn(_gen([isa.compute(1)]))
    with pytest.raises(ConfigurationError, match="per-op instrumentation"):
        eng.run("t")


def test_auto_with_checker_runs_interpreted():
    eng = MTAEngine(p=1, hooks=(CheckerHook(ConcurrencyChecker()),))
    eng.spawn(_gen([isa.run_block([isa.load_dep(8 * i) for i in range(16)])]))
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"
    assert eng.kernel.window_stats["windows"] == 0


def test_banked_memory_publishes_no_vector_profile():
    """With bank modeling on there is no closed-form window; explicit
    vector refuses, auto interprets.  (This is what keeps the
    ``mta-next`` machine — ``n_banks=4096`` — interpreted-only.)"""
    eng = MTAEngine(p=1, n_banks=16, tier="vector")
    eng.spawn(_gen([isa.compute(1)]))
    with pytest.raises(ConfigurationError, match="no vector profile"):
        eng.run("t")
    eng = MTAEngine(p=1, n_banks=16)
    eng.spawn(_gen([isa.run_block([isa.load_dep(8 * i) for i in range(16)])]))
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"


def test_mta_next_backend_is_interpreted_only():
    from repro.backends import describe

    rows = {r["name"]: r for r in describe()}
    assert rows["mta-next-engine"]["tiers"] == ["interpreted"]
    assert rows["mta-engine"]["tiers"] == ["interpreted", "vector"]
    assert rows["smp-engine"]["tiers"] == ["interpreted", "vector"]


def test_phase_level_tracer_keeps_vector_tier():
    eng = MTAEngine(p=1, hooks=(TracerHook(Tracer(level="phase")),), tier="vector")
    for _ in range(4):
        eng.spawn(_gen([isa.run_block([isa.load_dep(8 * i) for i in range(64)])]))
    eng.run("t")
    assert eng.kernel.tier_used == "vector"
    assert eng.kernel.window_stats["windows"] > 0


# ---------------------------------------------------------------------------
# Per-op fallback inside a vector run
# ---------------------------------------------------------------------------


def _gen(ops):
    def g():
        for op in ops:
            result = yield op
            del result

    return g()


def _canon_arg(a):
    if isinstance(a, (list, tuple)):
        return [_canon_arg(x) for x in a]
    return a


def _probe(event, log):
    """A hook implementing exactly one bus event, recording every call."""

    def record(*args):
        log.append((event, [_canon_arg(a) for a in args]))

    return type("Probe", (), {event: staticmethod(record)})()


def _mk_programs(seed):
    """Stream programs with at least one of everything an event could
    observe: plain ops, LD-window blocks, fetch-adds, a matched sync
    pair, phases, and a barrier."""
    rng = np.random.default_rng(seed)

    def ld_block():
        return isa.run_block(
            [isa.load_dep(int(a))
             for a in rng.integers(0, 200, int(rng.integers(4, 40)))]
        )

    lead = [
        isa.compute(int(rng.integers(1, 4))),
        isa.phase("before"),
        ld_block(),
        isa.fetch_add(0, 1),
        isa.sync_load_consume(900),
        ld_block(),
        isa.phase("after"),
        isa.barrier("z"),
    ]
    partner = [
        ld_block(),
        isa.sync_store(900, 7),
        isa.fetch_add(0, 1),
        isa.barrier("z"),
    ]
    progs = [lead, partner]
    for _ in range(int(rng.integers(0, 3))):
        progs.append([ld_block(), isa.compute(int(rng.integers(1, 4))),
                      isa.fetch_add(0, 1), isa.barrier("z")])
    return progs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_nonvectorizable_ops_fall_back_per_op(seed):
    """FA, sync words, barriers, and phases interleaved with LD blocks:
    the fast tier executes those per-op (windows end at the boundary)
    with byte-identical results and stays the vector tier — fallback is
    a window boundary, not a tier change."""
    progs = _mk_programs(seed)
    blobs = {}
    for tier in ("interpreted", "vector"):
        eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=12, tier=tier)
        eng.set_counter(0, 0)
        eng.register_barrier("z", len(progs))
        for ops in progs:
            eng.spawn(_gen(ops))
        blobs[tier] = _report_blob(eng.run("t", 5_000_000))
        if tier == "vector":
            assert eng.kernel.tier_used == "vector"
    assert blobs["interpreted"] == blobs["vector"]


def test_run_block_expansion_visible_per_op():
    """A ``run_block`` is macro-expanded on the interpreted tier: an
    ``on_op`` subscriber (what a checker attaches) sees every op inside
    the block individually, in program order."""
    seen = []
    probe = _probe("on_op", seen)
    block = [isa.load_dep(8 * i) for i in range(10)] + [isa.compute(2)]
    eng = MTAEngine(p=1, hooks=(CheckerHook(ConcurrencyChecker()), probe))
    eng.spawn(_gen([isa.run_block(block), isa.store(4)]))
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"
    ops = [args[1] for _event, args in seen]
    assert ops == [_canon_arg(op) for op in block + [isa.store(4)]]


# ---------------------------------------------------------------------------
# Workload runs: a per-op hook always interprets
# ---------------------------------------------------------------------------


def test_analyze_forces_interpreted_tier(monkeypatch):
    """``repro analyze`` (the ``analyze_workload`` driver behind both
    ``--workload`` and ``--all``) runs the interpreted tier even when
    the workload explicitly requests the vector tier."""
    from repro.analysis import analyze_workload
    from repro.backends import Workload
    from repro.sim.kernel import SimKernel

    used = []
    orig = SimKernel.run

    def spy(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        used.append(self.tier_used)
        return result

    monkeypatch.setattr(SimKernel, "run", spy)
    workload = Workload("rank", 2, 0, {"n": 200}, {"tier": "vector"})
    report = analyze_workload(workload, "mta-engine")
    assert used and all(t == "interpreted" for t in used)
    assert report is not None


@pytest.mark.parametrize("backend_name", ["mta-engine", "smp-engine"])
def test_op_level_trace_forces_interpreted_tier(monkeypatch, backend_name):
    """``repro trace --level op --opt tier=vector``: the op-level tracer
    is a per-op hook, so the workload runs interpreted instead of
    failing on the explicit tier, with every op traced."""
    from repro.backends import Workload, create
    from repro.sim.kernel import SimKernel

    used = []
    orig = SimKernel.run

    def spy(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        used.append(self.tier_used)
        return result

    monkeypatch.setattr(SimKernel, "run", spy)
    backend = create(backend_name)
    tracer = Tracer(level="op")
    workload = Workload("rank", 2, 0, {"n": 200}, {"tier": "vector"})
    summary = backend.execute(backend.prepare(workload), hooks=(TracerHook(tracer),))
    assert used and all(t == "interpreted" for t in used)
    assert len(tracer.events) > summary.issued
