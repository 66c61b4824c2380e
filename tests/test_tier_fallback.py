"""Tier selection and fallback boundaries for the LD-window fast-forward.

The contract (``docs/SIMULATION.md``, "Execution tiers"):

* ``"auto"`` and ``"interpreted"`` are the only tiers; any other,
  ``"vector"`` included, is a :class:`~repro.errors.ConfigurationError`.
* ``tier="auto"`` fast-forwards only when the machine sets
  ``fast_forward`` **and** nothing demands per-op fidelity (an
  ``on_op``/``on_op_span``/``on_sync`` subscriber — a concurrency
  checker, an op-level tracer); the kernel decides this once, when it
  is built.
* ``tier_used`` reports the path that ran: ``"vector"`` exactly when a
  window fired, so every paper program reads ``"interpreted"``.
* Ops the fast-forward cannot cover run per op inside an ``auto`` run:
  fallback is a window boundary, not a tier change.
* A workload run under a per-op hook — ``repro analyze``'s checker,
  ``repro trace --level op``'s tracer — always executes interpreted.
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
from repro.sim.kernel import TIERS, SimKernel

from .test_sim_fuzz import _report_blob

# ---------------------------------------------------------------------------
# Static tier resolution
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_runs(monkeypatch):
    """``(tier_used, fast-forward allowed, windows fired)`` of every
    kernel run in the test."""
    runs = []
    orig = SimKernel.run

    def spy(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        runs.append((self.tier_used, self._fast, self.window_stats["windows"]))
        return result

    monkeypatch.setattr(SimKernel, "run", spy)
    return runs


def _ld_chain(n=16):
    return _gen([isa.run_block([isa.load_dep(8 * i) for i in range(n)])])


@pytest.mark.parametrize("engine_cls", [MTAEngine, SMPEngine])
def test_vector_tier_is_refused_by_the_kernel(engine_cls):
    assert TIERS == ("auto", "interpreted")
    with pytest.raises(ConfigurationError, match="unknown tier 'vector'"):
        SimKernel(engine_cls.machine_class(1), tier="vector")


@pytest.mark.parametrize("backend_name", ["mta-engine", "smp-engine"])
def test_run_jobs_refuses_vector_tier(backend_name):
    from repro.backends import Workload
    from repro.core.runner import Job, run_jobs

    job = Job(Workload("rank", 2, 0, {"n": 200}, {"tier": "vector"}), backend_name)
    with pytest.raises(ConfigurationError, match="unknown tier 'vector'"):
        run_jobs([job], cache=False)


def test_repro_run_refuses_vector_tier(capsys):
    from repro.cli import main

    argv = ["run", "--workload", "rank", "--backend", "mta-engine", "--n", "200",
            "--p", "2", "--opt", "tier=vector", "--no-cache"]
    assert main(argv) == 2
    assert "unknown tier 'vector'" in capsys.readouterr().err


def test_auto_with_checker_runs_interpreted():
    eng = MTAEngine(p=1, hooks=(CheckerHook(ConcurrencyChecker()),))
    eng.spawn(_ld_chain())
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"
    assert eng.kernel.window_stats["windows"] == 0


def test_banked_memory_runs_interpreted():
    """With bank modeling on there is no closed-form window, so the
    machine does not set ``fast_forward`` and ``auto`` interprets."""
    eng = MTAEngine(p=1, n_banks=16)
    assert not eng.model.fast_forward
    eng.spawn(_ld_chain())
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"
    assert eng.kernel.window_stats["windows"] == 0


def test_mta_next_backend_is_interpreted_only():
    """``mta-next`` keeps bank modeling on (``n_banks=4096``): even a
    pure dependent-load chain runs interpreted on its engine."""
    from repro.backends import create

    eng = create("mta-next-engine").engine(p=1)
    eng.spawn(_ld_chain())
    eng.run("t")
    assert eng.kernel.tier_used == "interpreted"
    assert eng.kernel.window_stats["windows"] == 0


def test_phase_level_tracer_keeps_vector_tier():
    eng = MTAEngine(p=1, hooks=(TracerHook(Tracer(level="phase")),))
    for _ in range(4):
        eng.spawn(_ld_chain(64))
    eng.run("t")
    assert eng.kernel.tier_used == "vector"
    assert eng.kernel.window_stats["windows"] > 0


@pytest.mark.parametrize("kind", ["rank", "cc"])
@pytest.mark.parametrize("backend_name", ["mta-engine", "smp-engine", "mta-next-engine"])
def test_paper_programs_report_interpreted(kernel_runs, backend_name, kind):
    """No paper program emits ``run_block``, so none fires a window and
    every engine run reports ``"interpreted"`` under the default tier."""
    from repro.backends import Workload, create
    params = {"n": 200} if kind == "rank" else {"n": 64, "m": 256}
    backend = create(backend_name)
    backend.execute(backend.prepare(Workload(kind, 2, 0, params, {})))
    assert kernel_runs and {(used, windows) for used, _, windows in kernel_runs} == {
        ("interpreted", 0)
    }


# ---------------------------------------------------------------------------
# Per-op fallback inside an auto run
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
    ``auto`` executes those per-op (windows end at the boundary) with
    byte-identical results and still fires windows — fallback is a
    window boundary, not a tier change."""
    progs = _mk_programs(seed)
    blobs = {}
    for tier in ("interpreted", "auto"):
        eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=12, tier=tier)
        eng.set_counter(0, 0)
        eng.register_barrier("z", len(progs))
        for ops in progs:
            eng.spawn(_gen(ops))
        blobs[tier] = _report_blob(eng.run("t", 5_000_000))
        if tier == "auto":
            assert eng.kernel.tier_used == "vector"
    assert blobs["interpreted"] == blobs["auto"]


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


def test_analyze_forces_interpreted_tier(kernel_runs):
    """``repro analyze`` (the ``analyze_workload`` driver behind both
    ``--workload`` and ``--all``) runs the interpreted tier even when
    the workload requests ``auto``: no kernel may fast-forward."""
    from repro.analysis import analyze_workload
    from repro.backends import Workload
    workload = Workload("rank", 2, 0, {"n": 200}, {"tier": "auto"})
    report = analyze_workload(workload, "mta-engine")
    assert kernel_runs and set(kernel_runs) == {("interpreted", False, 0)}
    assert report is not None


@pytest.mark.parametrize("backend_name", ["mta-engine", "smp-engine"])
def test_op_level_trace_forces_interpreted_tier(kernel_runs, backend_name):
    """``repro trace --level op --opt tier=auto``: the op-level tracer
    is a per-op hook, so no kernel may fast-forward and every op is
    traced."""
    from repro.backends import Workload, create
    backend = create(backend_name)
    tracer = Tracer(level="op")
    workload = Workload("rank", 2, 0, {"n": 200}, {"tier": "auto"})
    summary = backend.execute(backend.prepare(workload), hooks=(TracerHook(tracer),))
    assert kernel_runs and set(kernel_runs) == {("interpreted", False, 0)}
    assert len(tracer.events) > summary.issued
