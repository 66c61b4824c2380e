"""The unified simulation kernel: HookBus, watchdog, Engine facade, machine registration.

The engine-equivalence suite (``test_engine_equivalence.py``) pins the
refactor's behavior to the pre-kernel goldens; this file tests the new
surfaces the kernel added — the single instrumentation bus, the unified
watchdog ``budget`` with its blocked-inventory diagnosis, phase-slice
closure on mid-phase aborts, the one :class:`~repro.sim.kernel.Engine`
facade every machine shares, and engine-backend registration through
:func:`repro.backends.register_machine` (``mta-next`` end to end).
"""

from __future__ import annotations

import pytest

from repro.arch.memory import AddressSpace
from repro.backends import create, describe, register_machine
from repro.analysis import ConcurrencyChecker
from repro.errors import ConfigurationError, WatchdogExceeded
from repro.obs import Tracer
from repro.sim import HOOK_EVENTS, Engine, HookBus, MTAEngine, SMPEngine, isa
from repro.sim.mta_next import MTANextEngine, MTANextMachine


class _Recorder:
    """Hook implementing every event: appends (event, args) tuples."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        if name in HOOK_EVENTS:
            return lambda *a, _n=name: self.events.append((_n, a))
        raise AttributeError(name)

    def names(self):
        return [n for n, _ in self.events]


class _EndOnly:
    def __init__(self):
        self.reports = []

    def end_run(self, report):
        self.reports.append(report)


class TestHookBus:
    def test_listeners_none_when_empty(self):
        bus = HookBus()
        for event in HOOK_EVENTS:
            assert bus.listeners(event) is None

    def test_listeners_filter_by_implemented_subset(self):
        hook = _EndOnly()
        bus = HookBus((hook,))
        assert bus.listeners("on_op") is None
        (fn,) = bus.listeners("end_run")
        fn("report")
        assert hook.reports == ["report"]

    def test_hooks_fixed_at_construction(self):
        """The hook set is the constructor's: nothing attaches later, so
        the kernel reads its listener tuples once."""
        hook = _EndOnly()
        bus = HookBus([hook])
        assert bus.hooks == (hook,)
        assert not hasattr(bus, "add")
        assert not bus.per_op
        assert HookBus((_Recorder(),)).per_op  # an on_op subscriber
        eng = MTAEngine(p=1, hooks=(hook,))
        assert eng.kernel.bus.hooks == (hook,)

    def test_fan_out_preserves_attach_order(self):
        order = []
        first, second = _EndOnly(), _EndOnly()
        first.end_run = lambda r: order.append("first")
        second.end_run = lambda r: order.append("second")
        bus = HookBus((first, second))
        bus.emit("end_run", None)
        assert order == ["first", "second"]

    def test_engine_delivers_full_event_stream(self):
        rec = _Recorder()
        eng = MTAEngine(p=1, streams_per_proc=2, hooks=(rec,))
        eng.register_barrier("b", 2)
        eng.set_counter(7, 0)
        eng.set_full(9, 5)
        space = AddressSpace()
        space.alloc("x", 4)
        eng.declare_memory(space, {"x": "benign"})

        def prog():
            yield isa.compute(1)
            got = yield isa.fetch_add(7, 1)
            assert got in (0, 1)
            yield isa.phase(f"worker")
            yield isa.barrier("b")

        eng.spawn(prog())
        eng.spawn(prog())
        report = eng.run("hooked")
        names = rec.names()
        # setup events, in declaration order
        assert names[0] == "attach_engine"
        assert rec.events[0][1] == ("mta", 1)
        assert "register_barrier" in names
        assert "init_counter" in names
        assert "init_full" in names
        assert ("declare_memory", (space, {"x": "benign"})) in rec.events
        # run events
        assert "on_run_start" in names
        assert "on_op" in names
        assert "on_phase" in names
        assert "on_barrier_release" in names
        assert names[-1] == "end_run"
        assert rec.events[-1][1][0] is report

    def test_smp_engine_accepts_extra_hooks(self):
        rec = _Recorder()
        eng = SMPEngine(p=2, hooks=(rec,))

        def prog():
            yield isa.compute(3)
            yield isa.barrier("sync")

        eng.spawn(prog())
        eng.spawn(prog())
        eng.run("t")
        names = rec.names()
        assert names[0] == "attach_engine"
        assert rec.events[0][1] == ("smp", 2)
        assert "on_barrier_release" in names
        assert names[-1] == "end_run"


class TestWatchdog:
    def test_mta_budget_carries_blocked_inventory(self):
        eng = MTAEngine(p=1, streams_per_proc=2)
        eng.register_barrier("never", 2)

        def stuck():
            yield isa.compute(1)
            yield isa.barrier("never")

        def spinner():
            while True:
                yield isa.compute(1)

        eng.spawn(stuck())
        eng.spawn(spinner())
        with pytest.raises(WatchdogExceeded) as ei:
            eng.run("t", budget=50)
        exc = ei.value
        assert "max_cycles=50" in str(exc)
        assert exc.budget == 50
        barrier_rows = [r for r in exc.blocked if r.get("barrier") == "never"]
        assert barrier_rows and barrier_rows[0]["need"] == 2

    def test_smp_budget_counts_scheduling_steps(self):
        eng = SMPEngine(p=1)

        def spinner():
            while True:
                yield isa.compute(1)

        eng.spawn(spinner())
        with pytest.raises(WatchdogExceeded, match="max_ops=30") as ei:
            eng.run("t", budget=30)
        assert ei.value.budget == 30

    def test_mid_phase_abort_closes_open_slice(self):
        """An aborted run's phase partition is closed at the abort point:
        every slice has an end, and no boundary exceeds the abort cycle."""
        eng = MTAEngine(p=1, streams_per_proc=1)

        def prog():
            yield isa.compute(5)
            yield isa.phase("endless")
            while True:
                yield isa.compute(1)

        eng.spawn(prog())
        with pytest.raises(WatchdogExceeded) as ei:
            eng.run("t", budget=40)
        phases = ei.value.phases
        assert phases, "abort should still deliver the phase partition"
        assert [s.name for s in phases][:2] == ["t", "endless"]
        for s in phases:
            assert s.end is not None
            assert s.start <= s.end <= 41  # clamped at the abort cycle
        assert phases[-1].name == "endless"

    def test_full_empty_waiters_in_blocked_inventory(self):
        eng = MTAEngine(p=1, streams_per_proc=2)

        def reader():
            yield isa.sync_load_consume(123)

        def spinner():
            while True:
                yield isa.compute(1)

        eng.spawn(reader())
        eng.spawn(spinner())
        with pytest.raises(WatchdogExceeded) as ei:
            eng.run("t", budget=20)
        rows = ei.value.blocked
        assert {"tid": 0, "state": "wait-full", "addr": 123} in rows


@pytest.mark.parametrize(
    "engine_cls,kind",
    [
        pytest.param(SMPEngine, "smp", id="SMPEngine"),
        pytest.param(MTAEngine, "mta", id="MTAEngine"),
        pytest.param(MTANextEngine, "mta-next", id="MTANextEngine"),
    ],
)
def test_engine_facade_contract(engine_cls, kind):
    """Every machine's engine is the one :class:`Engine` facade: an
    unknown machine parameter is a structured error naming the machine,
    and ``spawn`` + ``run(budget=)`` trips the kernel watchdog."""
    with pytest.raises(ConfigurationError, match=f"bad {kind} engine config"):
        engine_cls(p=1, bogus=1)
    # instrumentation arrives only as hooks=(TracerHook(t), CheckerHook(c))
    with pytest.raises(ConfigurationError, match="tracer"):
        engine_cls(p=1, tracer=Tracer())
    with pytest.raises(ConfigurationError, match="check"):
        engine_cls(p=1, check=ConcurrencyChecker())
    eng = engine_cls(p=1)
    assert isinstance(eng, Engine)
    assert eng.model.kind == kind and eng.p == 1

    def spinner():
        while True:
            yield isa.compute(1)

    eng.spawn(spinner())
    with pytest.raises(WatchdogExceeded) as ei:
        eng.run("t", budget=30)
    assert ei.value.budget == 30


class TestMachineRegistry:
    def test_builtins_registered(self):
        rows = {r["name"]: r for r in describe()}
        assert rows["smp-engine"]["machine"] == "smp"
        assert rows["mta-engine"]["machine"] == "mta"
        assert rows["mta-next-engine"]["machine"] == "mta-next"

    def test_spec_fields(self):
        row = next(r for r in describe() if r["name"] == "mta-next-engine")
        assert row["level"] == "engine"
        assert row["kinds"] == ["rank", "cc", "chase"]
        assert row["hooks"] == list(HOOK_EVENTS)
        assert row["checkpoint"] is True
        assert create("mta-next-engine").engine is MTANextEngine

    def test_register_machine_auto_registers_backend(self):
        from repro.backends import names
        from repro.backends.registry import _REGISTRY

        register_machine("toy-mta", MTAEngine, description="registry test machine")
        try:
            assert "toy-mta-engine" in names()
            row = next(r for r in describe() if r["name"] == "toy-mta-engine")
            assert row["machine"] == "toy-mta"
            assert row["hooks"] == list(HOOK_EVENTS)
            assert row["level"] == "engine"
            assert row["xval"] is False
            backend = create("toy-mta-engine")
            assert backend.engine is MTAEngine
            assert backend.description == "registry test machine"
        finally:
            _REGISTRY.pop("toy-mta-engine", None)

    def test_duplicate_machine_needs_replace(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_machine("mta", MTAEngine)


class TestMTANext:
    def test_machine_defaults(self):
        eng = MTANextEngine()
        assert eng.model.streams_per_proc == 64
        assert eng.model.mem_latency == 400
        assert eng.model.n_banks == 4096
        assert eng.model.clock_hz == 500e6
        assert isinstance(eng.model, MTANextMachine)
        assert eng.model.kind == "mta-next"

    def test_runs_programs_like_the_mta(self):
        eng = MTANextEngine(p=2)
        eng.set_counter(5, 0)

        def worker():
            while True:
                i = yield isa.fetch_add(5, 1)
                if i >= 20:
                    return
                yield isa.load_dep(1000 + i)
                yield isa.compute(1)

        for _ in range(8):
            eng.spawn(worker())
        report = eng.run("walk")
        assert report.cycles > 0
        # the memory system is 4x slower than stock: same program on a
        # stock MTA with matching streams finishes in fewer cycles
        ref = MTAEngine(p=2, streams_per_proc=64)
        ref.set_counter(5, 0)
        for _ in range(8):
            ref.spawn(worker())
        assert ref.run("walk").cycles < report.cycles

    def test_backend_end_to_end(self):
        """A registered machine is reachable through the backend layer
        with zero bespoke plumbing: prepare + execute a rank workload."""
        from repro.backends import Workload, create

        summary = create("mta-next-engine").run(
            Workload(
                "rank",
                2,
                1,
                {"n": 96, "list": "random"},
                {"streams_per_proc": 8, "nodes_per_walk": 4},
            )
        )
        assert summary.cycles > 0
        assert 0.0 <= summary.utilization <= 1.0
        assert summary.detail["backend"] == "mta-next-engine"

    def test_chase_uses_machine_factory(self):
        from repro.backends import Workload, create

        summary = create("mta-next-engine").run(
            Workload("chase", 1, 0, {"chasers": 4}, {"steps": 4, "streams_per_proc": 8})
        )
        assert summary.cycles > 0
        assert summary.detail["backend"] == "mta-next-engine"


class TestSMPExplicitBarrier:
    def test_register_barrier_with_subset_count(self):
        """SMP barriers are implicit (need=p) unless explicitly
        registered; an explicit registration with a smaller count
        releases without the other processors."""
        eng = SMPEngine(p=3)
        eng.register_barrier("pair", 2)

        def pair():
            yield isa.compute(1)
            yield isa.barrier("pair")

        def loner():
            yield isa.compute(50)

        eng.spawn(pair())
        eng.spawn(pair())
        eng.spawn(loner())
        report = eng.run("t")
        assert report.cycles > 0
