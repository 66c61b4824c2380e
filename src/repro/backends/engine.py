"""Cycle-level engine backends: simulated SMP and MTA programs.

These wrap the instruction-level programs of
:mod:`repro.lists.programs` and :mod:`repro.graphs.programs` (plus the
raw stream-chaser microbenchmark for the MTA) behind the same
:class:`~repro.backends.base.Backend` interface the analytic models
use.  Engines execute real per-thread instruction streams, so only the
kinds with written programs are supported — ``rank`` and ``cc`` on
both engines, ``chase`` on the MTA.

Workload options consumed here (all optional):

``streams_per_proc``, ``nodes_per_walk``, ``dynamic``,
``edges_per_chunk``
    MTA program knobs (paper defaults: 100 streams, ~10 nodes/walk,
    dynamic self-scheduling).
``engine_kwargs``
    Dict of :class:`~repro.sim.MTAEngine` construction overrides
    (``mem_latency``, ``lookahead``, ``max_outstanding``, …).
``s``
    SMP Helman–JáJá sublist-count override.
``tier``
    Execution tier for the run (``"auto"``/``"interpreted"``; see
    ``docs/SIMULATION.md``).  Under ``"auto"`` a per-op hook passed to
    :meth:`execute` — a :class:`~repro.sim.hooks.CheckerHook`, an
    op-level :class:`~repro.sim.hooks.TracerHook` — makes the kernel
    interpret: it observes every op, so ``repro analyze`` and ``repro
    trace --level op`` always run at full per-op fidelity.
``steps``, ``mem_latency``, ``lookahead``
    ``chase`` workload: instructions per chaser and engine latency
    parameters for the saturation curve.
``checkpoint``
    Dict enabling checkpoint/resume for the run: ``every`` (snapshot
    period in steps/cycles), ``dir`` (artifact store root), ``resume``
    (explicit artifact path/id — a stale one is an error), ``key``
    (owning-job identity; defaults to a hash of the workload), and
    ``fresh`` (truthy: ignore existing artifacts instead of
    auto-resuming from the newest).  The sweep runner injects this from
    its ``checkpoint=`` argument; see ``docs/SIMULATION.md``.

Instrumentation reaches a run only as :meth:`execute`'s ``hooks``; the
retired ``check`` option is refused (concurrency analysis is ``repro
analyze``).

Backend options: ``config`` — dict of :class:`~repro.core.smp_machine.SMPConfig`
field overrides for the SMP engine, nested ones included, merged as for
the analytic models (:func:`~repro.backends.base.override_config`);
``collect_phases`` is implicit (programs emit PHASE markers).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from ..errors import ConfigurationError
from .base import (
    CHECKPOINT_KEYS,
    Backend,
    RunHandle,
    checkpoint_spec,
    int_value,
    override_config,
)
from .registry import create, register

__all__ = ["SMPEngineBackend", "MTAEngineBackend", "create_engine", "register_machine"]


class SMPEngineBackend(Backend):
    """Cycle-accurate SMP simulation (caches, bus, software barriers)."""

    name = "smp-engine"
    level = "engine"
    kinds = ("rank", "cc")
    description = "Cycle-level SMP engine (simulated caches + bus)"

    def __init__(self, *, config=None):
        from ..core.smp_machine import SUN_E4500

        self.config = override_config(SUN_E4500, config, "SMP engine config")

    def execute(self, handle: RunHandle, hooks=()):
        """Run the prepared workload; ``hooks`` are the
        :class:`~repro.sim.hooks.HookBus` listeners for its engine."""
        workload = handle.workload
        opt = workload.options
        _reject_retired_options(workload)
        tier = workload.option("tier") or "auto"
        session = _resolve_session(workload, self.name, hooks)
        if workload.kind == "rank":
            from ..lists.programs import simulate_smp_list_ranking

            sim = simulate_smp_list_ranking(
                handle.data, p=workload.p, s=int_value(opt, "s", None),
                rng=workload.seed, config=self.config, hooks=hooks,
                tier=tier, session=session,
            )
        else:
            from ..graphs.programs import simulate_smp_cc

            sim = simulate_smp_cc(
                handle.data, p=workload.p,
                max_iter=int_value(opt, "max_iter", 64),
                config=self.config, hooks=hooks, tier=tier,
                session=session, variant=opt.get("variant"),
            )
        return _finish(
            self.name, handle, sim.summary, session,
            iterations=getattr(sim, "iterations", None),
        )


class MTAEngineBackend(Backend):
    """Cycle-accurate simulation of the MTA thread programs (stream
    interleaving, full/empty bits) on an interleaved machine's
    ``engine``; built by :func:`register_machine`."""

    level = "engine"
    kinds = ("rank", "cc", "chase")

    def __init__(self, *, name, engine, description):
        self.name = name
        self.engine = engine
        self.description = description

    def execute(self, handle: RunHandle, hooks=()):
        """Run the prepared workload; ``hooks`` are the
        :class:`~repro.sim.hooks.HookBus` listeners for every engine
        the program constructs."""
        workload = handle.workload
        opt = workload.options
        _reject_retired_options(workload)
        if workload.kind == "chase":
            return self._execute_chase(handle, hooks)
        engine_kwargs = opt.get("engine_kwargs")
        if not isinstance(engine_kwargs, (Mapping, type(None))):
            raise ConfigurationError(
                "engine_kwargs must be a mapping of engine parameters,"
                f" got {type(engine_kwargs).__name__} {engine_kwargs!r}"
            )
        engine_kwargs = dict(engine_kwargs or {})
        taken = sorted({"p", "hooks", "session"} & engine_kwargs.keys())
        if taken:
            raise ConfigurationError(
                f"engine_kwargs cannot set {', '.join(taken)}: the workload's p,"
                " the caller's hooks and the checkpoint option decide them"
            )
        engine_kwargs.setdefault("tier", workload.option("tier") or "auto")
        session = _resolve_session(workload, self.name, hooks)
        if workload.kind == "rank":
            from ..lists.programs import simulate_mta_list_ranking

            sim = simulate_mta_list_ranking(
                handle.data,
                p=workload.p,
                streams_per_proc=int_value(opt, "streams_per_proc", 100),
                nodes_per_walk=int_value(opt, "nodes_per_walk", 10),
                dynamic=bool(opt.get("dynamic", True)),
                engine_kwargs=engine_kwargs,
                hooks=hooks,
                engine=self.engine,
                session=session,
            )
        else:
            from ..graphs.programs import simulate_mta_cc

            sim = simulate_mta_cc(
                handle.data,
                p=workload.p,
                streams_per_proc=int_value(opt, "streams_per_proc", 100),
                edges_per_chunk=int_value(opt, "edges_per_chunk", 16),
                max_iter=int_value(opt, "max_iter", 64),
                engine_kwargs=engine_kwargs,
                hooks=hooks,
                engine=self.engine,
                session=session,
            )
        return _finish(
            self.name, handle, sim.summary, session,
            iterations=getattr(sim, "iterations", None),
        )

    def _execute_chase(self, handle: RunHandle, hooks=()):
        """The latency-hiding saturation microbenchmark: ``chasers``
        streams each alternating one compute with two dependent loads —
        the access pattern of a list walk."""
        from ..obs.summary import RunSummary
        from ..sim import isa

        workload = handle.workload
        opt = workload.options
        chasers = handle.meta.get("chasers", 1)
        steps = int_value(opt, "steps", 40)

        def _chaser():
            for i in range(steps):
                yield isa.compute(1)
                yield isa.load_dep(i)
                yield isa.load_dep(100_000 + i)

        session = _resolve_session(workload, self.name, hooks)
        eng = self.engine(
            p=workload.p,
            streams_per_proc=int_value(opt, "streams_per_proc", 128),
            mem_latency=int_value(opt, "mem_latency", 100),
            lookahead=int_value(opt, "lookahead", 2),
            hooks=hooks,
            tier=workload.option("tier") or "auto",
            session=session,
        )
        for _ in range(chasers):
            eng.spawn(_chaser())
        report = eng.run(name="chase")
        summary = RunSummary.from_report(report, machine=self.name)
        summary.name = "chase"
        return _finish(self.name, handle, summary, session)


def _finish(backend_name, handle, summary, session, iterations=None):
    """The tail every engine run shares: note a resume, then stamp input
    metadata, backend and iterations into ``summary.detail``.  Callers
    read a ``simulate_*`` result's ``summary`` property once: each
    access builds a new :class:`~repro.obs.RunSummary`."""
    _note_resume(session)
    summary.detail.update(handle.meta)
    summary.detail["backend"] = backend_name
    if iterations is not None:
        summary.detail["iterations"] = int(iterations)
    return summary


def create_engine(name: str) -> Backend:
    """Instantiate the registered backend ``name``, refusing one that is
    not a cycle engine: analytic models never execute an op stream, so
    there is nothing to trace or analyze."""
    backend = create(name)
    if backend.level != "engine":
        raise ConfigurationError(
            f"backend {name!r} is not a cycle engine; only engine-level"
            " backends execute an op stream to trace or analyze"
        )
    return backend


def register_machine(name: str, engine, *, description: str = "", xval: bool = False):
    """Register ``"<name>-engine"``: the MTA thread programs on the
    interleaved machine behind ``engine`` (an
    :class:`~repro.sim.kernel.Engine` subclass).

    Its checkpoint support is read off a default one-processor machine
    (``checkpointable``); ``xval`` marks a machine with an analytic
    counterpart in :mod:`repro.xval`.  A taken name raises
    :class:`~repro.errors.ConfigurationError`.
    """
    from ..sim.hooks import HOOK_EVENTS

    backend_name = f"{name}-engine"
    register(
        backend_name,
        functools.partial(
            MTAEngineBackend, name=backend_name, engine=engine, description=description
        ),
        level="engine",
        kinds=MTAEngineBackend.kinds,
        description=description,
        machine=name,
        hooks=HOOK_EVENTS,
        checkpoint=engine.machine_class(1).checkpointable,
        xval=xval,
    )


_SHARDS_GONE = (
    "the sharded runtime was removed and every engine run executes on one kernel"
)
#: Retired workload options, each with the reason it is refused.
_RETIRED_OPTIONS = {
    "shards": _SHARDS_GONE,
    "shard_workers": _SHARDS_GONE,
    "shard_executor": _SHARDS_GONE,
    "remote_latency": _SHARDS_GONE,
    "check": "concurrency analysis runs through `repro analyze`",
}


def _reject_retired_options(workload) -> None:
    """Refuse retired options instead of ignoring them: an ignored
    option would run under a new cache key without doing what it once
    did, so an old sweep spec or service client would get a different
    answer without notice."""
    retired = [k for k in _RETIRED_OPTIONS if k in workload.options]
    if retired:
        reasons = "; ".join(dict.fromkeys(_RETIRED_OPTIONS[k] for k in retired))
        raise ConfigurationError(
            f"workload option(s) {', '.join(retired)} are no longer accepted: {reasons}"
        )


def _resolve_session(workload, backend_name: str, hooks=()):
    """Build a :class:`~repro.sim.checkpoint.CheckpointSession` from the
    workload's ``checkpoint`` option (None when the option is absent).

    An explicit ``resume`` reference must load — a stale or missing
    artifact raises :class:`~repro.errors.CheckpointError`.  Without
    one, the newest artifact of this job auto-resumes; stale artifacts
    are skipped with a warning (the run simply starts over).
    """
    spec = workload.option("checkpoint")
    if spec is None:
        return None
    spec = checkpoint_spec(spec, CHECKPOINT_KEYS | {"key", "_stop"})
    if not spec:
        return None
    from ..sim.hooks import HookBus

    if HookBus(hooks).per_op:
        raise ConfigurationError(
            "checkpointing is incompatible with concurrency analysis and"
            " op-level tracing: replayed runs re-execute without per-op hook"
            " events, so a per-op hook would see a partial stream"
        )
    import hashlib
    import sys

    from ..errors import CheckpointError
    from ..sim.checkpoint import CheckpointSession, CheckpointStore, load_checkpoint

    store = CheckpointStore(spec.get("dir"))
    key = spec.get("key")
    if not key:
        from .base import canonical_json

        canon = workload.canonical()
        canon["options"] = {
            k: v for k, v in canon["options"].items() if k != "checkpoint"
        }
        key = hashlib.sha256(
            canonical_json({"workload": canon, "backend": backend_name}).encode()
        ).hexdigest()
    resume = None
    ref = spec.get("resume")
    if ref:
        resume = load_checkpoint(store.resolve(ref))
    elif not spec.get("fresh"):
        newest = store.newest_for(key)
        if newest is not None:
            try:
                resume = load_checkpoint(newest)
            except CheckpointError as exc:
                print(
                    f"repro: ignoring stale checkpoint {newest.name}: {exc}",
                    file=sys.stderr,
                )
    return CheckpointSession(
        every=spec.get("every"),
        store=store,
        job={"key": key},
        resume=resume,
        should_stop=spec.get("_stop"),
    )


def _note_resume(session) -> None:
    """One stderr line when a run actually resumed (stdout records stay
    byte-identical to uninterrupted runs)."""
    if session is not None and session.resumed_from is not None:
        import sys

        print(
            f"repro: resumed from checkpoint {session.resumed_from[:16]}"
            f" ({session.replayed_runs} run(s) replayed)",
            file=sys.stderr,
        )

