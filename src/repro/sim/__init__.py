"""Cycle-level simulation substrate: one kernel, pluggable machine models.

:class:`~repro.sim.kernel.SimKernel` owns the run loop, scheduling,
watchdog, barriers, phases, and instrumentation (via the
:class:`~repro.sim.hooks.HookBus`); machines plug in as
:class:`~repro.sim.kernel.MachineModel` implementations
(:class:`~repro.sim.smp_engine.SMPMachine`,
:class:`~repro.sim.mta_engine.MTAMachine`, …) behind one
:class:`~repro.sim.kernel.Engine` facade, whose per-machine subclasses
(``SMPEngine``, ``MTAEngine``, ``MTANextEngine``) only name the model.
Engine backends register through :func:`repro.backends.register_machine`.
See ``docs/SIMULATION.md``.
"""

from . import isa
from .checkpoint import (
    Checkpoint,
    CheckpointSession,
    CheckpointStore,
    load_checkpoint,
)
from .fastpath import OpBlock
from .hooks import HOOK_EVENTS, CheckerHook, HookBus, TracerHook
from .kernel import (
    CHECKPOINT_STATE_VERSION,
    EVENT,
    INTERLEAVED,
    TIERS,
    Engine,
    MachineModel,
    SimKernel,
)
from .mta_engine import MTAEngine, MTAMachine
from .mta_next import MTANextMachine
from .smp_engine import SMPEngine, SMPMachine
from .stats import PhaseSlice, SimReport, combine_reports
from .thread import SimThread

__all__ = [
    "isa",
    "Checkpoint",
    "CheckpointSession",
    "CheckpointStore",
    "CHECKPOINT_STATE_VERSION",
    "load_checkpoint",
    "Engine",
    "MTAEngine",
    "MTAMachine",
    "MTANextMachine",
    "SMPEngine",
    "SMPMachine",
    "SimKernel",
    "MachineModel",
    "EVENT",
    "INTERLEAVED",
    "TIERS",
    "OpBlock",
    "HookBus",
    "TracerHook",
    "CheckerHook",
    "HOOK_EVENTS",
    "PhaseSlice",
    "SimReport",
    "combine_reports",
    "SimThread",
]
