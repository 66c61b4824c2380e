"""Cycle-level simulation substrate: one kernel, pluggable machine models.

:class:`~repro.sim.kernel.SimKernel` owns the run loop, scheduling,
watchdog, barriers, phases, and instrumentation (via the
:class:`~repro.sim.hooks.HookBus`); machines plug in as
:class:`~repro.sim.kernel.MachineModel` implementations
(:class:`~repro.sim.smp_engine.SMPMachine`,
:class:`~repro.sim.mta_engine.MTAMachine`, …) behind the historical
``SMPEngine`` / ``MTAEngine`` facades.  New machines register through
:func:`~repro.sim.machines.register_machine`.  See ``docs/SIMULATION.md``.
"""

from . import isa
from .checkpoint import (
    Checkpoint,
    CheckpointSession,
    CheckpointStore,
    load_checkpoint,
)
from .fastpath import OpBlock, VectorProfile
from .hooks import HOOK_EVENTS, CheckerHook, HookBus, TracerHook
from .kernel import (
    CHECKPOINT_STATE_VERSION,
    EVENT,
    INTERLEAVED,
    TIERS,
    MachineModel,
    SimKernel,
)
from .machines import list_machines, machine_spec, register_machine
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
    "VectorProfile",
    "HookBus",
    "TracerHook",
    "CheckerHook",
    "HOOK_EVENTS",
    "register_machine",
    "list_machines",
    "machine_spec",
    "PhaseSlice",
    "SimReport",
    "combine_reports",
    "SimThread",
]
