"""Machine-model registry: one call makes a machine a first-class citizen.

Registering a machine here records its engine facade under a short name
(``"smp"``, ``"mta"``, ``"mta-next"``, …) **and** — unless opted out —
auto-registers a ``"<name>-engine"`` entry in the backend registry
(:mod:`repro.backends`), so ``repro backends`` lists it, ``repro run
--backend <name>-engine`` reaches it, and the sweep runner caches its
results like any built-in.  That is the whole point of the kernel /
machine-model split: a new machine is one module (a
:class:`~repro.sim.kernel.MachineModel` subclass plus a facade) and one
:func:`register_machine` call, with zero edits to ``kernel.py`` or the
backend plumbing.  See ``docs/SIMULATION.md`` and
:mod:`repro.sim.mta_next` for the in-tree example.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError

__all__ = ["MachineSpec", "register_machine", "list_machines", "machine_spec"]


@dataclass(frozen=True)
class MachineSpec:
    """One registered machine model."""

    name: str
    #: Engine facade: ``engine(p, ..., tracer=, check=, hooks=)``.
    engine: Callable
    #: Scheduling discipline (:data:`~repro.sim.kernel.EVENT` or
    #: :data:`~repro.sim.kernel.INTERLEAVED`).
    scheduling: str
    description: str
    #: Workload kinds the auto-registered backend supports.
    kinds: tuple
    #: Name of the auto-registered engine backend (None if opted out).
    backend: str | None


_MACHINES: dict[str, MachineSpec] = {}


def register_machine(
    name: str,
    engine: Callable,
    *,
    scheduling: str,
    description: str = "",
    kinds: tuple = ("rank", "cc", "chase"),
    engine_backend: bool = True,
    tiers: tuple = ("interpreted",),
    checkpoint: bool = True,
    replace: bool = False,
) -> MachineSpec:
    """Register the machine ``name`` backed by the ``engine`` facade.

    With ``engine_backend=True`` (default) a ``"<name>-engine"``
    backend is registered alongside, built from
    :class:`repro.backends.engine.ModelEngineBackend` — the facade must
    then be :class:`~repro.sim.mta_engine.MTAEngine`-compatible
    (interleaved machines run the MTA thread programs as-is).  Event
    machines with bespoke backends pass ``engine_backend=False``.

    ``tiers`` lists the execution tiers the machine's runs may use and
    is shown by ``repro backends``; include ``"vector"`` only when the
    machine model publishes a
    :meth:`~repro.sim.kernel.MachineModel.vector_profile` (otherwise an
    explicit ``tier="vector"`` request fails at run time, which the
    listing should not advertise).  ``checkpoint`` declares whether the
    machine model implements the serializable-state contract
    (:meth:`~repro.sim.kernel.MachineModel.to_state`); defaults to True
    since models derived from the built-ins inherit it.
    """
    if not name:
        raise ConfigurationError("machine name must be non-empty")
    if name in _MACHINES and not replace:
        raise ConfigurationError(
            f"machine {name!r} is already registered (pass replace=True to override)"
        )
    backend_name = None
    if engine_backend:
        backend_name = f"{name}-engine"
        # Imported lazily: repro.sim must stay importable without the
        # backend layer, and this breaks the import cycle between the
        # two packages' __init__ modules.
        from ..backends.engine import ModelEngineBackend
        from ..backends.registry import register
        from .hooks import HOOK_EVENTS

        def make_backend(_name=backend_name, _engine=engine, _desc=description):
            return ModelEngineBackend(
                name=_name, engine_factory=_engine, description=_desc
            )

        register(
            backend_name,
            make_backend,
            level="engine",
            kinds=kinds,
            description=description,
            machine=name,
            hooks=HOOK_EVENTS,
            tiers=tiers,
            checkpoint=checkpoint,
            replace=replace,
        )
    spec = MachineSpec(
        name=name,
        engine=engine,
        scheduling=scheduling,
        description=description,
        kinds=tuple(kinds),
        backend=backend_name,
    )
    _MACHINES[name] = spec
    return spec


def machine_spec(name: str) -> MachineSpec:
    """The :class:`MachineSpec` registered under ``name``."""
    try:
        return _MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(_MACHINES)) or "(none)"
        raise ConfigurationError(
            f"unknown machine {name!r}; registered machines: {known}"
        ) from None


def list_machines() -> list[MachineSpec]:
    """Registered machines, sorted by name."""
    return [_MACHINES[n] for n in sorted(_MACHINES)]


def ensure_builtin_machines() -> None:
    """Register the paper's machines (idempotent; called by the backend
    registry at import so ``repro backends`` always sees them)."""
    if "smp" in _MACHINES:
        return
    from .mta_engine import MTAEngine
    from .smp_engine import SMPEngine
    from .kernel import EVENT, INTERLEAVED

    # The built-in engines keep their historical bespoke backends
    # ("smp-engine"/"mta-engine", registered by repro.backends), so the
    # auto-registration path is disabled for them.
    register_machine(
        "smp",
        SMPEngine,
        scheduling=EVENT,
        kinds=("rank", "cc"),
        description="Cycle-level SMP machine (simulated caches + bus)",
        engine_backend=False,
    )
    register_machine(
        "mta",
        MTAEngine,
        scheduling=INTERLEAVED,
        kinds=("rank", "cc", "chase"),
        description="Cycle-level MTA machine (multithreaded streams)",
        engine_backend=False,
    )
    if "mta-next" not in _MACHINES:
        # Self-registers on import; a no-op if its import is already in
        # progress higher up the stack (its own registration call runs
        # when that import completes).
        importlib.import_module("repro.sim.mta_next")
