"""Name-based backend registry.

Backends register a *factory* under a short name (``"smp-model"``,
``"mta-engine"``, …); callers create configured instances with
:func:`create`, passing backend-specific options (machine config
overrides, trace mode, engine latencies).  The CLI's ``repro
backends`` and the sweep runner resolve names through here, so adding
a machine is one ``register`` call — see ``examples/custom_machine.py``
and ``docs/BACKENDS.md``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError
from .base import Backend

__all__ = ["register", "create", "names", "describe"]


@dataclass(frozen=True)
class _Entry:
    name: str
    factory: Callable[..., Backend]
    level: str
    kinds: tuple
    description: str
    #: Machine model behind the backend ("" for analytic models; engine
    #: backends of interleaved machines register through
    #: repro.backends.register_machine).
    machine: str = ""
    #: HookBus events the backend's execution path can deliver
    #: (empty for analytic models, which run no instruction streams).
    hooks: tuple = ()
    #: True when the backend's runs can checkpoint/resume (the machine
    #: model implements the serializable-state contract).
    checkpoint: bool = False
    #: True when the backend participates in model-vs-engine
    #: cross-validation (:mod:`repro.xval`) — either as a stack with an
    #: analytic counterpart or as the pairing backend itself.
    xval: bool = False


_REGISTRY: dict[str, _Entry] = {}


def register(
    name: str,
    factory: Callable[..., Backend],
    *,
    level: str = "model",
    kinds: tuple = (),
    description: str = "",
    machine: str = "",
    hooks: tuple = (),
    checkpoint: bool = False,
    xval: bool = False,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``factory(**options)`` must return a :class:`Backend`.  Registering
    an existing name raises unless ``replace=True`` (so typos fail loud
    but examples can re-run).  ``machine`` names the simulation machine
    model behind an engine backend, ``hooks`` lists the
    :class:`~repro.sim.hooks.HookBus` events its runs can deliver,
    ``checkpoint`` whether its runs support
    checkpoint/resume (the workload's ``checkpoint`` option), and
    ``xval`` whether the backend participates in model-vs-engine
    cross-validation (:mod:`repro.xval`); all are informational (shown
    by ``repro backends``).
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = _Entry(
        name=name,
        factory=factory,
        level=level,
        kinds=tuple(kinds),
        description=description,
        machine=machine,
        hooks=tuple(hooks),
        checkpoint=bool(checkpoint),
        xval=bool(xval),
    )


def create(name: str, **options) -> Backend:
    """Instantiate the backend registered under ``name``.

    Options the factory does not take raise
    :class:`~repro.errors.ConfigurationError` naming the backend and the
    options (a ``TypeError`` raised inside the factory body propagates).
    """
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None
    try:
        inspect.signature(entry.factory).bind(**options)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad options {sorted(options)} for backend {name!r}: {exc}"
        ) from None
    return entry.factory(**options)


def names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def describe() -> list[dict]:
    """One row per backend: name, level, kinds, machine, hooks,
    checkpoint, xval, description."""
    return [
        {
            "name": e.name,
            "level": e.level,
            "kinds": list(e.kinds),
            "machine": e.machine,
            "hooks": list(e.hooks),
            "checkpoint": e.checkpoint,
            "xval": e.xval,
            "description": e.description,
        }
        for e in (_REGISTRY[n] for n in names())
    ]
