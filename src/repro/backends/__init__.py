"""Backend registry: one interface over every execution stack.

The built-in backends (three analytic machine models, three
cycle-level engines and the ``cost-xval`` pairing) are registered at
import; ``repro backends`` lists them and :func:`create` instantiates
by name.  Third-party machines register the same way — with
:func:`register`, or :func:`register_machine` for an interleaved
cycle-level machine; see ``examples/custom_machine.py`` and
``docs/BACKENDS.md``.
"""

from __future__ import annotations

from .base import Backend, RunHandle, Workload, canonical_json
from .engine import register_machine
from .inputs import clear_memo, input_for
from .kernels import algorithms_for
from .registry import create, describe, names, register

__all__ = [
    "Backend",
    "RunHandle",
    "Workload",
    "canonical_json",
    "input_for",
    "clear_memo",
    "algorithms_for",
    "register",
    "register_machine",
    "create",
    "names",
    "describe",
]


def _register_builtins() -> None:
    from ..sim.hooks import HOOK_EVENTS
    from ..sim.mta_engine import MTAEngine
    from ..sim.mta_next import MTANextEngine
    from .analytic import make_cluster_model, make_mta_model, make_smp_model
    from .engine import SMPEngineBackend
    from .xval import make_cost_xval

    register(
        "smp-model",
        make_smp_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic cache-based SMP model (Sun E4500)",
    )
    register(
        "mta-model",
        make_mta_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic multithreaded machine model (Cray MTA-2)",
    )
    register(
        "cluster-model",
        make_cluster_model,
        level="model",
        kinds=("rank", "cc", "bfs", "msf", "tree"),
        description="Analytic message-passing cluster model (Beowulf 2005)",
    )
    register(
        "smp-engine",
        SMPEngineBackend,
        level="engine",
        kinds=SMPEngineBackend.kinds,
        description=SMPEngineBackend.description,
        machine="smp",
        hooks=HOOK_EVENTS,
        checkpoint=True,
        xval=True,
    )
    register_machine(
        "mta",
        MTAEngine,
        description="Cycle-level MTA engine (multithreaded streams)",
        xval=True,
    )
    register_machine(
        "mta-next",
        MTANextEngine,
        description="Hypothetical commodity-parts Cray: banked high-latency memory, 64 streams",
    )
    register(
        "cost-xval",
        make_cost_xval,
        level="xval",
        kinds=("rank", "cc", "chase"),
        description="Model-vs-engine per-phase divergence (repro.xval)",
        xval=True,
    )


_register_builtins()
