"""Analytic-model backends: SMP, MTA, and cluster machine models.

Each backend pairs a machine model (:class:`~repro.core.smp_machine.SMPMachine`,
:class:`~repro.core.mta_machine.MTAMachine`,
:class:`~repro.core.cluster_machine.ClusterMachine`) with the
machine-native default algorithm per workload kind; the workload's
``options["algorithm"]`` overrides the default, so any instrumented
kernel can be timed on any model (the cross-machine ablation).

Backend options accepted by the factories:

``config``
    Dict of config-field overrides applied with ``dataclasses.replace``
    to the default machine config (e.g. ``{"batching": 256}``).  A dict
    value targeting a dataclass-typed field is applied to that nested
    config (e.g. ``{"l2": {"size_words": 1 << 18}}`` resizes the SMP
    model's L2 while keeping its other geometry).
``config_name``
    Override the config's ``name`` field (a shorthand for
    ``config={"name": ...}`` that composes with it).
``use_traces``
    SMP model only: simulate caches from exact address traces when the
    kernel collected them (default ``True``).
"""

from __future__ import annotations

import dataclasses

from .base import Backend, RunHandle, override_config
from .kernels import extras_from_run, instrument

__all__ = ["AnalyticBackend", "make_smp_model", "make_mta_model", "make_cluster_model"]

_ANALYTIC_KINDS = ("rank", "cc", "bfs", "msf", "tree")


class AnalyticBackend(Backend):
    """A machine model plus per-kind default algorithms."""

    level = "model"
    kinds = _ANALYTIC_KINDS

    def __init__(self, name, description, machine_factory, defaults, config,
                 config_overrides=None, config_name=None, **machine_kwargs):
        self.name = name
        self.description = description
        self._machine_factory = machine_factory
        self._defaults = dict(defaults)
        config = override_config(
            config, config_overrides, f"config override for backend {name!r}"
        )
        if config_name:
            config = dataclasses.replace(config, name=config_name)
        self.config = config
        self._machine_kwargs = machine_kwargs

    def machine(self, p: int):
        """A fresh machine-model instance at ``p`` processors."""
        return self._machine_factory(p, self.config, **self._machine_kwargs)

    def execute(self, handle: RunHandle):
        workload = handle.workload
        steps, run, algorithm = instrument(
            workload, handle.data, default_algorithm=self._defaults.get(workload.kind)
        )
        result = self.machine(workload.p).run(steps)
        summary = result.summary()
        summary.name = f"{workload.kind}.{algorithm}"
        summary.detail.update(handle.meta)
        summary.detail["algorithm"] = algorithm
        summary.detail["backend"] = self.name
        summary.detail.update(extras_from_run(run))
        return summary


def make_smp_model(*, config=None, config_name=None, use_traces=True):
    from ..core.smp_machine import SMPMachine, SUN_E4500

    return AnalyticBackend(
        "smp-model",
        "Analytic cache-based SMP model (Sun E4500)",
        SMPMachine,
        {"rank": "helman-jaja", "cc": "sv-smp"},
        SUN_E4500,
        config_overrides=config,
        config_name=config_name,
        use_traces=use_traces,
    )


def make_mta_model(*, config=None, config_name=None):
    from ..core.mta_machine import MTAMachine, CRAY_MTA2

    return AnalyticBackend(
        "mta-model",
        "Analytic multithreaded machine model (Cray MTA-2)",
        MTAMachine,
        {"rank": "mta-walks", "cc": "sv-mta"},
        CRAY_MTA2,
        config_overrides=config,
        config_name=config_name,
    )


def make_cluster_model(*, config=None, config_name=None):
    from ..core.cluster_machine import ClusterMachine, BEOWULF_2005

    return AnalyticBackend(
        "cluster-model",
        "Analytic message-passing cluster model (Beowulf 2005)",
        ClusterMachine,
        {"rank": "helman-jaja", "cc": "sv-smp"},
        BEOWULF_2005,
        config_overrides=config,
        config_name=config_name,
    )
