"""Analytic counterparts of the engine thread programs.

A counterpart replays, sequentially and deterministically, exactly the
algorithm an engine thread program executes — same processor bounds,
same per-edge loads, same one-bit branch predictors — and emits
:class:`~repro.core.cost.StepCost` records under the *engine's* phase
names.  Feeding those steps to the matching analytic machine's
``predict_phases()`` yields per-phase predictions that pair one-to-one
with the engine's PHASE slices, which is what
:class:`repro.xval.DivergenceReport` consumes.

The replica intentionally resolves graft races in a fixed sequential
order while the engine resolves them by simulated time; whatever gap
that opens *is* model-vs-machine divergence and shows up in the
report rather than being papered over.

Only (kernel × machine) pairs with a faithful analytic counterpart are
supported — currently connected components on the SMP and the MTA.
Asking for any other pair raises a structured
:class:`~repro.errors.ConfigurationError` (satisfying ``repro xval``'s
no-traceback contract).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.cost import StepCost
from ..errors import ConfigurationError, SimulationError
from ..sim.branch import OneBitPredictor
from ..sim.mta_engine import check_at_least_one

__all__ = ["COUNTERPARTS", "has_counterpart", "counterpart_predictions"]


def _smp_cc_steps(g, p: int, *, variant: str | None, max_iter: int) -> list[StepCost]:
    """Replica of :func:`repro.graphs.programs.simulate_smp_cc`.

    Phase names match the engine's slices: the ``smp.sv-cc`` preamble
    (everything before the first PHASE marker — the initial reset
    barrier), then ``graft.K`` (one barrier) and ``shortcut.K`` (the
    shortcut barrier plus the next iteration's reset barrier, which the
    engine's slicing attributes to the shortcut slice).
    """
    n = g.n
    sym = g.symmetrized()
    eu = sym.u.tolist()
    ev = sym.v.tolist()
    m2 = len(eu)
    d = list(range(n))
    ebounds = np.linspace(0, m2, p + 1).astype(int)
    vbounds = np.linspace(0, n, p + 1).astype(int)
    predictors = [OneBitPredictor() for _ in range(p)]

    steps = [StepCost(name="smp.sv-cc", p=p, barriers=1, working_set=n)]
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise SimulationError(f"SMP CC counterpart exceeded {max_iter} iterations")

        # per-processor counts, kept as Python ints until the step is built
        contig, noncontig, ncw, ops, branches, mispredicts = [], [], [], [], [], []
        any_graft = False
        for proc in range(p):
            elo, ehi = int(ebounds[proc]), int(ebounds[proc + 1])
            edges = ehi - elo
            predictor = predictors[proc]
            grafts = missed = 0
            for i in range(elo, ehi):
                du = d[eu[i]]
                dv = d[ev[i]]
                graft = du < dv and dv == d[dv]
                if variant == "branchy" and predictor.record(graft):
                    missed += 1
                if graft:
                    d[dv] = du
                    grafts += 1
            contig.append(2 * edges)  # streamed E chunk
            noncontig.append(3 * edges)  # D[u], D[v], D[D[v]] gathers
            if variant == "branch-avoiding":
                ops.append(2 * edges)  # min/max selects
                writes = edges  # unconditional predicated store
            else:
                ops.append(edges)
                writes = grafts
            if grafts:
                writes += 1  # graft-flag broadcast
                any_graft = True
            ncw.append(writes)
            branches.append(edges if variant == "branchy" else 0)
            mispredicts.append(missed)
        steps.append(
            StepCost(
                name=f"graft.{it}",
                p=p,
                contig=contig,
                noncontig=noncontig,
                noncontig_writes=ncw,
                ops=ops,
                barriers=1,
                parallelism=m2,
                working_set=n,
                branches=branches,
                mispredicts=mispredicts,
            )
        )
        if not any_graft:
            break

        contig, noncontig, ncw = [], [], []
        for proc in range(p):
            vlo, vhi = int(vbounds[proc]), int(vbounds[proc + 1])
            loads = writes = 0
            for i in range(vlo, vhi):
                di = d[i]
                while True:
                    ddi = d[di]
                    loads += 1
                    if di == ddi:
                        break
                    d[i] = ddi
                    di = ddi
                    writes += 1
            contig.append(vhi - vlo)  # unit-stride D[i] sweep
            noncontig.append(loads)
            ncw.append(writes)
        steps.append(
            StepCost(
                name=f"shortcut.{it}",
                p=p,
                contig=contig,
                noncontig=noncontig,
                noncontig_writes=ncw,
                ops=noncontig,  # one compare per load
                barriers=2,  # shortcut barrier + next iteration's reset
                parallelism=n,
                working_set=n,
            )
        )
    return steps


def _mta_cc_steps(
    g,
    p: int,
    *,
    max_iter: int,
    streams_per_proc: int,
    edges_per_chunk: int,
) -> list[StepCost]:
    """Replica of :func:`repro.graphs.programs.simulate_mta_cc`.

    One step per engine run: ``mta.graft.K`` / ``mta.shortcut.K``, no
    barriers (each phase is a separate engine run), with the loop's
    ``int_fetch_add`` chunk grabs counted as hotspot ops.
    """
    check_at_least_one(streams_per_proc=streams_per_proc, edges_per_chunk=edges_per_chunk)
    n = g.n
    sym = g.symmetrized()
    eu = sym.u.tolist()
    ev = sym.v.tolist()
    m2 = len(eu)
    d = list(range(n))
    n_workers = max(1, min(p * streams_per_proc, m2))
    vchunk = max(4, edges_per_chunk)
    n_sc = max(1, min(p * streams_per_proc, n))

    steps: list[StepCost] = []
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise SimulationError(f"MTA CC counterpart exceeded {max_iter} iterations")

        grafts = 0
        for i in range(m2):
            du = d[eu[i]]
            dv = d[ev[i]]
            ddv = d[dv]
            if du < dv and dv == ddv:
                d[dv] = du
                grafts += 1
        fa = math.ceil(m2 / edges_per_chunk) + n_workers
        steps.append(
            StepCost(
                name=f"mta.graft.{it}",
                p=p,
                contig=2.0 * m2,
                noncontig=3.0 * m2,
                noncontig_writes=float(grafts + (1 if grafts else 0)),
                ops=float(m2 + fa),
                barriers=0,
                parallelism=min(n_workers, m2),
                working_set=n,
                hotspot_ops=fa,
                branches=float(m2),  # hidden by the MTA's interleaving
            )
        )
        if not grafts:
            break

        jumps = 0
        loads = 0
        for i in range(n):
            di = d[i]
            while True:
                ddi = d[di]
                loads += 1
                if di == ddi:
                    break
                d[i] = ddi
                di = ddi
                jumps += 1
        fa = math.ceil(n / vchunk) + n_sc
        steps.append(
            StepCost(
                name=f"mta.shortcut.{it}",
                p=p,
                contig=float(n),
                noncontig=float(loads),
                noncontig_writes=float(jumps),
                ops=float(loads + fa),
                barriers=0,
                parallelism=min(n_sc, n),
                working_set=n,
                hotspot_ops=fa,
            )
        )
    return steps


def _smp_cc(data, p: int, options: dict):
    from ..core.smp_machine import SMPMachine, SUN_E4500

    variant = options.get("variant")
    if variant not in (None, "branchy", "branch-avoiding"):
        raise ConfigurationError(
            f"unknown SMP CC variant {variant!r}"
            " (choose from: branchy, branch-avoiding)"
        )
    penalty = float(options.get("penalty", 0.0))
    cfg = dataclasses.replace(SUN_E4500, mispredict_penalty_cycles=penalty)
    steps = _smp_cc_steps(
        data, p, variant=variant, max_iter=int(options.get("max_iter", 64))
    )
    machine = SMPMachine(p=p, config=cfg, use_traces=False)
    return machine.predict_phases(steps)


def _mta_cc(data, p: int, options: dict):
    from ..core.mta_machine import MTAMachine

    if options.get("variant") is not None:
        raise ConfigurationError(
            "branch variants are SMP-only: the MTA hides branch latency"
            " behind stream interleaving, so there is nothing to separate"
        )
    steps = _mta_cc_steps(
        data,
        p,
        max_iter=int(options.get("max_iter", 64)),
        streams_per_proc=int(options.get("streams_per_proc", 100)),
        edges_per_chunk=int(options.get("edges_per_chunk", 16)),
    )
    return MTAMachine(p=p).predict_phases(steps)


#: (workload kind, machine) -> counterpart; the supported xval pairs.
COUNTERPARTS = {
    ("cc", "smp"): _smp_cc,
    ("cc", "mta"): _mta_cc,
}


def has_counterpart(kind: str, machine: str) -> bool:
    """Whether an analytic counterpart exists for this (kernel, machine)."""
    return (kind, machine) in COUNTERPARTS


def counterpart_predictions(kind: str, machine: str, data, p: int, options: dict):
    """Per-phase analytic predictions mirroring the engine's phases.

    Raises a structured :class:`~repro.errors.ConfigurationError` for
    pairs with no counterpart — ``repro xval`` reports it as an error
    message, never a traceback.
    """
    fn = COUNTERPARTS.get((kind, machine))
    if fn is None:
        available = ", ".join(f"{k}/{m}" for k, m in sorted(COUNTERPARTS))
        raise ConfigurationError(
            f"no analytic counterpart for workload kind {kind!r} on machine"
            f" {machine!r} (available: {available})"
        )
    return fn(data, p, dict(options))
