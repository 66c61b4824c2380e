"""Instrumented-kernel selection for the analytic backends.

An analytic backend times :class:`~repro.core.cost.StepCost` sequences;
this module maps a :class:`~repro.backends.base.Workload` to the
instrumented algorithm run that produces them.  Each workload kind has
a table of algorithms; the backend picks its machine-native default
(``"rank"`` → Helman–JáJá on the SMP, the walk algorithm on the MTA)
unless the workload's ``options["algorithm"]`` overrides it — which is
how the cross-machine ablation runs every algorithm on every machine
through the same code path.  Randomized kernels draw their private RNG
from the workload seed; ``options["rng"]`` decouples the two when an
ablation wants to vary the input while pinning the algorithm's draws.

Returned extras (iterations, cost triplet, algorithm stats) are
JSON-safe so the sweep runner can cache them alongside the
:class:`~repro.obs.RunSummary`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..errors import ConfigurationError
from .base import Workload, _jsonable, canonical_json, int_value

__all__ = ["instrument", "algorithms_for", "extras_from_run", "clear_run_memo"]

#: Algorithms per kind.  Values are ``fn(data, p, seed, options) -> run``;
#: every run exposes ``.steps`` plus kind-specific result fields.
_RANK = {}
_CC = {}


def _rank_sequential(nxt, p, seed, opt):
    from ..lists.sequential import rank_sequential

    return rank_sequential(nxt)


def _rank_wyllie(nxt, p, seed, opt):
    from ..lists.wyllie import rank_wyllie

    return rank_wyllie(nxt, p=p)


def _rank_helman_jaja(nxt, p, seed, opt):
    from ..lists.helman_jaja import rank_helman_jaja

    return rank_helman_jaja(
        nxt,
        p,
        s=int_value(opt, "s", None),
        rng=opt.get("rng", seed),
        collect_traces=bool(opt.get("collect_traces", False)),
        schedule=opt.get("schedule", "dynamic"),
    )


def _rank_mta_walks(nxt, p, seed, opt):
    from ..lists.mta_ranking import rank_mta

    return rank_mta(
        nxt,
        p,
        nwalks=int_value(opt, "nwalks", None),
        collect_traces=bool(opt.get("collect_traces", False)),
        schedule=opt.get("schedule", "dynamic"),
    )


def _rank_branch_avoiding(nxt, p, seed, opt):
    from ..lists.branch_avoiding import rank_branch_avoiding

    return rank_branch_avoiding(
        nxt,
        p,
        s=int_value(opt, "s", None),
        rng=opt.get("rng", seed),
        collect_traces=bool(opt.get("collect_traces", False)),
        schedule=opt.get("schedule", "dynamic"),
    )


def _rank_compaction(nxt, p, seed, opt):
    from ..lists.compaction import rank_by_compaction

    return rank_by_compaction(
        nxt,
        p,
        fanout=int_value(opt, "fanout", 10),
        threshold=int_value(opt, "threshold", 256),
    )


def _rank_independent_set(nxt, p, seed, opt):
    from ..lists.independent_set import rank_independent_set

    return rank_independent_set(nxt, p, rng=opt.get("rng", seed))


_RANK.update(
    {
        "sequential": _rank_sequential,
        "wyllie": _rank_wyllie,
        "helman-jaja": _rank_helman_jaja,
        "helman-jaja-branch-avoiding": _rank_branch_avoiding,
        "mta-walks": _rank_mta_walks,
        "compaction": _rank_compaction,
        "independent-set": _rank_independent_set,
    }
)


def _cc_union_find(g, p, seed, opt):
    from ..graphs.sequential_cc import cc_union_find

    return cc_union_find(g)


def _cc_bfs(g, p, seed, opt):
    from ..graphs.sequential_cc import cc_bfs

    return cc_bfs(g)


def _cc_sv_pram(g, p, seed, opt):
    from ..graphs.shiloach_vishkin import sv_pram

    return sv_pram(g, p=p, max_iter=int_value(opt, "max_iter", None))


def _cc_sv_mta(g, p, seed, opt):
    from ..graphs.sv_mta import sv_mta

    return sv_mta(g, p=p, max_iter=int_value(opt, "max_iter", None))


def _cc_sv_smp(g, p, seed, opt):
    from ..graphs.sv_smp import sv_smp

    return sv_smp(g, p=p, max_iter=int_value(opt, "max_iter", None))


def _cc_sv_smp_branch_avoiding(g, p, seed, opt):
    from ..graphs.variants import sv_smp_branch_avoiding

    return sv_smp_branch_avoiding(g, p=p, max_iter=int_value(opt, "max_iter", None))


def _cc_awerbuch_shiloach(g, p, seed, opt):
    from ..graphs.variants import awerbuch_shiloach

    return awerbuch_shiloach(g, p=p, max_iter=int_value(opt, "max_iter", None))


def _cc_random_mating(g, p, seed, opt):
    from ..graphs.variants import random_mating

    return random_mating(
        g, p=p, rng=opt.get("rng", seed), max_iter=int_value(opt, "max_iter", None)
    )


def _cc_hybrid(g, p, seed, opt):
    from ..graphs.variants import hybrid_cc

    return hybrid_cc(
        g, p=p, rng=opt.get("rng", seed), max_iter=int_value(opt, "max_iter", None)
    )


_CC.update(
    {
        "union-find": _cc_union_find,
        "bfs-sequential": _cc_bfs,
        "sv-pram": _cc_sv_pram,
        "sv-mta": _cc_sv_mta,
        "sv-smp": _cc_sv_smp,
        "sv-smp-branch-avoiding": _cc_sv_smp_branch_avoiding,
        "awerbuch-shiloach": _cc_awerbuch_shiloach,
        "random-mating": _cc_random_mating,
        "hybrid": _cc_hybrid,
    }
)


def _bfs(g, p, seed, opt):
    from ..graphs.parallel_bfs import parallel_bfs

    return parallel_bfs(g, source=int_value(opt, "source", 0), p=p)


def _msf(data, p, seed, opt):
    from ..graphs.msf import minimum_spanning_forest

    g, w = data
    return minimum_spanning_forest(g, w, p=p)


def _tree(t, p, seed, opt):
    from ..trees import evaluate_by_contraction

    return evaluate_by_contraction(t, p=p, modulus=opt.get("modulus"))


_TABLES: dict[str, dict] = {
    "rank": _RANK,
    "cc": _CC,
    "bfs": {"frontier": _bfs},
    "msf": {"boruvka": _msf},
    "tree": {"contraction": _tree},
}

_SINGLETON_DEFAULTS = {"bfs": "frontier", "msf": "boruvka", "tree": "contraction"}

#: Finished kernel runs, keyed by everything that determines them
#: *except* the model processor count.  Jobs that run the kernel at the
#: same ``instrument_p`` (the Fig. 2 run-once-redistribute pattern)
#: then share one execution instead of recomputing per model ``p``.
_RUN_MEMO_CAP = 8
_run_memo: "OrderedDict[str, Any]" = OrderedDict()


def clear_run_memo() -> None:
    """Drop memoized kernel runs (tests and memory-sensitive callers)."""
    _run_memo.clear()


def algorithms_for(kind: str) -> list[str]:
    """Algorithm names available for a workload kind."""
    try:
        return sorted(_TABLES[kind])
    except KeyError:
        raise ConfigurationError(f"no instrumented kernels for kind {kind!r}") from None


def extras_from_run(run: Any) -> dict:
    """Kernel measurements worth reporting: iterations, triplet, stats."""
    extras: dict = {}
    for attr in ("iterations", "levels", "rounds", "n_edges", "value"):
        v = getattr(run, attr, None)
        if v is not None and not callable(v):
            extras[attr] = _jsonable(v)
    triplet = getattr(run, "triplet", None)
    if triplet is not None:
        extras["t_m"] = float(triplet.t_m)
        extras["t_c"] = float(triplet.t_c)
        extras["barriers"] = int(triplet.b)
    stats = getattr(run, "stats", None)
    if stats:
        extras["stats"] = _jsonable(dict(stats))
    return extras


def instrument(workload: Workload, data: Any, *, default_algorithm: str | None = None):
    """Run the instrumented algorithm a workload names.

    Returns ``(steps, run, algorithm)`` where ``steps`` are the
    :class:`~repro.core.cost.StepCost` list redistributed to
    ``workload.p`` when the ``instrument_p`` option asked for the
    algorithm to execute at a different processor count (the exact
    rescaling Fig. 2 uses to avoid recomputing identical sweeps).
    """
    table = _TABLES.get(workload.kind)
    if table is None:
        raise ConfigurationError(
            f"workload kind {workload.kind!r} has no instrumented kernels"
        )
    algorithm = workload.option(
        "algorithm", default_algorithm or _SINGLETON_DEFAULTS.get(workload.kind)
    )
    if algorithm not in table:
        raise ConfigurationError(
            f"unknown {workload.kind} algorithm {algorithm!r}"
            f" (available: {', '.join(sorted(table))})"
        )
    run_p = int_value(workload.options, "instrument_p", workload.p)
    opts = {k: v for k, v in workload.options.items() if k != "instrument_p"}
    memo_key = canonical_json(
        {
            "kind": workload.kind,
            "params": dict(workload.params),
            "seed": workload.seed,
            "algorithm": algorithm,
            "run_p": run_p,
            "options": opts,
        }
    )
    if memo_key in _run_memo:
        _run_memo.move_to_end(memo_key)
        run = _run_memo[memo_key]
    else:
        run = table[algorithm](data, run_p, workload.seed, dict(workload.options))
        _run_memo[memo_key] = run
        while len(_run_memo) > _RUN_MEMO_CAP:
            _run_memo.popitem(last=False)
    steps = run.steps
    if run_p != workload.p:
        steps = [s.redistributed(workload.p) for s in steps]
    return steps, run, algorithm
