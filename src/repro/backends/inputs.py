"""Workload input generation, memoized.

Every backend consumes the same inputs for the same declarative
:class:`~repro.backends.base.Workload` — a successor list, a graph, an
expression tree — generated deterministically from ``(params, seed)``.
A small in-process memo means a sweep touching the same grid input from
several backends (or several ``p`` values) generates it once; the sweep
runner additionally memoizes *results* on disk, so warm reruns skip
generation entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..errors import ConfigurationError, WorkloadError
from .base import Workload, canonical_json, int_value

__all__ = ["input_for", "clear_memo"]

#: Workload kinds that consume a graph input.
_GRAPH_KINDS = ("cc", "bfs", "msf")

_MEMO_CAP = 32
_memo: "OrderedDict[str, tuple]" = OrderedDict()


def clear_memo() -> None:
    """Drop all memoized inputs (tests and memory-sensitive callers)."""
    _memo.clear()


def _make_list(params: dict, seed: int):
    from ..lists.generate import clustered_list, ordered_list, random_list

    n = int_value(params, "n", 0)
    if n < 1:
        raise WorkloadError(f"list workload needs n >= 1, got {n}")
    cls = params.get("list", "random")
    if cls == "ordered":
        nxt = ordered_list(n)
    elif cls == "random":
        nxt = random_list(n, rng=seed)
    elif cls == "clustered":
        nxt = clustered_list(n, block=int_value(params, "block", 1), rng=seed)
    else:
        raise ConfigurationError(f"unknown list class {cls!r}")
    return nxt, {"n": n, "list": cls}


def _make_graph(params: dict, seed: int):
    from ..graphs.generate import (
        best_case_labeling,
        chain_graph,
        mesh2d,
        random_graph,
        rmat_graph,
        worst_case_labeling,
    )

    cls = params.get("graph", "random")
    if cls == "random":
        n = int_value(params, "n")
        m = int_value(params, "m", 8 * n)
        g = random_graph(n, m, rng=seed)
    elif cls == "rmat":
        g = rmat_graph(
            int_value(params, "scale"), int_value(params, "edge_factor", 8), rng=seed
        )
    elif cls == "mesh":
        rows = int_value(params, "rows", int_value(params, "side", 0))
        cols = int_value(params, "cols", rows)
        g = mesh2d(rows, cols)
    elif cls == "chain":
        g = chain_graph(int_value(params, "n"))
    else:
        raise ConfigurationError(f"unknown graph class {cls!r}")

    labeling = params.get("labeling")
    if labeling == "best":
        g = best_case_labeling(g)
    elif labeling == "worst":
        g = worst_case_labeling(g)
    elif labeling == "arbitrary":
        import numpy as np

        rng = np.random.default_rng(seed)
        g = g.relabeled(rng.permutation(g.n).astype("int64"))
    elif labeling is not None:
        raise ConfigurationError(f"unknown labeling {labeling!r}")
    return g, {"n": g.n, "m": g.m, "graph": cls}


def _make_tree(params: dict, seed: int):
    from ..trees import random_expression_tree

    leaves = int_value(params, "leaves", 0)
    if leaves < 1:
        raise WorkloadError(f"tree workload needs leaves >= 1, got {leaves}")
    t = random_expression_tree(leaves, rng=seed)
    return t, {"leaves": leaves}


def _build(workload: Workload) -> tuple[Any, dict]:
    kind = workload.kind
    params = dict(workload.params)
    seed = workload.seed
    if kind == "rank":
        return _make_list(params, seed)
    if kind in _GRAPH_KINDS:
        g, meta = _make_graph(params, seed)
        if kind == "msf":
            import numpy as np

            w = np.random.default_rng(seed).random(g.m)
            return (g, w), meta
        return g, meta
    if kind == "tree":
        return _make_tree(params, seed)
    if kind == "chase":
        # pure synthetic access pattern; no materialized input
        return None, {"chasers": int_value(params, "chasers", 1)}
    raise ConfigurationError(f"unknown workload kind {workload.kind!r}")


def input_for(workload: Workload) -> tuple[Any, dict]:
    """The input object and its metadata for ``workload``, memoized.

    The memo key covers kind, params, and seed — never backend options —
    so every backend timing the same grid point shares one input.
    """
    key = canonical_json(
        {"kind": workload.kind, "params": dict(workload.params), "seed": workload.seed}
    )
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    value = _build(workload)
    _memo[key] = value
    while len(_memo) > _MEMO_CAP:
        _memo.popitem(last=False)
    return value
