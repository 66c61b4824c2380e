"""Multi-run MTA programs record run totals of the machine counters.

Alg. 1 list ranking is four engine runs and Alg. 3 connected components
two per iteration.  ``combine_reports`` adds their counters, so the
summary that ``repro run``, ``repro sweep``, the service and the result
cache store carries the whole program's contention, not the first
run's.  The totals below are computed key by key from ``phase_reports``.
"""

from __future__ import annotations

import pytest

from repro.backends import Workload, create
from repro.graphs.programs import simulate_mta_cc
from repro.lists.programs import simulate_mta_list_ranking

WORKLOADS = {
    "rank": Workload("rank", 2, 3, {"n": 512}, {"streams_per_proc": 8, "nodes_per_walk": 4}),
    "cc": Workload("cc", 2, 3, {"graph": "random", "n": 96, "m": 384}, {"streams_per_proc": 8}),
}

CASES = [(b, kind) for b in ("mta-engine", "mta-next-engine") for kind in WORKLOADS]


def _simulate(backend, workload):
    """The program the backend runs, called directly for its per-run reports."""
    data = backend.prepare(workload).data
    kw = {"p": workload.p, "streams_per_proc": 8, "engine": backend.engine}
    if workload.kind == "rank":
        return simulate_mta_list_ranking(data, nodes_per_walk=4, **kw)
    return simulate_mta_cc(data, **kw)


def _totals(reports) -> dict:
    """Whole-program counters: sums, and the largest single barrier wait."""
    out = {
        "fa_serialization_stalls": 0,
        "fa_sites": {},
        "fe_wait_hist": {},
        "fe_wait_cycles": 0,
        "barrier_waits": {},
    }
    for r in reports:
        d = r.detail
        out["fa_serialization_stalls"] += d["fa_serialization_stalls"]
        out["fe_wait_cycles"] += d["fe_wait_cycles"]
        for addr, (ops, stalls) in d["fa_sites"].items():
            o, s = out["fa_sites"].get(addr, (0, 0))
            out["fa_sites"][addr] = (o + ops, s + stalls)
        for bucket, n in d["fe_wait_hist"].items():
            out["fe_wait_hist"][bucket] = out["fe_wait_hist"].get(bucket, 0) + n
        for bid, b in d["barrier_waits"].items():
            t = out["barrier_waits"].setdefault(
                bid, {"episodes": 0, "wait_cycles": 0, "max_wait": 0}
            )
            t["episodes"] += b["episodes"]
            t["wait_cycles"] += b["wait_cycles"]
            t["max_wait"] = max(t["max_wait"], b["max_wait"])
        if "bank_contention_stalls" in d:
            out["bank_contention_stalls"] = (
                out.get("bank_contention_stalls", 0) + d["bank_contention_stalls"]
            )
    return out


@pytest.mark.parametrize("backend_name,kind", CASES, ids=[f"{b}-{k}" for b, k in CASES])
def test_summary_detail_is_the_run_total(backend_name, kind):
    backend = create(backend_name)
    sim = _simulate(backend, WORKLOADS[kind])
    assert len(sim.phase_reports) > 1
    expected = _totals(sim.phase_reports)
    assert sim.summary.detail == expected

    # every run's fetch-add cells and barriers are in the total
    for r in sim.phase_reports:
        assert set(r.detail["fa_sites"]) <= set(sim.summary.detail["fa_sites"])
        assert set(r.detail["barrier_waits"]) <= set(sim.summary.detail["barrier_waits"])
    assert len(expected["fa_sites"]) > 1
    if kind == "rank":
        assert set(expected["barrier_waits"]) == {"wy-gather", "wy-apply"}

    # the record the backend returns carries the same totals
    record = backend.execute(backend.prepare(WORKLOADS[kind]))
    assert {k: record.detail[k] for k in expected} == expected
