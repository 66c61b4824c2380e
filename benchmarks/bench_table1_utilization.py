"""Table 1 — MTA processor utilization for list ranking and CC.

Regenerates the paper's Table 1 two ways:

* **measured** — the cycle-level MTA engine *executes* the Alg. 1 list
  ranking (Random and Ordered lists) and the Alg. 3 connected
  components as real thread swarms with 100 streams/processor, and the
  utilization is counted from issue slots, for p ∈ {1, 4, 8};
* **modeled** — the analytic MTA machine evaluates the same kernels at
  the paper's full sizes (20M-node lists; n = 1M, m = 20M graphs),
  where the phase-drain tails that depress small-scale utilization
  vanish.

The paper's numbers (98/90/82 % random list, 97/85/80 % ordered,
99/93/91 % CC) sit between the two: the engine at reduced scale gives a
lower bound that improves monotonically with size (asserted), the
analytic model at paper scale the saturated ceiling.

Both halves are one job list (:func:`repro.workloads.table1_jobs`)
executed through the backend registry — ``mta-engine`` for the measured
rows, ``mta-model`` for the analytic ones — so the table's utilization
numbers are the runner's :class:`repro.obs.RunSummary` numbers.

Output: ``benchmarks/results/table1_utilization.txt``.
"""

from __future__ import annotations

import pytest

from repro.core import Job, ResultTable, run_jobs
from repro.backends import Workload
from repro.workloads import TABLE1_SPEC, table1_jobs

from .conftest import once


@pytest.fixture(scope="module")
def table1(run_sweep):
    spec = TABLE1_SPEC
    table = ResultTable("table1")
    for r in run_sweep(table1_jobs(spec)):
        t = r.job.tags
        table.add(
            kernel=t["kernel"], p=t["p"], source=t["source"], n=t["n"],
            utilization=r.utilization,
        )
    return spec, table


def test_table1_regenerate(table1, write_result, benchmark):
    spec, table = table1

    def render():
        paper = {
            "list-random": spec.paper_list_random,
            "list-ordered": spec.paper_list_ordered,
            "cc": spec.paper_cc,
        }
        lines = [
            "== Table 1: MTA processor utilization ==",
            "kernel        p  engine(reduced n)  model(paper n)  paper",
            "-" * 62,
        ]
        for kernel in ("list-random", "list-ordered", "cc"):
            for p in spec.procs:
                eng = table.where(kernel=kernel, p=p, source="engine").rows[0]
                mod = table.where(kernel=kernel, p=p, source="model").rows[0]
                lines.append(
                    f"{kernel:<12}  {p}  {eng.get('utilization'):>17.1%}"
                    f"  {mod.get('utilization'):>14.1%}  {paper[kernel][p]:>5.0%}"
                )
        return "\n".join(lines)

    path = write_result("table1_utilization", once(benchmark, render))
    assert path.exists()


def test_table1_engine_utilization_positive_and_sane(table1, benchmark):
    spec, table = table1

    def utils():
        return [
            (r.params, r.get("utilization"))
            for r in table.where(source="engine").rows
        ]

    for params, u in once(benchmark, utils):
        assert 0.2 < u <= 1.0, params


def test_table1_model_matches_paper_magnitudes(table1, benchmark):
    """At paper scale the analytic utilization is high for every kernel,
    as in Table 1 (all entries ≥ 80 %)."""
    spec, table = table1

    def utils():
        return [
            (r.params, r.get("utilization"))
            for r in table.where(source="model").rows
        ]

    for params, u in once(benchmark, utils):
        assert u > 0.8, params


def test_table1_engine_utilization_grows_with_scale(benchmark):
    """The engine's measured utilization climbs toward the paper's
    numbers as the per-processor list grows (the drain tail amortizes)."""

    def measure():
        jobs = [
            Job(
                Workload("rank", 1, 7, {"n": n, "list": "random"},
                         {"streams_per_proc": 100, "nodes_per_walk": 10}),
                "mta-engine",
            )
            for n in (2000, 10000, 40000)
        ]
        return [r.utilization for r in run_jobs(jobs, cache=False)]

    utils = once(benchmark, measure)
    assert utils[0] < utils[-1]
    assert utils[-1] > 0.75


def test_table1_cc_utilization_exceeds_list_ranking(table1, benchmark):
    """Table 1's ordering: CC utilizes the machine at least as well as
    list ranking (more independent memory parallelism per element)."""
    spec, table = table1

    def pairs():
        out = []
        for p in spec.procs:
            cc = table.where(kernel="cc", p=p, source="engine").rows[0].get("utilization")
            lr = table.where(kernel="list-random", p=p, source="engine").rows[0].get(
                "utilization"
            )
            out.append((p, cc, lr))
        return out

    for p, cc, lr in once(benchmark, pairs):
        assert cc > lr - 0.15, f"p={p}: cc {cc:.2f} vs list {lr:.2f}"
